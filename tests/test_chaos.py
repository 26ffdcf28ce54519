"""Chaos harnesses: seeded replay, graceful degradation, Fig. 5 convergence."""

import pytest

from repro.experiments import (
    format_chaos_report,
    run_fig4_chaos,
    run_fig5,
    run_fig5_chaos,
)
from repro.faults.profiles import DOWN_SITE, FLAKY_SITE


@pytest.fixture(scope="module")
def chaos_pair():
    """The same seed twice — the replay-from-seed guarantee under test."""
    return run_fig4_chaos(seed=7), run_fig4_chaos(seed=7)


class TestChaosFig4:
    def test_same_seed_is_byte_identical(self, chaos_pair):
        first, second = chaos_pair
        assert format_chaos_report(first) == format_chaos_report(second)

    def test_flaky_site_recovers_via_retries(self, chaos_pair):
        result, _ = chaos_pair
        assert result.site_status[FLAKY_SITE] == "ok"
        assert result.resilience["retries"] >= 1

    def test_hard_down_site_degrades_to_a_skip(self, chaos_pair):
        result, _ = chaos_pair
        assert result.site_status[DOWN_SITE] == "skipped"
        assert "EndpointOffline" in result.skip_reasons[DOWN_SITE]
        assert result.resilience["breaker_trips"] >= 1
        assert result.breakers[DOWN_SITE]["state"] == "open"
        # partial results: the healthy cloud site still reports numbers
        assert "chameleon" in result.sites_ok
        assert result.durations["chameleon"]

    def test_provenance_carries_the_fault_seed(self, chaos_pair):
        result, _ = chaos_pair
        assert result.records_with_seed >= 1
        assert result.plan.seed == 7

    def test_injected_faults_are_audited(self, chaos_pair):
        result, _ = chaos_pair
        kinds = {entry["kind"] for entry in result.injected}
        assert "endpoint.offline" in kinds

    def test_different_seed_changes_the_plan(self, chaos_pair):
        result, _ = chaos_pair
        other = run_fig4_chaos(seed=8)
        assert result.plan.describe() != other.plan.describe()


class TestFig5Convergence:
    def test_injection_reproduces_the_hardcoded_failure(self):
        """Fig. 5's artifact from the buggy suite and from fault injection
        against the fixed suite must be indistinguishable."""
        hardcoded = run_fig5()
        injected = run_fig5_chaos()
        assert hardcoded.run_failed and injected.run_failed
        assert injected.failing_tests == hardcoded.failing_tests
        assert injected.tests == hardcoded.tests

    def test_fixed_suite_passes_every_test(self):
        """Without the injection the fixed suite is green, so chaos fig5's
        failure comes from the fault layer, not from the suite."""
        from repro.suites import run_suite

        suite_run = run_suite("fig5", files_kwargs={"fixed": True})
        assert suite_run.status == "success"
        (result,) = suite_run.results
        assert result.status == "ok"
        assert len(result.parsed) == 8
        assert all(
            outcome == "PASSED" for outcome, _ in result.parsed.values()
        )

    def test_without_injection_the_fixed_suite_passes(self):
        from repro.apps.psij.suite import PSIJ_SUITE_FIXED
        from repro.experiments.fig5_psij import inject_failure_plan

        # the plan targets exactly the test the paper's bug broke
        plan = inject_failure_plan()
        fault = plan.faults[0]
        assert fault.test_name == "test_batch_attributes"
        assert any(
            case.name == fault.test_name for case in PSIJ_SUITE_FIXED.cases
        )
