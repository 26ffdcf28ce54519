"""End-to-end crash/recovery: the Fig. 4 run under coordinator crashes.

The acceptance criteria for the durability layer, verified on the real
experiment harness:

* attaching a journal must not perturb the run (byte-identical rendered
  outputs with and without durability);
* crash-then-resume at every named crash point reproduces the
  uninterrupted run byte-for-byte, with a clean idempotency-key audit
  (no journaled-complete task body re-executes);
* crashing after a workflow ``run:`` step finished exercises the engine
  -level step replay path.
"""

import pytest

from repro.experiments.recovery import (
    CRASH_POINT_NAMES,
    _execute,
    _prepare,
    _recover_one,
    _render_outputs,
    crash_points_of,
    format_recovery_report,
    run_fig4_recovery,
    run_fig4_recovery_sweep,
)
from repro.suites import execute_suite


@pytest.fixture(scope="module")
def baseline():
    """One uninterrupted journaled run, shared by every crash test."""
    world, run, journal, crashed = _execute(telemetry=False)
    assert not crashed
    return world, run, journal, _render_outputs(world, run)


class TestJournalIsInvisible:
    def test_journaled_run_matches_unjournaled_run(self, baseline):
        _, _, _, journaled_output = baseline
        prepared = _prepare(telemetry=False)
        run = execute_suite(prepared, crash_ok=True).run
        world = prepared.world
        assert world.journal is None
        assert _render_outputs(world, run) == journaled_output


class TestCrashResume:
    def test_sweep_recovers_identically_at_every_point(self):
        results = run_fig4_recovery_sweep(telemetry=False)
        assert [r.crash_label for r in results] == list(CRASH_POINT_NAMES)
        for r in results:
            assert r.run_status == "success"
            assert r.identical, f"{r.crash_label} diverged"
            assert r.double_executed == [], (
                f"{r.crash_label} re-executed journaled tasks: "
                f"{r.double_executed}"
            )
            assert r.ok
        # later crash points have more journaled completions to replay
        by_label = {r.crash_label: r for r in results}
        assert by_label["mid-dispatch"].replayed_tasks == 0
        assert by_label["mid-execute"].replayed_tasks >= 1
        assert by_label["between-waves"].replayed_tasks >= 1
        assert by_label["after-last"].replayed_tasks >= 1
        assert (
            by_label["after-last"].replayed_tasks
            >= by_label["mid-execute"].replayed_tasks
        )
        report = format_recovery_report(results)
        assert "byte-identical to baseline: yes" in report
        assert "audit=clean" in report
        assert "DIVERGED" not in report

    def test_single_point_entrypoint(self):
        result = run_fig4_recovery(crash_at="mid-execute", telemetry=False)
        assert result.ok
        assert result.replayed_tasks >= 1

    def test_crash_after_run_step_replays_the_step(self, baseline):
        _, _, journal, baseline_output = baseline
        # crash right after the summarize wave's plain ``run:`` step
        # finished: resume must replay it from the journal, not re-run it
        step_finished = [
            i for i, r in enumerate(journal.records, start=1)
            if r.kind == "step.finished"
            and r.data.get("step_kind") == "run"
        ]
        assert step_finished, "baseline journal has no plain run: steps"
        result = _recover_one(
            step_finished[-1], journal, baseline_output,
            seed=0, telemetry=False,
        )
        assert result.ok
        assert result.replayed_steps >= 1
        assert result.replayed_tasks >= 1

    def test_crash_points_are_distinct_lifecycle_moments(self, baseline):
        _, _, journal, _ = baseline
        points = crash_points_of(journal)
        assert set(points) == set(CRASH_POINT_NAMES)
        assert (
            points["mid-dispatch"]
            < points["mid-execute"]
            < points["between-waves"]
        )

    def test_resumed_crate_records_recovery_provenance(self):
        result = run_fig4_recovery(crash_at="after-last", telemetry=False)
        world = result.resumed_world
        assert world.resumed_from  # journal head hash of the crashed run
        assert world.crash_point == result.crash_record
        resumed_events = [e for e in world.events if e.kind == "run.resumed"]
        assert len(resumed_events) == 1
        assert resumed_events[0].data["journal_head"] == world.resumed_from
