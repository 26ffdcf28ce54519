"""The overload-protection plane: admission, AIMD, budgets, determinism."""

import random

import pytest

from repro.durability.journal import Journal
from repro.errors import AdmissionRejected, is_retryable
from repro.experiments import common
from repro.experiments.overload import (
    OVERLOAD_RETRY,
    OverloadParams,
    format_overload_report,
    generate_workload,
    overload_config,
    run_overload,
    run_overload_comparison,
)
from repro.faas.client import ComputeClient
from repro.faas.overload import (
    PRIORITY_BATCH,
    PRIORITY_NORMAL,
    AIMDLimiter,
    OverloadConfig,
    RetryBudget,
    SlidingCounter,
)
from repro.faults.profiles import OVERLOAD_SITE
from repro.faults.resilience import RetryPolicy
from repro.hub.quotas import QuotaRegistry, TenantQuota
from repro.telemetry.slo import overload_slo_pack
from repro.world import World

# small enough to run in well under a second, large enough to overload
# a 2-endpoint pool (hot tenant still offers 8x fair share)
QUICK = OverloadParams(tenants=2, endpoints=2, horizon=300.0, seed=11)


class TestQuotaRegistry:
    def test_rate_bucket_enforces_burst_then_refills(self):
        registry = QuotaRegistry(TenantQuota(rate=1.0, burst=2.0))
        assert registry.check("a", 0.0) == ""
        assert registry.check("a", 0.0) == ""
        assert registry.check("a", 0.0) == "quota-rate"
        # one virtual second refills one token
        assert registry.check("a", 1.0) == ""

    def test_inflight_cap_binds_and_releases(self):
        registry = QuotaRegistry(TenantQuota(max_inflight=2))
        registry.bind("a")
        registry.bind("a")
        assert registry.check("a", 0.0) == "quota-inflight"
        registry.release("a")
        assert registry.check("a", 0.0) == ""

    def test_inflight_verdict_does_not_drain_the_rate_bucket(self):
        registry = QuotaRegistry(TenantQuota(rate=1.0, burst=1.0, max_inflight=1))
        registry.bind("a")
        assert registry.check("a", 0.0) == "quota-inflight"
        registry.release("a")
        # the bucket still holds its only token
        assert registry.check("a", 0.0) == ""

    def test_tenants_are_isolated(self):
        registry = QuotaRegistry(TenantQuota(rate=1.0, burst=1.0))
        assert registry.check("a", 0.0) == ""
        assert registry.check("a", 0.0) == "quota-rate"
        assert registry.check("b", 0.0) == ""


class TestSlidingCounter:
    def test_counts_within_window(self):
        counter = SlidingCounter(window=12.0)
        counter.add(0.0)
        counter.add(5.0, 2.0)
        assert counter.total(5.0) == pytest.approx(3.0)

    def test_old_buckets_expire(self):
        counter = SlidingCounter(window=12.0)
        counter.add(0.0)
        assert counter.total(11.0) == pytest.approx(1.0)
        assert counter.total(24.0) == pytest.approx(0.0)


class TestRetryBudget:
    def test_global_budget_denies_past_ratio(self):
        budget = RetryBudget(ratio=0.5, tenant_ratio=0.0)
        for _ in range(4):
            budget.record_attempt("a", 0.0)
        assert budget.check("a", 0.0) is None
        budget.record_retry("a", 0.0)
        assert budget.check("a", 0.0) is None
        budget.record_retry("a", 0.0)
        assert budget.check("a", 0.0) == "global"

    def test_tenant_budget_scopes_to_the_offender(self):
        budget = RetryBudget(ratio=0.0, tenant_ratio=1.0)
        budget.record_attempt("hot", 0.0)
        budget.record_attempt("calm", 0.0)
        budget.record_retry("hot", 0.0)
        assert budget.check("hot", 0.0) == "tenant"
        assert budget.check("calm", 0.0) is None


class TestAIMDLimiter:
    def test_admission_bounded_by_limit(self):
        limiter = AIMDLimiter(initial=2.0, min_limit=1.0, max_limit=8.0)
        limiter.acquire()
        limiter.acquire()
        assert not limiter.try_admit()
        limiter.release()
        assert limiter.try_admit()

    def test_additive_increase_after_a_limit_of_successes(self):
        limiter = AIMDLimiter(initial=2.0, min_limit=1.0, max_limit=8.0)
        limiter.on_success(0.0)
        assert limiter.limit == pytest.approx(2.0)
        limiter.on_success(0.0)
        assert limiter.limit == pytest.approx(3.0)

    def test_backoff_halves_and_respects_cooldown(self):
        limiter = AIMDLimiter(
            initial=8.0, min_limit=1.0, max_limit=8.0, cooldown=30.0
        )
        assert limiter.back_off(0.0)
        assert limiter.limit == pytest.approx(4.0)
        assert not limiter.back_off(10.0)  # cooling down
        assert limiter.limit == pytest.approx(4.0)
        assert limiter.back_off(31.0)
        assert limiter.limit == pytest.approx(2.0)


def _work(fctx, seconds):
    fctx.handle.compute(seconds)
    return seconds


class TestAdmissionRejection:
    def test_typed_and_retryable(self):
        error = AdmissionRejected("no capacity", reason="shed")
        assert is_retryable(error)
        assert error.reason == "shed"

    def test_rejected_submission_resolves_future_to_typed_error(self):
        from repro.experiments import common
        from repro.faas.client import ComputeClient

        world = World(
            overload=OverloadConfig(tenant_max_inflight=1),
            placement_policy="least-loaded",
        )
        user = world.register_user("t", {"chameleon": "x-t"})
        common.deploy_site_mep_pool(world, "chameleon", size=1)
        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        fn = client.register_function(_work, "w")
        first = client.submit("chameleon", fn, 10.0)
        second = client.submit("chameleon", fn, 10.0)
        world.clock.run_until_idle()
        assert first.result() == 10.0
        with pytest.raises(AdmissionRejected) as err:
            second.result()
        assert err.value.reason == "quota-inflight"


class TestAdmissionAccounting:
    def test_admitted_plus_rejected_is_offered_at_2x(self):
        # arrivals scheduled in virtual time at twice the pool's service
        # rate: every offered task is either admitted or rejected
        from repro.experiments import common
        from repro.faas.client import ComputeClient

        tenants, endpoints, offered, mean = 2, 2, 300, 2.0
        shape = OverloadParams(
            tenants=tenants, endpoints=endpoints, seed=0,
            mean_seconds=mean, offered_utilization=2.0,
        )
        world = World(
            overload=overload_config(shape), placement_policy="least-loaded"
        )
        common.deploy_site_mep_pool(world, "chameleon", size=endpoints)
        rate = 2.0 * (endpoints / mean) / tenants
        futures = []
        for tenant in range(tenants):
            login = f"t{tenant}"
            user = world.register_user(login, {"chameleon": f"x-{login}"})
            client = ComputeClient(
                world.faas, user.client_id, user.client_secret
            )
            fn = client.register_function(_work, f"w{tenant}")
            rng = random.Random(tenant)
            t = 0.0
            for _ in range(offered // tenants):
                t += rng.expovariate(rate)
                duration = mean * (0.5 + rng.random())
                world.clock.call_after(
                    t,
                    lambda c=client, f=fn, d=duration: futures.append(
                        c.submit("chameleon", f, d)
                    ),
                )
        world.clock.run_until_idle()
        stats = world.faas.overload.stats
        assert len(futures) == offered
        assert all(f.done() for f in futures)
        assert stats.rejected > 0
        assert stats.admitted + stats.rejected == offered


class TestDeterminism:
    def test_default_world_has_no_overload_plane(self):
        world = World()
        assert world.faas.overload is None

    def test_same_seed_reports_are_byte_identical(self):
        first = format_overload_report(run_overload_comparison(QUICK))
        second = format_overload_report(run_overload_comparison(QUICK))
        assert first == second

    def test_every_generated_arrival_is_submitted(self):
        # regression: deep nested-measure chains under overload used to
        # exhaust the recursion limit inside the event heap and silently
        # drop scheduled submissions
        result = run_overload(QUICK, protection=False)
        assert result.submitted == len(generate_workload(QUICK))

    def test_workload_generation_is_deterministic(self):
        assert generate_workload(QUICK) == generate_workload(QUICK)
        tenants = {a.tenant for a in generate_workload(QUICK)}
        assert tenants == {0, 1}


class TestOpenLoopTracing:
    def test_every_arrival_starts_its_own_trace(self):
        # arrivals fire from clock events, often inside another task's
        # measured body; none may parent under that body's node span,
        # or brownout's sampler (consulted per trace root) never sees it
        result = run_overload(QUICK)
        tasks = result.world.tracer.find(kind="task")
        assert len(tasks) == result.stats.admitted + result.stats.rejected
        assert [span for span in tasks if span.parent_id] == []


class TestShedReplay:
    PARAMS = OverloadParams(
        tenants=2, endpoints=2, horizon=300.0, seed=3, profile="none"
    )
    TIGHT = OverloadConfig(
        shed_watermarks={PRIORITY_BATCH: 2, PRIORITY_NORMAL: 4},
        aimd_initial=4.0,
        aimd_min=2.0,
        aimd_max=8.0,
    )

    def _run(self, journal=None, resume_from=None):
        """The fault-free overload workload (``run_overload``'s world)
        under a tight shedding config, journaled to ``journal`` or
        resumed from ``resume_from``; returns the plane's stats."""
        params = self.PARAMS
        world = World(
            telemetry=True,
            streaming_metrics=True,
            retry_policy=RetryPolicy(seed=params.seed, **OVERLOAD_RETRY),
            offline_policy="queue",
            placement_policy="least-loaded",
            overload=self.TIGHT,
        )
        world.enable_observability(rules=overload_slo_pack())
        if journal is not None:
            world.attach_journal(journal)
        clients = []
        for index in range(params.tenants):
            login = f"tenant-{index}"
            user = world.register_user(login, {OVERLOAD_SITE: f"x-{login}"})
            clients.append(
                ComputeClient(world.faas, user.client_id, user.client_secret)
            )
        common.deploy_site_mep_pool(world, OVERLOAD_SITE, size=params.endpoints)
        if resume_from is not None:
            world.resume_from(resume_from)
        function_ids = [
            client.register_function(common.virtual_work, f"overload-work-{index}")
            for index, client in enumerate(clients)
        ]
        common.run_open_loop(
            world,
            generate_workload(params),
            lambda a: clients[a.tenant].submit(
                OVERLOAD_SITE, function_ids[a.tenant], a.duration,
                timeout=params.deadline, priority=a.priority,
            ),
        )
        return world.faas.overload.stats

    def test_shed_counts_reproduce_across_journal_replay(self):
        journal = Journal()
        live = self._run(journal=journal)
        journal.flush()
        replayed = self._run(resume_from=journal)
        assert live.shed > 0
        assert replayed.shed == live.shed
        assert replayed.rejected == live.rejected


class TestCLI:
    def test_overload_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["overload", "fig4", "--tenants", "3", "--profile", "none"]
        )
        assert args.command == "overload"
        assert args.tenants == 3
        assert args.profile == "none"
