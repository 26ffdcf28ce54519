"""The fail-slow plane: detection, hedging, cancellation, determinism."""

import math

import pytest

from repro.errors import TaskCancelled
from repro.experiments import common
from repro.experiments.hedging import (
    HedgingParams,
    format_hedging_report,
    run_failslow,
    run_fig4_failslow,
)
from repro.faas.client import ComputeClient
from repro.faas.hedging import HedgeConfig, StragglerDetector
from repro.faas.placement import EndpointPool, Router
from repro.faas.task import TaskState
from repro.faults.plan import FaultPlan, PerfDegradation
from repro.telemetry import HealthScorer, TimeSeriesStore
from repro.util.clock import SimClock
from repro.world import World


def _drain(world: World) -> None:
    while world.clock.next_event_time() is not None:
        world.clock.run_until(world.clock.next_event_time())


def _compute(fctx, seconds: float) -> float:
    fctx.handle.compute(seconds)
    return seconds


def _cloud_client(world: World, site: str = "chameleon"):
    user = world.register_user("alice", {site: "cc"})
    mep = common.deploy_site_mep(world, site)
    client = ComputeClient(world.faas, user.client_id, user.client_secret)
    return client, mep.endpoint_id, user


class TestFutureCancel:
    def test_plain_future_cancel_resolves_with_task_cancelled(self):
        from repro.faas.future import Future

        future = Future(SimClock())
        assert future.cancel() is True
        assert future.cancelled()
        with pytest.raises(TaskCancelled):
            future.result()

    def test_cancel_after_resolution_is_refused(self):
        from repro.faas.future import Future

        future = Future(SimClock())
        future.set_result(42)
        assert future.cancel() is False
        assert not future.cancelled()
        assert future.result() == 42

    def test_task_cancel_reaches_terminal_state(self):
        world = World()
        client, eid, _ = _cloud_client(world)
        fid = client.register_function(_compute, "compute")
        future = client.submit(eid, fid, 30.0)
        # cancel while the dispatch event is still on the wire
        assert future.cancel() is True
        assert future.task.state is TaskState.CANCELLED
        assert future.cancelled()
        _drain(world)
        # the in-flight dispatch arrival must not resurrect the task:
        # a terminal (or retracted) entry is dropped at arrive()
        assert future.task.state is TaskState.CANCELLED
        cancelled = world.events.query("faas", "task.cancelled")
        assert len(cancelled) == 1
        assert not world.events.query("faas", "task.completed")

    def test_cancel_settles_before_the_freed_lane_runs_the_next_task(self):
        # A runs on a warm block with a 15 s deadline and B queues behind
        # it; cancelling A frees the lane, and B's 100 s body then runs
        # the clock past A's deadline, so A must be settled before it
        world = World()
        client, eid, _ = _cloud_client(world)
        fid = client.register_function(_compute, "compute")
        assert client.submit(eid, fid, 1.0).result() == 1.0  # warm the block
        a = client.submit(eid, fid, 10.0, timeout=15)
        b = client.submit(eid, fid, 100.0)
        seen = {}

        def cancel_a():
            assert a.task.state is TaskState.RUNNING
            seen["cancelled"] = a.cancel()
            seen["load"] = [world.faas.load(eid)]
            world.clock.call_after(
                50.0, lambda: seen["load"].append(world.faas.load(eid))
            )

        world.clock.call_after(4.0, cancel_a)
        assert b.result() == 100.0
        assert seen == {"cancelled": True, "load": [1, 1]}
        terminal = [
            e.kind for e in world.events
            if e.data.get("task_id") == a.task_id
            and e.kind in ("task.cancelled", "task.completed")
        ]
        assert terminal == ["task.cancelled"]
        assert a.task.state is TaskState.CANCELLED
        assert a.cancelled()
        assert world.faas.resilience.timeouts == 0
        assert not world.events.query("faas", "task.timeout")

    def test_cancel_terminal_task_returns_false(self):
        world = World()
        client, eid, _ = _cloud_client(world)
        fid = client.register_function(_compute, "compute")
        future = client.submit(eid, fid, 1.0)
        assert future.result() == 1.0
        assert future.cancel() is False
        assert future.task.state is TaskState.SUCCESS


class TestPerfDegradation:
    def _run(self, plan):
        world = World(faults=plan)
        client, eid, _ = _cloud_client(world)
        fid = client.register_function(_compute, "compute")
        if plan is not None:
            world.arm_faults()
        future = client.submit(eid, fid, 10.0)
        assert future.result() == 10.0
        task = future.task
        return world, task.completed_at - task.started_at

    def test_degraded_window_stretches_service_time(self):
        baseline_world, baseline = self._run(None)
        plan = FaultPlan(seed=1).add(
            PerfDegradation(
                at=0.0, site="chameleon", duration=500.0, multiplier=4.0,
            )
        )
        degraded_world, stretched = self._run(plan)
        assert stretched == pytest.approx(4.0 * baseline, rel=1e-6)
        # fail-slow is silent: the task succeeded, nothing retried
        assert not degraded_world.events.query("faas", "task.retry")
        assert degraded_world.events.query("fault", "perf.degraded")

    def test_multiplier_restores_after_the_window(self):
        from repro.faults.injector import injector_of

        plan = FaultPlan(seed=1).add(
            PerfDegradation(
                at=5.0, site="chameleon", duration=20.0, multiplier=3.0,
            )
        )
        world = World(faults=plan)
        _, eid, _ = _cloud_client(world)
        world.arm_faults()
        injector = injector_of(world.clock)
        assert injector.service_multiplier(eid) == 1.0
        world.clock.run_until(10.0)
        assert injector.service_multiplier(eid) == 3.0
        world.clock.run_until(30.0)
        assert injector.service_multiplier(eid) == 1.0


class TestStragglerDetector:
    def _loaded(self):
        detector = StragglerDetector(
            window=600.0, flag_ratio=2.0, min_samples=5
        )
        for i in range(6):
            detector.record("gray", 40.0, float(i))
            detector.record("b", 10.0, float(i))
            detector.record("c", 10.0, float(i))
        return detector

    def test_divergent_member_is_flagged(self):
        detector = self._loaded()
        assert detector.flagged("gray", 10.0)
        assert not detector.flagged("b", 10.0)
        assert detector.ratio("gray", 10.0) == pytest.approx(4.0)

    def test_gray_score_is_clamped_and_relative(self):
        detector = self._loaded()
        assert detector.gray_score("gray", 10.0) == 1.0
        assert detector.gray_score("b", 10.0) == 0.0
        # unseen endpoints have no evidence: not gray
        assert detector.gray_score("new", 10.0) == 0.0

    def test_uniformly_slow_pool_is_not_gray(self):
        detector = StragglerDetector(min_samples=2)
        for i in range(4):
            detector.record("a", 50.0, float(i))
            detector.record("b", 50.0, float(i))
        assert not detector.flagged("a", 5.0)
        assert detector.gray_score("a", 5.0) == 0.0

    def test_window_pruning_forgets_old_samples(self):
        detector = StragglerDetector(window=100.0, min_samples=3)
        for i in range(5):
            detector.record("a", 10.0, float(i))
        assert detector.p95("a", 50.0) is not None
        assert detector.p95("a", 500.0) is None

    def test_repeated_gray_read_reuses_the_score(self):
        detector = self._loaded()
        ratios = []
        ratio = detector.ratio
        detector.ratio = lambda *args: ratios.append(args) or ratio(*args)
        assert detector.gray_score("gray", 10.0) == 1.0
        assert detector.gray_score("gray", 20.0) == 1.0  # nothing popped
        assert len(ratios) == 1
        detector.record("b", 10.0, 20.0)
        assert detector.gray_score("gray", 20.0) == 1.0
        assert len(ratios) == 2
        # the first samples leave the 600 s window at 600.5 s: a pop
        assert detector.gray_score("gray", 600.5) == 1.0
        assert len(ratios) == 3

    def test_pool_median_is_computed_once_per_change(self):
        detector = self._loaded()
        p95s = []
        p95 = detector.p95
        detector.p95 = lambda *args: p95s.append(args) or p95(*args)
        assert detector.pool_median(10.0) == 10.0
        assert detector.pool_median(10.0) == 10.0
        assert detector.ratio("gray", 10.0) == pytest.approx(4.0)
        detector.record("gray", 40.0, 11.0)
        detector.record("c", 40.0, 11.0)
        detector.record("c", 40.0, 11.0)
        assert detector.pool_median(11.0) == 40.0
        # the median reads the windows directly: only ratio() calls p95
        assert p95s == [("gray", 10.0)]

    def test_every_gray_read_prunes_every_window(self):
        detector = self._loaded()
        detector.record("d", 10.0, 300.0)
        detector.gray_score("gray", 10.0)
        for now in (400.0, 650.0, 1000.0, 2000.0):
            detector.gray_score("gray", now)
            floor = now - detector.window
            for samples in detector._samples.values():
                assert all(at >= floor for at, _ in samples.arrivals)
                assert len(samples.ordered) == len(samples.arrivals)
        assert detector.gray_score("gray", 2000.0) == 0.0

    def test_flag_ratio_must_exceed_one(self):
        with pytest.raises(ValueError):
            StragglerDetector(flag_ratio=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("window", 0.0),
            ("window", -5.0),
            ("window", math.inf),
            ("window", math.nan),
            ("flag_ratio", math.nan),
            ("flag_ratio", math.inf),
            ("min_samples", 0),
        ],
    )
    def test_bad_value_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            StragglerDetector(**{field: value})


class TestGrayHealthRouting:
    def test_gray_score_scales_health(self):
        scorer = HealthScorer(TimeSeriesStore(window=60.0))
        assert scorer.score("e", 100.0) == 1.0
        scorer.gray_of = lambda endpoint, now: 0.75
        assert scorer.score("e", 100.0) == pytest.approx(0.25)

    def test_degraded_member_stops_winning_ties(self):
        # registration order favors "gray"; equal depth everywhere
        depths = {"gray": 1, "b": 1, "c": 1}
        health = {"gray": 0.0, "b": 1.0, "c": 1.0}
        router = Router(
            queue_depth=lambda eid: depths[eid],
            admissible=lambda eid: True,
            weight_of=lambda eid: 1.0,
            policy="least-loaded",
            health_of=health.get,
        )
        pool = EndpointPool(name="p", site="s")
        for eid in ("gray", "b", "c"):
            pool.add(eid)
        router.register_pool(pool)
        assert router.resolve("p").endpoint_id == "b"


QUICK = HedgingParams()


@pytest.fixture(scope="module")
def comparison():
    return run_fig4_failslow(QUICK)


class TestFailSlowComparison:
    def test_p99_cut_meets_the_gate(self, comparison):
        assert comparison.hedged.p99 < comparison.unhedged.p99
        assert comparison.p99_cut >= 0.30

    def test_wasted_work_is_bounded(self, comparison):
        assert comparison.hedged.hedge.wasted_ratio() <= 0.10

    def test_hedges_fire_and_win(self, comparison):
        on = comparison.hedged.hedge
        assert on.hedges_launched > 0
        assert on.hedges_won > 0
        assert on.stragglers_flagged >= 1
        off = comparison.unhedged
        assert off.hedge.hedges_launched == 0
        assert off.world.faas.hedging is None

    def test_fault_free_run_is_quiescent(self, comparison):
        quiet = comparison.fault_free.hedge
        assert quiet.hedges_launched == 0
        assert quiet.wasted_seconds == 0.0
        assert quiet.stragglers_flagged == 0

    def test_exactly_once_audit_is_clean(self, comparison):
        for run in (
            comparison.unhedged, comparison.hedged, comparison.fault_free
        ):
            assert run.double_resolutions == 0
            assert run.unresolved_futures == 0
            assert run.completed == run.submitted

    def test_hedge_win_carries_provenance_on_the_task(self, comparison):
        world = comparison.hedged.world
        first = world.events.query(source="faas", kind="task.submitted")[0]
        user_urn = world.faas.get_task(first.data["task_id"]).identity_urn
        winners = [
            t for t in world.faas.tasks_for(user_urn)
            if getattr(t, "hedge_won", False)
        ]
        assert len(winners) == comparison.hedged.hedge.hedges_won
        for task in winners:
            assert task.hedged
            assert task.loser_endpoint
            assert task.loser_endpoint != task.endpoint_id
            assert task.state is TaskState.SUCCESS

    def test_same_seed_replays_the_same_defended_run(self, comparison):
        replay = run_failslow(QUICK, hedged=True)
        hedged = comparison.hedged
        assert (replay.p50, replay.p95, replay.p99) == (
            hedged.p50, hedged.p95, hedged.p99
        )
        assert replay.hedge.hedges_launched == hedged.hedge.hedges_launched
        assert replay.hedge.hedges_won == hedged.hedge.hedges_won
        assert replay.hedge.wasted_seconds == hedged.hedge.wasted_seconds
        first = [
            (e.time, e.kind) for e in hedged.world.events.query("faas")
        ]
        second = [
            (e.time, e.kind) for e in replay.world.events.query("faas")
        ]
        assert first == second

    def test_report_is_deterministic_text(self, comparison):
        report = format_hedging_report(comparison)
        assert "p99 cut:" in report
        assert "hedges on fault-free run: 0" in report
        assert "double resolutions: 0" in report


class TestHedgeConfigOffByDefault:
    def test_world_without_config_has_no_controller(self):
        world = World()
        assert world.faas.hedging is None

    def test_world_with_config_builds_controller(self):
        world = World(hedge=HedgeConfig())
        assert world.faas.hedging is not None
        assert world.faas.hedging.config.factor == 1.5


def _pool_client(world: World, size: int = 3):
    user = world.register_user("alice", {"chameleon": "cc"})
    common.deploy_site_mep_pool(world, "chameleon", size)
    client = ComputeClient(world.faas, user.client_id, user.client_secret)
    return client, client.register_function(_compute, "compute")


class TestHedgeConfigValidation:
    # accepted, each of these would raise out of the drain at the first
    # dispatch or silently keep the plane from hedging
    @pytest.mark.parametrize(
        "field, value",
        [
            ("quantile", 0.0),
            ("quantile", 150.0),
            ("quantile", math.nan),
            ("factor", -1.0),
            ("factor", math.nan),
            ("min_samples", 0),
            ("min_deadline", -1.0),
            ("min_deadline", math.inf),
            ("window", 0.0),
            ("window", math.nan),
            ("detector_window", 0.0),
            ("detector_window", math.inf),
            ("detector_min_samples", 0),
            ("flag_ratio", 1.0),
            ("flag_ratio", math.nan),
            ("flag_ratio", math.inf),
        ],
    )
    def test_bad_value_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            HedgeConfig(**{field: value})

    def test_smallest_legal_values_drain_a_pool(self):
        config = HedgeConfig(
            quantile=100.0, min_samples=1, min_deadline=0.0,
            detector_min_samples=1,
        )
        world = World(placement_policy="least-loaded", hedge=config)
        client, fid = _pool_client(world)
        futures = [client.submit("chameleon", fid, 2.0) for _ in range(6)]
        world.clock.run_until_idle()
        assert [f.result() for f in futures] == [2.0] * 6


class TestDeadDeadlineChecks:
    """A deadline check that can never act is dropped, not deferred."""

    @pytest.mark.parametrize("dead", ["terminal", "superseded", "hedged", None])
    def test_inside_a_measured_region(self, dead):
        world = World(placement_policy="least-loaded", hedge=HedgeConfig())
        client, fid = _pool_client(world)
        future = client.submit("chameleon", fid, 30.0)
        entry = world.faas._entries[future.task_id]
        generation = entry.attempt
        if dead == "terminal":
            entry.task.state = TaskState.SUCCESS
        elif dead == "superseded":
            entry.attempt += 1
        elif dead == "hedged":
            entry.task.hedged = True
        clock = world.clock
        with clock.measure():
            before = clock.pending_events()
            world.faas.hedging._deadline_fired(entry, generation, 30.0)
            scheduled = clock.pending_events() - before
        # a check that can still act keeps deferring to committed time
        assert scheduled == (0 if dead else 1)


class TestExecutionRecordHedgeProvenance:
    def test_hedge_fields_round_trip(self):
        from repro.provenance.record import ExecutionRecord

        record = ExecutionRecord(
            record_id="r1", run_id="manual", repo_slug="o/r",
            commit_sha="abc", site="chameleon", endpoint_id="winner",
            identity_urn="urn:u", function_name="f", command="f()",
            started_at=1.0, completed_at=2.0, exit_code=0,
            hedged=True, hedge_won=True, loser_endpoint="loser",
        )
        loaded = ExecutionRecord.from_json(record.to_json())
        assert loaded.hedged and loaded.hedge_won
        assert loaded.loser_endpoint == "loser"

    def test_hedge_fields_default_off(self):
        from repro.provenance.record import ExecutionRecord

        record = ExecutionRecord(
            record_id="r1", run_id="manual", repo_slug="o/r",
            commit_sha="abc", site="chameleon", endpoint_id="e",
            identity_urn="urn:u", function_name="f", command="f()",
            started_at=1.0, completed_at=2.0, exit_code=0,
        )
        assert not record.hedged
        assert not record.hedge_won
        assert record.loser_endpoint == ""


class TestHedgeCLI:
    def test_hedge_subcommand_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["hedge", "fig4", "--seed", "9", "--profile", "none"]
        )
        assert args.command == "hedge"
        assert args.seed == 9
        assert args.profile == "none"

    def test_chaos_accepts_fail_slow_profile(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["chaos", "fig4", "--profile", "fail-slow"]
        )
        assert args.profile == "fail-slow"
