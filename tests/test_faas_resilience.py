"""Integration: retries, timeouts, breakers, and failover under faults."""

import pytest

from repro.envs.stdlib import standard_index
from repro.errors import (
    CircuitOpen,
    EndpointOffline,
    TaskFailed,
    WalltimeExceeded,
)
from repro.executor.pilot import PilotExecutor
from repro.executor.providers import SlurmProvider
from repro.experiments import common
from repro.faas.client import ComputeClient
from repro.faas.future import Future
from repro.faas.hedging import HedgeConfig
from repro.faas.task import TaskState
from repro.faults.plan import FaultPlan, PerfDegradation, TaskError
from repro.faults.resilience import BreakerPolicy, RetryPolicy
from repro.sites.catalog import make_faster
from repro.util.clock import SimClock
from repro.world import World


def make_world(**kwargs) -> World:
    """A quiet world (no background queue load) with resilience knobs."""
    world = World(**kwargs)
    original = world.site

    def site_no_load(name, background_load=False):
        return original(name, background_load=background_load)

    world.site = site_no_load  # type: ignore[method-assign]
    return world


def cloud_endpoint(world: World, site: str = "chameleon", account: str = "cc"):
    user = world.register_user("alice", {site: account})
    mep = common.deploy_site_mep(world, site)
    client = ComputeClient(world.faas, user.client_id, user.client_secret)
    return client, mep.endpoint_id


def _quick(fctx):
    fctx.handle.compute(1.0)
    return 42


def _slow(fctx):
    fctx.handle.compute(30.0)
    return "slow done"


def _drain(world: World) -> None:
    while world.clock.next_event_time() is not None:
        world.clock.run_until(world.clock.next_event_time())


class TestRetries:
    def test_injected_transient_error_retried_to_success(self):
        world = make_world(
            retry_policy=RetryPolicy(max_attempts=3, base_delay=2.0, seed=1)
        )
        plan = FaultPlan(seed=1).add(
            TaskError(at=0.0, site="chameleon", count=1, transient=True)
        )
        world.install_faults(plan)
        client, eid = cloud_endpoint(world)
        world.arm_faults()
        fid = client.register_function(_quick, "quick")
        future = client.submit(eid, fid)
        assert future.result() == 42
        task = world.faas.get_task(future.task_id)
        assert task.attempts == 2
        summary = world.faas.resilience.summary()
        assert summary["retries"] == 1
        assert summary["by_error"] == {"InjectedTransientError": 1}

    def test_injected_permanent_error_is_not_retried(self):
        world = make_world(
            retry_policy=RetryPolicy(max_attempts=3, base_delay=2.0, seed=1)
        )
        plan = FaultPlan(seed=1).add(
            TaskError(at=0.0, site="chameleon", count=1, transient=False)
        )
        world.install_faults(plan)
        client, eid = cloud_endpoint(world)
        world.arm_faults()
        fid = client.register_function(_quick, "quick")
        future = client.submit(eid, fid)
        error = future.exception()
        assert isinstance(error, TaskFailed) and not error.retryable
        assert world.faas.get_task(future.task_id).attempts == 1
        assert world.faas.resilience.summary()["retries"] == 0

    def test_retry_and_backoff_events_feed_the_metrics_bridge(self):
        world = make_world(
            retry_policy=RetryPolicy(max_attempts=3, base_delay=2.0, seed=1)
        )
        plan = FaultPlan(seed=1).add(
            TaskError(at=0.0, site="chameleon", count=1, transient=True)
        )
        world.install_faults(plan)
        client, eid = cloud_endpoint(world)
        world.arm_faults()
        fid = client.register_function(_quick, "quick")
        client.submit(eid, fid).result()
        retries = world.metrics.counter("faas.task.retries", endpoint=eid)
        assert retries.value == 1
        backoff = world.metrics.histogram("faas.retry.backoff", endpoint=eid)
        assert backoff.count == 1 and backoff.mean >= 2.0
        injected = world.metrics.counter(
            "faults.injected", kind="task_error.injected"
        )
        assert injected.value == 1


class TestOfflinePolicies:
    def test_default_policy_rejects_at_the_front_door(self):
        world = make_world()
        client, eid = cloud_endpoint(world)
        world.faas.endpoint(eid).online = False
        fid = client.register_function(_quick, "quick")
        with pytest.raises(EndpointOffline, match="is offline"):
            client.submit(eid, fid)

    def test_fail_policy_returns_an_already_failed_future(self):
        world = make_world(
            offline_policy="fail",
            retry_policy=RetryPolicy(max_attempts=5, seed=0),
        )
        client, eid = cloud_endpoint(world)
        world.faas.endpoint(eid).online = False
        fid = client.register_function(_quick, "quick")
        future = client.submit(eid, fid)
        assert future.done()  # resolved without driving the clock
        error = future.exception()
        assert isinstance(error, TaskFailed) and error.retryable
        assert "offline at submit" in error.remote_traceback
        # the fail policy bypasses the retry loop entirely
        assert world.faas.resilience.summary()["retries"] == 0

    def test_queue_policy_retries_until_the_endpoint_returns(self):
        world = make_world(
            offline_policy="queue",
            retry_policy=RetryPolicy(max_attempts=5, base_delay=4.0, seed=2),
        )
        client, eid = cloud_endpoint(world)
        endpoint = world.faas.endpoint(eid)
        endpoint.online = False
        world.clock.call_after(
            10.0, lambda: setattr(endpoint, "online", True)
        )
        fid = client.register_function(_quick, "quick")
        future = client.submit(eid, fid)
        assert future.result() == 42
        task = world.faas.get_task(future.task_id)
        assert task.attempts > 1
        assert world.faas.resilience.summary()["by_error"] == {
            "EndpointOffline": task.attempts - 1
        }

    def test_queue_policy_gives_up_when_the_endpoint_never_returns(self):
        world = make_world(
            offline_policy="queue",
            retry_policy=RetryPolicy(max_attempts=3, base_delay=1.0, seed=2),
        )
        client, eid = cloud_endpoint(world)
        world.faas.endpoint(eid).online = False
        fid = client.register_function(_quick, "quick")
        future = client.submit(eid, fid)
        error = future.exception()
        assert isinstance(error, TaskFailed) and error.retryable
        task = world.faas.get_task(future.task_id)
        assert task.attempts == 3
        summary = world.faas.resilience.summary()
        assert summary["retries"] == 2 and summary["give_ups"] == 1


class TestInflightAborts:
    def test_mid_task_abort_is_retried(self):
        world = make_world(
            retry_policy=RetryPolicy(max_attempts=3, base_delay=1.0, seed=1)
        )
        client, eid = cloud_endpoint(world)
        fid = client.register_function(_slow, "slow")
        future = client.submit(eid, fid)
        world.clock.call_after(
            5.0,
            lambda: world.faas.fail_inflight(
                eid, EndpointOffline("endpoint dropped mid-task")
            ),
        )
        assert future.result() == "slow done"
        task = world.faas.get_task(future.task_id)
        assert task.attempts == 2
        assert world.faas.resilience.summary()["retries"] == 1

    def test_doomed_attempts_completion_is_discarded(self):
        """The aborted attempt's own completion event must not re-resolve
        the task after the retry already did (generation guard)."""
        world = make_world(
            retry_policy=RetryPolicy(max_attempts=3, base_delay=1.0, seed=1)
        )
        client, eid = cloud_endpoint(world)
        fid = client.register_function(_slow, "slow")
        future = client.submit(eid, fid)
        world.clock.call_after(
            5.0,
            lambda: world.faas.fail_inflight(
                eid, EndpointOffline("endpoint dropped mid-task")
            ),
        )
        future.result()
        # the doomed first attempt's completion event is still queued;
        # draining it must neither re-resolve nor wedge the dispatcher
        _drain(world)
        task = world.faas.get_task(future.task_id)
        assert task.state is TaskState.SUCCESS and task.attempts == 2
        follow_up = client.submit(eid, client.register_function(_quick, "q2"))
        assert follow_up.result() == 42  # the lane is free again

    def test_fail_inflight_on_idle_lane_is_a_no_op(self):
        world = make_world()
        _, eid = cloud_endpoint(world)
        assert world.faas.fail_inflight(eid, EndpointOffline("x")) is None


class TestTimeouts:
    def test_deadline_fails_the_task_and_is_never_retried(self):
        world = make_world(
            retry_policy=RetryPolicy(max_attempts=5, base_delay=1.0, seed=0)
        )
        client, eid = cloud_endpoint(world)
        fid = client.register_function(_slow, "slow")
        future = client.submit(eid, fid, timeout=10.0)
        error = future.exception()
        assert isinstance(error, TaskFailed) and not error.retryable
        assert "deadline" in error.remote_traceback
        task = world.faas.get_task(future.task_id)
        assert task.state is TaskState.FAILED and task.attempts == 1
        summary = world.faas.resilience.summary()
        assert summary["timeouts"] == 1 and summary["retries"] == 0

    def test_task_faster_than_its_deadline_is_unaffected(self):
        world = make_world()
        client, eid = cloud_endpoint(world)
        fid = client.register_function(_quick, "quick")
        future = client.submit(eid, fid, timeout=500.0)
        assert future.result() == 42
        _drain(world)  # the stale deadline event fires on a terminal task
        assert (
            world.faas.get_task(future.task_id).state is TaskState.SUCCESS
        )
        assert world.faas.resilience.summary()["timeouts"] == 0


class TestBreakersAndFailover:
    def _two_site_world(self, **kwargs):
        world = make_world(**kwargs)
        user = world.register_user(
            "alice", {"chameleon": "cc", "faster": "x-alice"}
        )
        primary = common.deploy_site_mep(world, "faster", login_only=True)
        fallback = common.deploy_site_mep(world, "chameleon")
        client = ComputeClient(
            world.faas, user.client_id, user.client_secret
        )
        return world, client, primary.endpoint_id, fallback.endpoint_id

    def test_breaker_trips_then_retry_fails_over(self):
        world, client, primary, fallback = self._two_site_world(
            offline_policy="queue",
            retry_policy=RetryPolicy(max_attempts=4, base_delay=1.0, seed=3),
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout=3600.0),
        )
        world.faas.declare_fallback(primary, fallback)
        world.faas.endpoint(primary).online = False
        fid = client.register_function(_quick, "quick")
        future = client.submit(primary, fid)
        assert future.result() == 42  # completed on the fallback
        task = world.faas.get_task(future.task_id)
        assert task.endpoint_id == fallback
        assert task.original_endpoint_id == primary
        summary = world.faas.resilience.summary()
        assert summary["breaker_trips"] == 1
        assert summary["failovers"] == 1
        assert world.faas.breaker_for(primary).state == "open"

    def test_open_breaker_rejects_submit_without_fallback(self):
        world, client, primary, _ = self._two_site_world(
            offline_policy="queue",
            retry_policy=RetryPolicy(max_attempts=3, base_delay=1.0, seed=3),
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout=3600.0),
        )
        world.faas.endpoint(primary).online = False
        fid = client.register_function(_quick, "quick")
        client.submit(primary, fid).wait()  # exhausts retries, trips it
        assert world.faas.breaker_for(primary).state == "open"
        with pytest.raises(CircuitOpen, match="no healthy fallback"):
            client.submit(primary, fid)

    def test_open_breaker_reroutes_new_submits_to_fallback(self):
        world, client, primary, fallback = self._two_site_world(
            offline_policy="queue",
            retry_policy=RetryPolicy(max_attempts=3, base_delay=1.0, seed=3),
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout=3600.0),
        )
        world.faas.declare_fallback(primary, fallback)
        world.faas.endpoint(primary).online = False
        fid = client.register_function(_quick, "quick")
        client.submit(primary, fid).wait()  # trips the primary's breaker
        rerouted = client.submit(primary, fid)
        task = world.faas.get_task(rerouted.task_id)
        assert task.endpoint_id == fallback
        assert task.original_endpoint_id == primary
        assert rerouted.result() == 42
        transitions = world.metrics.counter(
            "faas.breaker.transitions", endpoint=primary, state="open"
        )
        assert transitions.value == 1

    def test_breaker_records_before_retry_decides(self):
        """The second failure opens the breaker before the retry stage
        runs, so that very retry fails over instead of burning a third
        attempt on the dead primary."""
        world, client, primary, fallback = self._two_site_world(
            offline_policy="queue",
            retry_policy=RetryPolicy(max_attempts=4, base_delay=1.0, seed=3),
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout=3600.0),
        )
        world.faas.declare_fallback(primary, fallback)
        world.faas.endpoint(primary).online = False
        fid = client.register_function(_quick, "quick")
        future = client.submit(primary, fid)
        assert future.result() == 42
        assert [
            event.kind for event in world.events
            if event.kind in ("task.retry", "breaker.open")
        ] == ["task.retry", "breaker.open", "task.retry"]
        task = world.faas.get_task(future.task_id)
        assert task.endpoint_id == fallback and task.attempts == 3


class TestChainOrder:
    """The outcome chain renews the lease and settles hedge races before
    the breaker records (``TestBreakersAndFailover`` pins breaker before
    retry)."""

    def test_lease_renews_before_breaker_closes(self):
        world = make_world(
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout=10.0)
        )
        world.install_faults(
            FaultPlan(seed=1).add(
                TaskError(at=0.0, site="chameleon", count=1, transient=True)
            )
        )
        client, eid = cloud_endpoint(world)
        world.faas.enable_leases(ttl=500.0)
        world.arm_faults()
        fid = client.register_function(_quick, "quick")
        assert isinstance(client.submit(eid, fid).exception(), TaskFailed)
        assert world.faas.breaker_for(eid).state == "open"
        world.clock.run_until(world.clock.now + 10.0)  # past the reset
        probe = client.submit(eid, fid)  # half-opens the breaker
        assert probe.result() == 42
        # the probe's dispatch heartbeat, its completion heartbeat, then
        # the breaker closing on that same completion
        half_open = world.events.last("breaker.half_open").time
        after_probe = [
            event.kind for event in world.events
            if event.time >= half_open
            and event.kind in ("lease.renewed", "breaker.close")
        ]
        assert after_probe == [
            "lease.renewed", "lease.renewed", "breaker.close",
        ]

    def test_losing_hedge_arm_never_reaches_the_breaker(self):
        world = make_world(
            placement_policy="least-loaded",
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout=3600.0),
            hedge=HedgeConfig(min_samples=2),
        )
        user = world.register_user("alice", {"chameleon": "cc"})
        members = [
            mep.endpoint_id
            for mep in common.deploy_site_mep_pool(world, "chameleon", 2)
        ]
        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        fid = client.register_function(common.virtual_work, "work")
        for warmup in [client.submit("chameleon", fid, 1.0) for _ in range(2)]:
            warmup.result()  # the pooled samples that arm hedging
        future = client.submit("chameleon", fid, 3.0)
        slow = future.task.endpoint_id
        # the routed member runs 10x slow, so its task is hedged; the
        # next execution after the primary's dispatch is the hedge arm,
        # and it fails. A fault's ``member`` counts sorted endpoint ids.
        world.install_faults(
            FaultPlan(seed=1)
            .add(
                PerfDegradation(
                    at=0.0, site="chameleon", duration=500.0,
                    multiplier=10.0, member=sorted(members).index(slow),
                )
            )
            .add(TaskError(at=5.0, site="chameleon", count=1, transient=True))
        )
        world.arm_faults()
        while not world.events.query("faas", "hedge.lost"):
            world.clock.run_until(world.clock.next_event_time())
        assert world.faas.breaker_for(slow).consecutive_failures == 0
        assert future.result() == 3.0
        assert not world.events.query("faas", "breaker.open")
        assert world.faas.get_task(future.task_id).endpoint_id == slow


class TestPilotReprovision:
    def test_dead_block_reprovision_accumulates_queue_wait(self):
        site = make_faster(SimClock(), package_index=standard_index())
        site.add_account("x-u")
        executor = PilotExecutor(
            SlurmProvider(site, "x-u", partition="normal")
        )
        executor.submit(lambda handle: handle.compute(1.0))
        first_block = executor._block
        first_wait = first_block.queue_wait
        assert executor.blocks_started == 1
        # the pilot's batch job dies between tasks (walltime force-kill)
        site.scheduler.force_timeout(first_block.job_id)
        executor.submit(lambda handle: handle.compute(1.0))
        assert executor.blocks_started == 2
        assert executor._block is not first_block
        # queue-wait accounting reflects *both* provisions paid
        assert executor.total_queue_wait == pytest.approx(
            first_wait + executor._block.queue_wait
        )

    def test_walltime_death_during_task_raises_then_recovers(self):
        site = make_faster(SimClock(), package_index=standard_index())
        site.add_account("x-u")
        executor = PilotExecutor(
            SlurmProvider(site, "x-u", partition="normal")
        )

        def doomed(handle):
            site.scheduler.force_timeout(executor._block.job_id)
            return handle.compute(1.0)

        with pytest.raises(WalltimeExceeded):
            executor.submit(doomed)
        assert executor.submit(lambda handle: 7) == 7
        assert executor.blocks_started == 2


class TestDeadlockDetection:
    def test_future_pending_with_drained_queue_reports_deadlock(self):
        world = make_world()
        cloud_endpoint(world)
        orphan = Future(world.clock)
        _drain(world)
        with pytest.raises(TaskFailed, match="deadlock"):
            orphan.wait()

    def test_exhausted_retries_resolve_instead_of_deadlocking(self):
        """Give-up must resolve the future: a pending future over an empty
        event queue is the failure mode the resilience layer exists to
        avoid."""
        world = make_world(
            offline_policy="queue",
            retry_policy=RetryPolicy(max_attempts=2, base_delay=1.0, seed=0),
        )
        client, eid = cloud_endpoint(world)
        world.faas.endpoint(eid).online = False
        fid = client.register_function(_quick, "quick")
        future = client.submit(eid, fid)
        _drain(world)
        assert future.done()
        assert isinstance(future.exception(), TaskFailed)
