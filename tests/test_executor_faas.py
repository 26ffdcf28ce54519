"""Integration tests for providers, pilots, endpoints, and the cloud service."""

import pytest

from repro.auth.policies import HighAssurancePolicy
from repro.envs.stdlib import standard_index
from repro.errors import (
    EndpointNotFound,
    ExecutorError,
    FunctionNotAllowed,
    PayloadTooLarge,
    PermissionDenied,
    TaskFailed,
    WalltimeExceeded,
)
from repro.executor.pilot import PilotExecutor
from repro.executor.providers import LocalProvider, SlurmProvider
from repro.faas.endpoint import EndpointTemplate, MultiUserEndpoint, UserEndpoint
from repro.faas.future import Future
from repro.faas.task import TaskState
from repro.shellsim.session import ShellServices
from repro.sites.catalog import make_site
from repro.util.clock import SimClock


@pytest.fixture
def faster_site():
    site = make_site(
        "faster", SimClock(), package_index=standard_index(), background_load=False
    )
    site.add_account("x-u")
    return site


def _start_block(provider):
    """Provision one block and drive the clock until it is usable."""
    future = Future(provider.site.clock)
    provider.start_block_async(future.set_result, future.set_exception)
    return future.result()


class TestProviders:
    def test_local_provider_block(self, faster_site):
        provider = LocalProvider(faster_site, "x-u")
        block = _start_block(provider)
        assert block.node_class == "login"
        assert block.queue_wait == 0.0
        assert faster_site.clock.now == pytest.approx(2.0)

    def test_slurm_provider_block_and_release(self, faster_site):
        provider = SlurmProvider(faster_site, "x-u", partition="normal")
        block = _start_block(provider)
        assert block.node_class == "compute"
        assert block.job_id is not None
        provider.release_block(block)
        from repro.scheduler.jobs import JobState

        assert (
            faster_site.scheduler.job(block.job_id).state
            is JobState.COMPLETED
        )

    def test_slurm_provider_needs_scheduler(self):
        site = make_site("chameleon", SimClock())
        site.add_account("cc")
        with pytest.raises(ExecutorError):
            SlurmProvider(site, "cc", partition="none")


class TestPilotExecutor:
    def test_block_reuse(self, faster_site):
        executor = PilotExecutor(
            SlurmProvider(faster_site, "x-u", partition="normal")
        )
        executor.submit(lambda handle: handle.compute(1.0))
        executor.submit(lambda handle: handle.compute(1.0))
        assert executor.blocks_started == 1
        assert executor.tasks_run == 2
        executor.shutdown()
        assert not executor.has_active_block

    def test_new_block_after_walltime(self, faster_site):
        executor = PilotExecutor(
            SlurmProvider(
                faster_site, "x-u", partition="normal", walltime=100.0
            )
        )
        executor.submit(lambda handle: handle.compute(1.0))
        faster_site.clock.advance(200.0)  # pilot dies at walltime
        executor.submit(lambda handle: handle.compute(1.0))
        assert executor.blocks_started == 2

    def test_task_killed_at_walltime(self, faster_site):
        executor = PilotExecutor(
            SlurmProvider(
                faster_site, "x-u", partition="normal", walltime=50.0
            )
        )
        with pytest.raises(WalltimeExceeded):
            executor.submit(lambda handle: handle.compute(100.0))

    def test_node_handle_on_login_block(self, faster_site):
        executor = PilotExecutor(LocalProvider(faster_site, "x-u"))
        handle = executor.submit(lambda handle: handle)
        assert handle.node_class == "login"


class TestUserEndpoint:
    def _uep(self, site, template=None):
        return UserEndpoint(
            site=site,
            local_user="x-u",
            shell_services=ShellServices(),
            template=template,
        )

    @staticmethod
    def _execute(uep, spec):
        """Run one task on ``uep`` and drive the clock to its result."""
        future = Future(uep.site.clock)

        def on_done(result, error):
            if error is None:
                future.set_result(result)
            else:
                future.set_exception(error)

        uep.execute_async(spec, (), {}, on_done)
        return future.result()

    def test_outbound_routing_on_restricted_site(self, faster_site):
        uep = self._uep(
            faster_site,
            EndpointTemplate(compute_partition="normal"),
        )
        from repro.faas.functions import FunctionSpec

        ran_on = {}

        def record(fctx):
            ran_on[fctx.handle.node_class] = True
            return fctx.handle.node_class

        clone_spec = FunctionSpec("f1", "clone", record, "o", needs_outbound=True)
        test_spec = FunctionSpec("f2", "tests", record, "o", needs_outbound=False)
        assert self._execute(uep, clone_spec) == "login"
        assert self._execute(uep, test_spec) == "compute"

    def test_login_only_template(self, faster_site):
        uep = self._uep(faster_site)  # default template: no compute partition
        from repro.faas.functions import FunctionSpec

        spec = FunctionSpec(
            "f", "t", lambda fctx: fctx.handle.node_class, "o"
        )
        assert self._execute(uep, spec) == "login"

    def test_allowlist_enforced(self, faster_site):
        template = EndpointTemplate(allowed_functions={"allowed-id"})
        uep = self._uep(faster_site, template)
        from repro.faas.functions import FunctionSpec

        bad = FunctionSpec("other-id", "evil", lambda fctx: 1, "o")
        with pytest.raises(FunctionNotAllowed):
            self._execute(uep, bad)

    def test_stats_and_shutdown(self, faster_site):
        uep = self._uep(
            faster_site, EndpointTemplate(compute_partition="normal")
        )
        from repro.faas.functions import FunctionSpec

        spec = FunctionSpec("f", "t", lambda fctx: 1, "o")
        self._execute(uep, spec)
        stats = uep.stats()
        assert stats["compute_tasks"] == 1
        uep.shutdown()
        assert not uep.online


class TestFaaSService:
    def _world(self):
        from repro.world import World

        world = World()
        user = world.register_user("alice", {"faster": "x-alice"})
        mep = world.deploy_mep("faster")
        from repro.faas.client import ComputeClient

        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        return world, user, mep, client

    def test_submit_and_result(self):
        world, user, mep, client = self._world()
        fid = client.register_function(lambda fctx, x: x * 2, "double")
        task_id = client.run(mep.endpoint_id, fid, 21)
        assert client.get_result(task_id) == 42
        task = client.get_task(task_id)
        assert task.state is TaskState.SUCCESS
        assert task.identity_urn == user.identity.urn

    def test_remote_exception_captured(self):
        world, user, mep, client = self._world()

        def boom(fctx):
            raise ValueError("remote kaboom")

        fid = client.register_function(boom, "boom")
        task_id = client.run(mep.endpoint_id, fid)
        task = client.get_task(task_id)
        assert task.state is TaskState.FAILED
        with pytest.raises(TaskFailed) as excinfo:
            client.get_result(task_id)
        assert "remote kaboom" in excinfo.value.remote_traceback

    def test_unknown_endpoint(self):
        world, user, mep, client = self._world()
        fid = client.register_function(lambda fctx: 1, "one")
        with pytest.raises(EndpointNotFound):
            client.run("ghost-endpoint", fid)

    def test_offline_endpoint(self):
        world, user, mep, client = self._world()
        fid = client.register_function(lambda fctx: 1, "one")
        mep.shutdown()
        from repro.errors import EndpointOffline

        with pytest.raises(EndpointOffline):
            client.run(mep.endpoint_id, fid)

    def test_oversized_arguments_rejected(self):
        world, user, mep, client = self._world()
        world.faas.payload_limit = 100
        fid = client.register_function(lambda fctx, blob: len(blob), "size")
        with pytest.raises(PayloadTooLarge):
            client.run(mep.endpoint_id, fid, "x" * 500)

    def test_oversized_result_rejected(self):
        world, user, mep, client = self._world()
        world.faas.payload_limit = 100
        fid = client.register_function(lambda fctx: "y" * 500, "big")
        task_id = client.run(mep.endpoint_id, fid)
        task = client.get_task(task_id)
        assert task.state is TaskState.FAILED
        assert "PayloadTooLarge" in task.exception_text

    def test_single_user_endpoint_rejects_other_identity(self):
        world, user, mep, client = self._world()
        uep = world.deploy_user_endpoint(user, "faster")
        other = world.register_user("eve", {"faster": "x-eve"})
        from repro.faas.client import ComputeClient

        eve_client = ComputeClient(
            world.faas, other.client_id, other.client_secret
        )
        fid = eve_client.register_function(lambda fctx: 1, "one")
        task_id = eve_client.run(uep.endpoint_id, fid)
        task = eve_client.get_task(task_id)
        assert task.state is TaskState.FAILED
        assert "PermissionDenied" in task.exception_text

    def test_mep_identity_mapping_rejects_unmapped(self):
        world, user, mep, client = self._world()
        stranger = world.register_user("stranger", {})
        from repro.faas.client import ComputeClient

        sclient = ComputeClient(
            world.faas, stranger.client_id, stranger.client_secret
        )
        fid = sclient.register_function(lambda fctx: 1, "one")
        task_id = sclient.run(mep.endpoint_id, fid)
        assert "IdentityMappingError" in sclient.get_task(task_id).exception_text

    def test_mep_policy_enforced(self):
        from repro.world import World

        world = World()
        user = world.register_user("alice", {"faster": "x-alice"})
        mep = MultiUserEndpoint(
            site=world.site("faster"),
            shell_services=world.shell_services(),
            policy=HighAssurancePolicy(
                required_providers=frozenset({"lab.gov"})
            ),
        )
        world.faas.register_endpoint(mep)
        from repro.faas.client import ComputeClient

        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        fid = client.register_function(lambda fctx: 1, "one")
        task_id = client.run(mep.endpoint_id, fid)
        assert "PolicyViolation" in client.get_task(task_id).exception_text

    def test_mep_audit_log_records_forks(self):
        world, user, mep, client = self._world()
        fid = client.register_function(lambda fctx: 1, "one")
        client.run(mep.endpoint_id, fid)
        events = [entry["event"] for entry in mep.audit_log]
        assert "uep.forked" in events

    def test_task_charges_round_trip_latency(self):
        world, user, mep, client = self._world()
        fid = client.register_function(lambda fctx: 1, "noop")
        before = world.clock.now
        client.run(mep.endpoint_id, fid)
        assert world.clock.now > before

    def test_uep_reused_across_tasks(self):
        world, user, mep, client = self._world()
        fid = client.register_function(lambda fctx: 1, "noop")
        client.run(mep.endpoint_id, fid)
        client.run(mep.endpoint_id, fid)
        forks = [e for e in mep.audit_log if e["event"] == "uep.forked"]
        assert len(forks) == 1


def _burn(fctx, seconds):
    fctx.handle.compute(seconds)
    return seconds


class TestDispatchAtScale:
    def test_100k_tasks_over_an_8_member_pool_resolve(self):
        # the headline scale target: 100k tasks through submit, dispatch,
        # pilot execution and completion without event-queue blowup
        import random
        import time

        from repro.faas.client import ComputeClient
        from repro.telemetry import percentile
        from repro.world import World

        world = World(telemetry=False)
        user = world.register_user("scale", {"chameleon": "x-scale"})
        pool = [mep.endpoint_id for mep in world.deploy_mep_pool("chameleon", 8)]
        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        fid = client.register_function(_burn, "burn")
        rng = random.Random(42)
        durations = [2.0 * (0.5 + rng.random()) for _ in range(100_000)]
        started = time.perf_counter()
        futures = [
            client.submit(pool[i % len(pool)], fid, seconds)
            for i, seconds in enumerate(durations)
        ]
        world.clock.run_until_idle()
        assert time.perf_counter() - started < 60
        assert [f.result() for f in futures] == durations
        # submitted + dispatched + completed per task, plus setup events
        events = world.events
        assert len(events) >= 300_000
        submitted = {
            e.data["task_id"]: e.time
            for e in events.query("faas", "task.submitted")
        }
        latencies = [
            e.time - submitted[e.data["task_id"]]
            for e in events.query("faas", "task.dispatched")
        ]
        assert len(latencies) == len(durations)
        assert 0 < percentile(latencies, 50) <= percentile(latencies, 95)
