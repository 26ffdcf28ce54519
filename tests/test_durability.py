"""Unit + integration tests for the durability layer.

Covers the write-ahead journal (hash chain, stores, tampering), the
idempotency key, heartbeat leases, the run checkpointer and its crash
point, service-level recovery (replay + dedup), and the satellite items
riding in the same PR: ``EventLog.replay_to``, the removal of the old
``util.clock.Span`` alias, golden retry-jitter vectors, and the crate's
recovery provenance fields.
"""

import warnings

import pytest

from repro.durability import (
    GENESIS_HASH,
    CoordinatorCrashed,
    Journal,
    JournalCorrupt,
    JsonlJournalStore,
    LeaseRegistry,
    MemoryJournalStore,
    ReplayIndex,
    task_key,
)
from repro.experiments import common
from repro.faas.client import ComputeClient
from repro.faults.plan import CoordinatorCrash, FaultPlan
from repro.faults.resilience import BreakerPolicy, RetryPolicy
from repro.provenance.crate import ResearchCrate
from repro.provenance.record import ExecutionRecord
from repro.util.clock import SimClock
from repro.util.events import EventLog
from repro.world import World


def make_world(**kwargs) -> World:
    """A quiet world (no background queue load)."""
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


class TestJournal:
    def test_chain_appends_and_verifies(self):
        journal = Journal()
        assert journal.head_hash == GENESIS_HASH
        r0 = journal.append("task.submitted", 1.0, {"key": "a"})
        r1 = journal.append("task.completed", 2.0, {"key": "a", "state": "SUCCESS"})
        assert (r0.seq, r1.seq) == (0, 1)
        assert r1.prev_hash == r0.hash
        assert journal.head_hash == r1.hash
        assert [r.kind for r in journal.replay()] == [
            "task.submitted", "task.completed",
        ]

    def test_jsonl_store_round_trips(self, tmp_path):
        path = str(tmp_path / "run.journal")
        journal = Journal.open(path)
        journal.append("run.created", 0.0, {"run_id": "run-1"})
        journal.append("task.submitted", 5.0, {"key": "k", "n": 3})
        reopened = Journal.open(path)
        assert len(reopened) == 2
        assert reopened.head_hash == journal.head_hash
        assert reopened.records[1].data == {"key": "k", "n": 3}

    def test_tampered_record_is_detected(self):
        journal = Journal()
        journal.append("task.submitted", 1.0, {"key": "a"})
        journal.append("task.completed", 2.0, {"key": "a"})
        entries = journal.store.load()
        entries[0]["data"]["key"] = "evil"
        with pytest.raises(JournalCorrupt):
            Journal(MemoryJournalStore(entries))
        # tampering with the loaded copy left the source store intact
        Journal(journal.store).verify()

    def test_memory_store_load_returns_independent_entries(self):
        journal = Journal()
        journal.append("task.submitted", 1.0, {"key": "a", "nested": {"n": 1}})
        entries = journal.store.load()
        entries[0]["data"]["key"] = "evil"
        entries[0]["data"]["nested"]["n"] = 2
        assert journal.store.load()[0]["data"] == {"key": "a", "nested": {"n": 1}}
        reopened = Journal(journal.store)
        reopened.verify()
        assert reopened.head_hash == journal.head_hash

    def test_torn_final_jsonl_line_is_journal_corrupt(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = Journal.open(str(path))
        for i in range(3):
            journal.append("task.submitted", float(i), {"key": f"k{i}", "n": i})
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(JournalCorrupt, match="journal line 3"):
            Journal.open(str(path))

    def test_whole_record_tail_truncation_on_disk_is_a_shorter_chain(
        self, tmp_path
    ):
        path = tmp_path / "run.journal"
        journal = Journal.open(str(path))
        for i in range(3):
            journal.append("task.submitted", float(i), {"key": f"k{i}", "n": i})
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2]))
        shorter = Journal.open(str(path))
        assert len(shorter) == 2
        assert shorter.head_hash == journal.records[1].hash

    def test_broken_chain_is_detected(self):
        journal = Journal()
        journal.append("task.submitted", 1.0, {"key": "a"})
        journal.append("task.completed", 2.0, {"key": "a"})
        entries = journal.store.load()
        del entries[0]  # drop a mid-chain record, keep the tail
        entries[0]["seq"] = 0
        with pytest.raises(JournalCorrupt):
            Journal(MemoryJournalStore(entries))

    def test_tail_truncation_is_a_valid_shorter_chain(self):
        journal = Journal()
        for i in range(5):
            journal.append("task.submitted", float(i), {"n": i})
        shorter = journal.truncated(3)
        assert len(shorter) == 3
        shorter.verify()
        assert shorter.head_hash == journal.records[2].hash

    def test_empty_jsonl_journal_loads(self, tmp_path):
        journal = Journal.open(str(tmp_path / "missing.journal"))
        assert len(journal) == 0
        assert journal.head_hash == GENESIS_HASH


class TestTaskKey:
    def test_deterministic_and_payload_sensitive(self):
        a = task_key("fn", (1, 2), {"x": "y"})
        assert a == task_key("fn", (1, 2), {"x": "y"})
        assert a != task_key("fn", (1, 3), {"x": "y"})
        assert a != task_key("other", (1, 2), {"x": "y"})

    def test_occurrence_disambiguates_identical_submissions(self):
        first = task_key("fn", (), {}, occurrence=0)
        second = task_key("fn", (), {}, occurrence=1)
        assert first != second

    def test_key_is_endpoint_independent(self):
        # no endpoint enters the key material: a failover keeps the key
        assert task_key("fn", ("payload",), {}) == task_key(
            "fn", ("payload",), {}
        )


class TestEventLogReplayTo:
    def test_replays_history_with_filters(self):
        log = EventLog()
        log.emit(1.0, "faas", "task.submitted", task_id="t1")
        log.emit(2.0, "actions", "step.started", index=0)
        log.emit(3.0, "faas", "task.completed", task_id="t1")
        seen = []
        count = log.replay_to(seen.append)
        assert count == 3
        assert [e.kind for e in seen] == [
            "task.submitted", "step.started", "task.completed",
        ]
        faas_only = []
        assert log.replay_to(faas_only.append, source="faas") == 2
        completed = []
        assert log.replay_to(completed.append, kind="task.completed") == 1
        assert completed[0].data["task_id"] == "t1"

    def test_late_subscriber_catches_up_then_follows(self):
        log = EventLog()
        log.emit(1.0, "faas", "task.submitted", task_id="t1")
        seen = []
        log.replay_to(seen.append)
        log.subscribe(seen.append)
        log.emit(2.0, "faas", "task.completed", task_id="t1")
        assert [e.kind for e in seen] == ["task.submitted", "task.completed"]


class TestSpanAliasRemoved:
    """The deprecated ``util.clock.Span`` alias (warned since PR 4) is gone;
    only the telemetry subsystem owns the name ``Span`` now."""

    def test_clock_span_alias_is_gone(self):
        import repro.util.clock as clock_mod

        with pytest.raises(AttributeError):
            clock_mod.Span

    def test_package_level_alias_is_gone(self):
        import repro.util as util_pkg

        with pytest.raises(AttributeError):
            util_pkg.Span
        assert "Span" not in util_pkg.__all__

    def test_measured_region_remains(self):
        import repro.util as util_pkg
        import repro.util.clock as clock_mod

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert clock_mod.SimClock is SimClock
            assert util_pkg.MeasuredRegion is clock_mod.MeasuredRegion


class TestGoldenJitterVectors:
    """Pin the SHA-256 retry jitter: these exact delays are what makes a
    chaos seed replayable, so any formula drift must fail loudly."""

    def test_chaos_policy_delays(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=5.0, multiplier=2.0,
            max_delay=120.0, jitter=0.1, seed=7,
        )
        golden = {
            1: 5.343907183524022,
            2: 10.806221524629766,
            3: 20.57634764659469,
            4: 43.28200918444557,
        }
        for attempt, expected in golden.items():
            assert policy.delay(attempt, key="task-1") == pytest.approx(
                expected, abs=1e-12
            )

    def test_default_policy_delays(self):
        policy = RetryPolicy(seed=0)
        assert policy.delay(1, key="") == pytest.approx(
            1.0007423704653884, abs=1e-12
        )
        assert policy.delay(2, key="") == pytest.approx(
            2.0135959996973805, abs=1e-12
        )


class TestLeaseRegistry:
    def _registry(self, ttl=10.0, on_expire=None):
        clock = SimClock()
        events = EventLog()
        return clock, events, LeaseRegistry(
            clock, events, ttl=ttl, on_expire=on_expire
        )

    def test_grant_renew_expire_lifecycle(self):
        expired = []
        clock, events, registry = self._registry(
            ttl=10.0, on_expire=expired.append
        )
        registry.grant("ep-1")
        assert registry.active("ep-1")
        clock.run_until(6.0)
        assert registry.renew("ep-1") is not None  # heartbeat at t=6
        clock.run_until(12.0)  # original expiry passed, renewal holds
        assert registry.active("ep-1")
        clock.run_until(20.0)  # renewed_at=6 + ttl=10 -> expires at 16
        assert not registry.active("ep-1")
        assert expired == ["ep-1"]
        assert registry.expired_ids == ["ep-1"]
        kinds = [e.kind for e in events if e.kind.startswith("lease.")]
        assert kinds == ["lease.granted", "lease.renewed", "lease.expired"]

    def test_renew_after_expiry_returns_none(self):
        clock, _, registry = self._registry(ttl=5.0)
        registry.grant("ep-1")
        clock.run_until(50.0)
        assert registry.renew("ep-1") is None
        assert registry.lease("ep-1") is None

    def test_revoke_cancels_expiry(self):
        expired = []
        clock, _, registry = self._registry(
            ttl=5.0, on_expire=expired.append
        )
        registry.grant("ep-1")
        registry.revoke("ep-1")
        clock.run_until(100.0)
        assert expired == []
        assert registry.expired_ids == []

    def test_expiry_fires_once_per_lease(self):
        expired = []
        clock, _, registry = self._registry(
            ttl=5.0, on_expire=expired.append
        )
        registry.grant("ep-1")
        clock.run_until(100.0)
        clock.run_until(200.0)
        assert expired == ["ep-1"]


class TestServiceLeases:
    def test_task_activity_renews_and_idleness_expires(self):
        world = make_world()
        client, eid = cloud_endpoint(world)
        world.faas.enable_leases(ttl=500.0)
        assert world.faas.leases.active(eid)
        fid = client.register_function(_quick, "quick")
        assert client.submit(eid, fid).result() == 42
        renewed = [
            e for e in world.events if e.kind == "lease.renewed"
        ]
        assert renewed, "dispatch/completion should heartbeat the lease"
        _drain(world)  # nothing left but the expiry check
        assert world.faas.endpoint(eid).online is False
        assert world.faas.endpoint(eid).lease is None

    def test_expiry_mid_task_fails_inflight_work(self):
        world = make_world()
        client, eid = cloud_endpoint(world)
        world.faas.enable_leases(ttl=5.0)  # far shorter than the 30s body
        fid = client.register_function(_slow, "slow")
        future = client.submit(eid, fid)
        error = future.exception()
        assert error is not None
        task = world.faas.get_task(future.task_id)
        assert "lease expired" in task.exception_text
        assert world.faas.endpoint(eid).online is False

    def test_expired_endpoint_fails_over_to_declared_fallback(self):
        world = make_world(
            retry_policy=RetryPolicy(max_attempts=4, base_delay=2.0, seed=3),
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout=9999.0),
            offline_policy="queue",
        )
        user = world.register_user(
            "alice", {"chameleon": "cc", "faster": "x-alice"}
        )
        primary = common.deploy_site_mep(world, "chameleon")
        fallback = common.deploy_site_mep(world, "faster")
        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        world.faas.declare_fallback(primary.endpoint_id, fallback.endpoint_id)
        world.faas.enable_leases(ttl=5.0)
        # keep the fallback's liveness untracked so only the primary's
        # lease can expire while the 30s body is in flight
        world.faas.leases.revoke(fallback.endpoint_id)
        fid = client.register_function(_slow, "slow")
        future = client.submit(primary.endpoint_id, fid)
        assert future.result() == "slow done"
        task = world.faas.get_task(future.task_id)
        assert task.endpoint_id == fallback.endpoint_id


class TestCheckpointer:
    def test_lifecycle_events_are_journaled_with_keys(self):
        world = make_world()
        client, eid = cloud_endpoint(world)
        journal = world.attach_journal()
        fid = client.register_function(_quick, "quick")
        assert client.submit(eid, fid).result() == 42
        kinds = [r.kind for r in journal.records]
        assert "task.submitted" in kinds
        assert "task.dispatched" in kinds
        assert "task.completed" in kinds
        completed = [
            r for r in journal.records if r.kind == "task.completed"
        ][0]
        assert completed.data["state"] == "SUCCESS"
        assert completed.data["key"]
        assert completed.data["result"]  # serialized 42
        assert completed.data["body_elapsed"] > 0.0
        # endpoint registration happened before attach; catch-up found it
        assert "endpoint.registered" in kinds

    def test_attach_twice_is_an_error(self):
        world = make_world()
        world.attach_journal()
        with pytest.raises(ValueError):
            world.attach_journal()

    def test_armed_crash_raises_at_exact_record(self):
        world = make_world()
        client, eid = cloud_endpoint(world)
        journal = world.attach_journal()
        world.checkpointer.arm_crash(len(journal) + 2)
        fid = client.register_function(_quick, "quick")
        with pytest.raises(CoordinatorCrashed) as excinfo:
            client.submit(eid, fid).result()
        assert excinfo.value.at_record == len(journal)
        assert world.checkpointer.crashed

    def test_crash_fault_requires_a_journal(self):
        from repro.faults.plan import CoordinatorCrash, FaultPlan

        world = make_world(
            faults=FaultPlan(seed=1).add(CoordinatorCrash(at_event_seq=1))
        )
        with pytest.raises(ValueError, match="attach_journal"):
            world.arm_faults()

    def test_arm_crash_rejects_non_positive_offsets(self):
        world = make_world()
        world.attach_journal()
        with pytest.raises(ValueError):
            world.checkpointer.arm_crash(0)


class TestRecovery:
    def _journaled_run(self):
        """One completed task in a journaled world; returns its journal."""
        world = make_world()
        client, eid = cloud_endpoint(world)
        journal = world.attach_journal()
        fid = client.register_function(_quick, "quick")
        assert client.submit(eid, fid).result() == 42
        return journal, eid

    def test_replayed_task_never_reexecutes(self):
        journal, _ = self._journaled_run()
        world2 = make_world()
        client2, eid2 = cloud_endpoint(world2)
        world2.faas.enable_replay(ReplayIndex(journal))
        fid2 = client2.register_function(_quick, "quick")
        future = client2.submit(eid2, fid2)
        assert future.result() == 42  # the *recorded* result
        task = world2.faas.get_task(future.task_id)
        assert task.replayed is True
        assert task.idempotency_key in world2.faas.replayed_keys
        # the audit: journaled-complete keys never re-execute
        completed = set(world2.faas.replay_index.completed_success())
        assert not (completed & world2.faas.executed_keys)

    def test_unjournaled_submission_executes_live(self):
        journal, _ = self._journaled_run()
        world2 = make_world()
        client2, eid2 = cloud_endpoint(world2)
        world2.faas.enable_replay(ReplayIndex(journal))
        fid2 = client2.register_function(_slow, "slow")  # never journaled
        future = client2.submit(eid2, fid2)
        assert future.result() == "slow done"
        task = world2.faas.get_task(future.task_id)
        assert task.replayed is False
        assert task.idempotency_key in world2.faas.executed_keys

    def test_replay_index_classifies_orphans_and_dead_leases(self):
        journal = Journal()
        journal.append(
            "lease.granted", 0.0,
            {"endpoint": "ep-dead", "ttl": 10.0, "expires_at": 10.0},
        )
        journal.append(
            "lease.granted", 0.0,
            {"endpoint": "ep-live", "ttl": 10.0, "expires_at": 10.0},
        )
        journal.append(
            "lease.renewed", 8.0,
            {"endpoint": "ep-live", "expires_at": 18.0},
        )
        journal.append(
            "task.submitted", 9.0,
            {"key": "k1", "endpoint": "ep-live", "function_id": "f",
             "payload": '{"args": [], "kwargs": {}}'},
        )
        journal.append("task.submitted", 9.5, {"key": "k2", "endpoint": "ep-live"})
        journal.append(
            "task.completed", 12.0, {"key": "k2", "state": "SUCCESS"}
        )
        index = ReplayIndex(journal)
        assert list(index.orphans()) == ["k1"]
        assert index.dead_endpoints() == ["ep-dead"]
        assert index.summary()["completed_success"] == 1

    def test_dead_lease_endpoint_recovers_offline(self):
        world = make_world(offline_policy="queue")
        client, eid = cloud_endpoint(world)
        journal = Journal()
        journal.append(
            "lease.granted", 0.0,
            {"endpoint": eid, "ttl": 1.0, "expires_at": 1.0},
        )
        journal.append("task.submitted", 100.0, {"key": "k"})
        world.faas.enable_replay(ReplayIndex(journal))
        assert world.faas.endpoint(eid).online is False
        expired = [
            e for e in world.events
            if e.kind == "lease.expired" and e.data.get("phase") == "recovery"
        ]
        assert len(expired) == 1


def _echo(fctx, index, seconds):
    fctx.handle.compute(seconds)
    return [index, seconds]


class TestOnDiskCrashResume:
    """A coordinator crash while journaling to JSONL with batched flushes,
    resumed in a fresh world from the file reopened on disk."""

    TASKS = 40
    POOL = 4
    BATCH = 64
    INPUTS = [[i, round(1.0 + (i * 7 % 11) / 5.0, 6)] for i in range(TASKS)]
    # registrations and submissions come first; after them each task
    # adds a dispatch and a completion and each member a block, so this
    # record lands with about half the tasks complete
    CRASH_AT = 2 * TASKS + 2 * POOL

    def _world(self, path=None):
        world = make_world()
        if path is not None:
            world.attach_journal(
                Journal(JsonlJournalStore(str(path)), batch_size=self.BATCH)
            )
        user = world.register_user("alice", {"chameleon": "cc"})
        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        fid = client.register_function(_echo, "echo")
        members = [
            mep.endpoint_id for mep in world.deploy_mep_pool("chameleon", self.POOL)
        ]

        def submit_all():
            return [
                client.submit(members[i % self.POOL], fid, i, seconds)
                for i, seconds in self.INPUTS
            ]

        return world, submit_all

    @staticmethod
    def _outcomes(futures):
        return [(f.result(), f.task.completed_at) for f in futures]

    def test_crash_then_resume_from_disk(self, tmp_path):
        reference, submit_all = self._world()
        expected = submit_all()
        reference.clock.run_until_idle()

        crash_path = tmp_path / "crashed.jsonl"
        crashed, submit_all = self._world(crash_path)
        crashed.install_faults(
            FaultPlan(seed=1, profile="on-disk-crash").add(
                CoordinatorCrash(at_event_seq=self.CRASH_AT)
            )
        )
        crashed.arm_faults()
        submit_all()
        with pytest.raises(CoordinatorCrashed):
            crashed.clock.run_until_idle()
        assert len(crashed.journal) == self.CRASH_AT

        journal = Journal.open(str(crash_path))  # verifies from disk
        # only whole flushed batches reached the file
        assert len(journal) == self.CRASH_AT // self.BATCH * self.BATCH
        resume_path = tmp_path / "resumed.jsonl"
        resumed, submit_all = self._world(resume_path)
        index = resumed.resume_from(journal)
        futures = submit_all()
        resumed.clock.run_until_idle()
        resumed.journal.flush()

        Journal.open(str(resume_path)).verify()
        assert resumed.faas.replayed_keys
        assert not set(index.completed_success()) & resumed.faas.executed_keys
        assert self._outcomes(futures) == self._outcomes(expected)


class TestCrateRecoveryFields:
    def test_recovery_block_round_trips(self):
        crate = ResearchCrate("org/repo", "abc123")
        crate.mark_resumed("f" * 64, crash_point=17, replayed_tasks=6)
        restored = ResearchCrate.from_json(crate.to_json())
        assert restored.resumed_from == "f" * 64
        assert restored.crash_point == 17
        assert restored.replayed_tasks == 6

    def test_unresumed_crate_defaults(self):
        crate = ResearchCrate("org/repo", "abc123")
        restored = ResearchCrate.from_json(crate.to_json())
        assert restored.resumed_from == ""
        assert restored.crash_point == 0
        assert restored.replayed_tasks == 0

    def test_execution_record_task_replayed_round_trips(self):
        record = ExecutionRecord(
            record_id="r1", run_id="run-1", repo_slug="org/repo",
            commit_sha="abc", site="chameleon", endpoint_id="ep",
            identity_urn="urn:x", function_name="fn", command="pytest",
            started_at=1.0, completed_at=2.0, exit_code=0,
            task_replayed=True,
        )
        restored = ExecutionRecord.from_json(record.to_json())
        assert restored.task_replayed is True
