"""The placement plane: policies, admissibility, and routing determinism."""

import pytest

from repro.errors import EndpointNotFound
from repro.faas.client import ComputeClient
from repro.faas.placement import POLICIES, EndpointPool, RouteDecision, Router
from repro.faults.plan import FaultPlan, TaskError
from repro.faults.resilience import RetryPolicy
from repro.world import World

MEMBERS = ["ep-a", "ep-b", "ep-c"]


def make_router(policy, depths=None, down=(), weights=None):
    """A router over one three-member pool with scriptable callbacks."""
    depths = depths or {}
    weights = weights or {}
    router = Router(
        queue_depth=lambda eid: depths.get(eid, 0),
        admissible=lambda eid: eid not in down,
        weight_of=lambda eid: weights.get(eid, 1.0),
        policy=policy,
    )
    router.register_pool(
        EndpointPool(name="pool", site="site-x", members=list(MEMBERS))
    )
    return router


class TestPolicies:
    def test_pinned_always_first_member(self):
        router = make_router("pinned")
        assert [router.resolve("pool").endpoint_id for _ in range(4)] == [
            "ep-a", "ep-a", "ep-a", "ep-a",
        ]

    def test_round_robin_cycles_in_registration_order(self):
        router = make_router("round-robin")
        picks = [router.resolve("pool").endpoint_id for _ in range(6)]
        assert picks == ["ep-a", "ep-b", "ep-c", "ep-a", "ep-b", "ep-c"]

    def test_round_robin_skips_then_resumes_inadmissible_member(self):
        down = {"ep-b"}
        router = make_router("round-robin", down=down)
        assert [router.resolve("pool").endpoint_id for _ in range(3)] == [
            "ep-a", "ep-c", "ep-a",
        ]
        down.clear()  # ep-b recovers and gets its turn back
        assert router.resolve("pool").endpoint_id == "ep-b"

    def test_least_loaded_picks_min_depth(self):
        router = make_router("least-loaded", depths={"ep-a": 2, "ep-b": 0, "ep-c": 1})
        assert router.resolve("pool").endpoint_id == "ep-b"

    def test_least_loaded_ties_break_by_registration_order(self):
        router = make_router("least-loaded")
        assert router.resolve("pool").endpoint_id == "ep-a"

    def test_weighted_distributes_in_weight_proportion(self):
        router = make_router(
            "weighted", weights={"ep-a": 2.0, "ep-b": 1.0, "ep-c": 0.0}
        )
        # ep-c's zero weight is clamped to epsilon: it almost never wins
        picks = [router.resolve("pool").endpoint_id for _ in range(6)]
        assert picks.count("ep-a") == 4
        assert picks.count("ep-b") == 2

    def test_site_name_resolves_to_its_pool(self):
        router = make_router("pinned")
        decision = router.resolve("site-x")
        assert decision.pool == "pool"
        assert decision.endpoint_id == "ep-a"

    def test_inadmissible_members_excluded_at_routing_time(self):
        router = make_router("pinned", down={"ep-a"})
        assert router.resolve("pool").endpoint_id == "ep-b"

    def test_all_inadmissible_falls_back_to_full_list(self):
        router = make_router("pinned", down=set(MEMBERS))
        # the normal offline/breaker machinery handles it downstream
        assert router.resolve("pool").endpoint_id == "ep-a"

    def test_unknown_target_raises(self):
        router = make_router("pinned")
        with pytest.raises(EndpointNotFound):
            router.resolve("nowhere")

    def test_empty_pool_raises(self):
        router = make_router("pinned")
        router.register_pool(EndpointPool(name="empty"))
        with pytest.raises(EndpointNotFound):
            router.resolve("empty")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown placement policy"):
            make_router("random")

    def test_decisions_are_recorded_with_depth(self):
        router = make_router(
            "least-loaded", depths={"ep-a": 3, "ep-b": 1, "ep-c": 5}
        )
        decision = router.resolve("pool")
        assert router.decisions == [decision]
        assert decision.queue_depth_at_route == 1
        assert decision.routed_by == "least-loaded"
        assert not decision.explicit

    def test_explicit_decision_has_no_pool(self):
        decision = RouteDecision(endpoint_id="ep-a")
        assert decision.explicit


def _work(fctx, seconds):
    fctx.handle.compute(seconds)
    return seconds


def _pooled_run(policy: str):
    """One seeded, fault-injected run against a 2x pool; returns evidence.

    The transient fault makes the first task retry, so the run exercises
    the resilience pipeline and the placement plane together — the
    decisions and the journal must still be bit-for-bit repeatable.
    """
    world = World(
        placement_policy=policy,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=2.0, seed=5),
        faults=FaultPlan(seed=5).add(
            TaskError(at=0.0, site="chameleon", count=1, transient=True)
        ),
    )
    journal = world.attach_journal()
    user = world.register_user("alice", {"chameleon": "cc"})
    world.deploy_mep_pool("chameleon", 2)
    client = ComputeClient(world.faas, user.client_id, user.client_secret)
    world.arm_faults()
    fid = client.register_function(_work, "work")
    futures = [client.submit("chameleon", fid, 2.0 + i) for i in range(4)]
    results = [f.result() for f in futures]
    return results, list(world.faas.router.decisions), journal


@pytest.mark.parametrize("policy", sorted(POLICIES))
class TestPlacementDeterminism:
    def test_same_seed_same_decisions_and_journal(self, policy):
        results_a, decisions_a, journal_a = _pooled_run(policy)
        results_b, decisions_b, journal_b = _pooled_run(policy)
        assert results_a == results_b == [2.0, 3.0, 4.0, 5.0]
        assert decisions_a == decisions_b
        assert decisions_a, "pool submissions produced no routing decisions"
        assert all(d.routed_by == policy for d in decisions_a)
        # RouteDecision is frozen+eq, so list equality is field-for-field;
        # the journals must agree byte-for-byte (chained record hashes)
        assert len(journal_a) == len(journal_b) > 0
        assert journal_a.head_hash == journal_b.head_hash

    def test_tasks_carry_placement_provenance(self, policy):
        _, decisions, _ = _pooled_run(policy)
        assert {d.pool for d in decisions} == {"chameleon"}
