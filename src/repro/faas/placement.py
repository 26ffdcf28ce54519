"""The placement plane: pools, routing policies, and the router.

A task submission names a *target*. When the target is a registered
endpoint id, placement is **pinned** — the router is bypassed entirely
and the task goes exactly where the caller said (today's behavior, and
the default). When the target names an :class:`EndpointPool` (or the
site a pool serves), the :class:`Router` picks a member endpoint with a
pluggable, deterministic policy:

* ``pinned`` — always the pool's first-registered member;
* ``round-robin`` — cycle through members in registration order;
* ``least-loaded`` — the member with the fewest live (submitted but not
  yet finalized) tasks, ties broken by registration order;
* ``weighted`` — smooth weighted round-robin, weights taken from each
  member site's hardware profile (``cpu_speed``), so faster machines
  absorb proportionally more work.

Members that are *inadmissible* — offline (which includes lease-expired:
expiry marks the endpoint offline) or behind an open circuit breaker —
are excluded before the policy runs, so a pool routes around a sick
endpoint instead of submitting to it and failing over afterwards. If no
member is admissible the full member list is used, which lands the task
on the normal offline/breaker machinery with its existing semantics.

Every pool resolution produces a :class:`RouteDecision`; decisions are
appended to :attr:`Router.decisions` and stamped onto the task, its
telemetry span, and its provenance record (``routed_by``, ``pool``,
``queue_depth_at_route``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import EndpointNotFound


@dataclass(frozen=True, slots=True)
class RouteDecision:
    """The outcome of one target resolution."""

    endpoint_id: str
    routed_by: str = ""  # policy name; "" = explicit endpoint target
    pool: str = ""  # pool name; "" = explicit endpoint target
    queue_depth_at_route: int = 0

    @property
    def explicit(self) -> bool:
        return self.pool == ""


@dataclass
class EndpointPool:
    """N endpoints serving one site (or one logical group) under a name.

    Member order is registration order; every policy treats it as the
    canonical order, which is what makes routing deterministic.
    """

    name: str
    site: str = ""
    members: List[str] = field(default_factory=list)

    def add(self, endpoint_id: str) -> None:
        if endpoint_id not in self.members:
            self.members.append(endpoint_id)


class PlacementPolicy:
    """Base class: pick one member from an admissible, ordered list."""

    name = "policy"

    def choose(self, pool: EndpointPool, members: List[str], router: "Router") -> str:
        raise NotImplementedError


class PinnedPolicy(PlacementPolicy):
    """Always the first member — a pool behaves like a single endpoint."""

    name = "pinned"

    def choose(self, pool: EndpointPool, members: List[str], router: "Router") -> str:
        return members[0]


class RoundRobinPolicy(PlacementPolicy):
    """Cycle through members in registration order, one counter per pool."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next: Dict[str, int] = {}

    def choose(self, pool: EndpointPool, members: List[str], router: "Router") -> str:
        index = self._next.get(pool.name, 0)
        # the cursor walks the *full* member list so a temporarily-skipped
        # (inadmissible) endpoint resumes its turn when it comes back
        for _ in range(len(pool.members)):
            candidate = pool.members[index % len(pool.members)]
            index += 1
            if candidate in members:
                self._next[pool.name] = index
                return candidate
        self._next[pool.name] = index
        return members[0]


class LeastLoadedPolicy(PlacementPolicy):
    """The member with the fewest live tasks; ties go to registration order.

    With a health source attached to the router (see
    :attr:`Router.health_of`), equal queue depths are broken by the
    *higher* health score before falling back to registration order —
    so among idle members the one that has not been failing lately
    wins. Only the members tied at the lowest depth are scored, since
    no deeper member can win whatever its health: the pick equals
    ``min(members, key=lambda e: (depth(e), -health(e)))`` at a fraction
    of the scoring. Without a health source the key is depth alone, and
    routing is byte-identical to the pre-observability behavior.
    """

    name = "least-loaded"

    def choose(self, pool: EndpointPool, members: List[str], router: "Router") -> str:
        depths = [router.queue_depth(eid) for eid in members]
        lowest = min(depths)
        tied = [eid for eid, depth in zip(members, depths) if depth == lowest]
        health_of = router.health_of
        if health_of is None:
            return tied[0]
        # Score even a lone tied member: with the hedging plane attached a
        # score reads the straggler detector, which prunes every endpoint's
        # window at ``now``. One score prunes exactly what scoring every
        # member did, so a read after a measured region rewinds the clock
        # still sees the same windows. max() keeps the first of equal
        # scores, which is registration order.
        return max(tied, key=health_of)


class WeightedPolicy(PlacementPolicy):
    """Smooth weighted round-robin over site hardware speeds.

    Classic nginx algorithm: each pick adds every member's weight to its
    running credit, the largest credit wins and pays back the total
    weight. Deterministic, and over W picks each member receives work in
    proportion to its weight.
    """

    name = "weighted"

    def __init__(self) -> None:
        self._credit: Dict[str, float] = {}

    def choose(self, pool: EndpointPool, members: List[str], router: "Router") -> str:
        weights = {eid: max(router.weight_of(eid), 1e-9) for eid in members}
        for eid in members:
            self._credit[eid] = self._credit.get(eid, 0.0) + weights[eid]
        best = max(members, key=lambda eid: (self._credit[eid], -members.index(eid)))
        self._credit[best] -= sum(weights.values())
        return best


POLICIES = {
    policy.name: policy
    for policy in (PinnedPolicy, RoundRobinPolicy, LeastLoadedPolicy, WeightedPolicy)
}


class Router:
    """Resolves submission targets to endpoints.

    Decoupled from the service through three callables:

    * ``queue_depth(endpoint_id)`` — live assigned-task count,
    * ``admissible(endpoint_id)`` — online and breaker not open,
    * ``weight_of(endpoint_id)`` — relative hardware speed,

    plus an optional fourth, ``health_of(endpoint_id)`` → score in
    [0, 1], attached by :meth:`FaaSService.attach_health` when the
    observability plane is enabled. Policies may consult it as a
    tie-breaker; ``None`` (the default) keeps routing byte-identical.
    """

    def __init__(
        self,
        queue_depth: Callable[[str], int],
        admissible: Callable[[str], bool],
        weight_of: Callable[[str], float],
        policy: str = "pinned",
        health_of: Optional[Callable[[str], float]] = None,
    ) -> None:
        self.queue_depth = queue_depth
        self.admissible = admissible
        self.weight_of = weight_of
        self.health_of = health_of
        self.set_policy(policy)
        self.pools: Dict[str, EndpointPool] = {}
        self._site_pools: Dict[str, str] = {}
        self.decisions: List[RouteDecision] = []

    def set_policy(self, policy: str) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown placement policy {policy!r}; choices: {sorted(POLICIES)}"
            )
        self.policy = POLICIES[policy]()

    def register_pool(self, pool: EndpointPool) -> EndpointPool:
        self.pools[pool.name] = pool
        if pool.site:
            self._site_pools.setdefault(pool.site, pool.name)
        return pool

    def pool_for(self, target: str) -> Optional[EndpointPool]:
        """The pool a target names (by pool name or served site), if any."""
        name = self._site_pools.get(target, target)
        return self.pools.get(name)

    def resolve(self, target: str) -> RouteDecision:
        """Route a pool/site target through the active policy."""
        pool = self.pool_for(target)
        if pool is None:
            raise EndpointNotFound(
                f"no endpoint, pool, or site {target!r} registered"
            )
        if not pool.members:
            raise EndpointNotFound(f"pool {pool.name!r} has no endpoints")
        members = [eid for eid in pool.members if self.admissible(eid)]
        if not members:
            # nothing healthy: hand the task to the normal offline /
            # breaker machinery rather than inventing a new failure mode
            members = list(pool.members)
        chosen = self.policy.choose(pool, members, self)
        decision = RouteDecision(
            endpoint_id=chosen,
            routed_by=self.policy.name,
            pool=pool.name,
            queue_depth_at_route=self.queue_depth(chosen),
        )
        self.decisions.append(decision)
        return decision
