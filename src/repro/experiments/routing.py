"""Pooled Fig. 4: placement policies over multi-endpoint sites.

The paper's Fig. 4 pins one endpoint per site, so a site's whole test
suite serializes through one MEP. With the placement plane the same
suite can be *sharded*: each site deploys a pool of N endpoints, the
workflow splits pytest into shards via ``-k`` expressions, and every
shard targets the **site name** — the router's policy decides which pool
member runs it.

``run_fig4_pooled`` runs the sharded workflow twice on identical worlds:
once under ``pinned`` (every shard lands on pool member 0, today's
behavior) and once under the requested policy (``least-loaded`` by
default). Because the shards are balanced by *effective* cost (work
divided by each case's thread count), any policy that actually spreads
them across the pool cuts the makespan — the measurable win the routing
CLI and ``benchmarks/test_routing.py`` assert.

The pooled run uses the cloud site only. On the batch sites a
second pool member provisions its own SLURM pilot, and under the
catalog's background load one node frees every 150–240 s — so the extra
cold-pilot queue wait exceeds the ~80 s of shard work it would absorb,
and pooling *loses* there (measured: 614 s vs 419 s across all three
sites). Fan-out across pool members pays off exactly where execution
starts are cheap: cloud instances and login-node endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.faas.placement import RouteDecision
from repro.suites import run_suite

# Sites the pooled comparison runs on (see the module docstring for why
# the batch sites sit this one out).
ROUTE_SITES: Tuple[str, ...] = ("chameleon",)
ROUTE_SUITE = "fig4-sharded"

# Near-balanced split of the ParslDock suite by *effective* cost — work
# divided by each case's thread count, the time a multi-core node
# actually spends: shard A ≈ 75.0 s, shard B ≈ 78.2 s at reference
# speed. Keywords use the simulated pytest's ``-k "a or b"``
# any-substring matching; together the shards cover all ten cases with
# no overlap.
SHARDS: Tuple[Tuple[str, str], ...] = (
    ("shard-a", "scores or exhaustive or conformer or weight"),
    ("shard-b", "single or pipeline or surrogate or prepare or parse"),
)


@dataclass
class PooledRun:
    """One sharded, pooled Fig. 4 run under a single placement policy."""

    policy: str
    pool_size: int
    makespan: float
    run: object
    decisions: List[RouteDecision]
    # site -> shard -> endpoint id the shard's tasks actually ran on
    placements: Dict[str, Dict[str, str]] = field(default_factory=dict)
    world: object = None

    def endpoints_used(self) -> int:
        """Distinct endpoints that received at least one shard."""
        return len({
            endpoint_id
            for shards in self.placements.values()
            for endpoint_id in shards.values()
        })


@dataclass
class RoutingComparison:
    """The same pooled workload under ``pinned`` vs. another policy."""

    pinned: PooledRun
    routed: PooledRun

    @property
    def improvement(self) -> float:
        """Fractional makespan cut of the routed run vs. pinned."""
        if not self.pinned.makespan:
            return 0.0
        return 1.0 - self.routed.makespan / self.pinned.makespan

    @property
    def routed_is_faster(self) -> bool:
        return self.routed.makespan < self.pinned.makespan


def run_pooled(
    policy: str, pool_size: int = 2, telemetry: bool = True
) -> PooledRun:
    """One sharded suite run on ``pool_size`` endpoints per site.

    The workload comes from ``suites/fig4-sharded.yaml``, whose jobs use
    ``route: pool`` — each job targets its *site name* and the router's
    policy picks a pool member. Placements are keyed by each instance's
    ``shard`` variable.
    """
    suite_run = run_suite(
        ROUTE_SUITE,
        overrides={"site": list(ROUTE_SITES)},
        strict=True,
        telemetry=telemetry,
        concurrent_jobs=True,
        placement_policy=policy,
        pool_size=pool_size,
        gated=False,
    )
    world = suite_run.world
    by_artifact = {
        instance.stdout_artifact: instance
        for instance in suite_run.mat.active
    }
    placements: Dict[str, Dict[str, str]] = {
        site: {} for site in suite_run.mat.sites()
    }
    for record in world.provenance.all():
        instance = by_artifact.get(record.stdout_artifact)
        if instance is not None:
            shard = str(instance.variables["shard"])
            placements[instance.target][shard] = record.endpoint_id
    return PooledRun(
        policy=policy,
        pool_size=pool_size,
        makespan=suite_run.makespan,
        run=suite_run.run,
        decisions=list(world.faas.router.decisions),
        placements=placements,
        world=world,
    )


def run_fig4_pooled(
    policy: str = "least-loaded",
    pool_size: int = 2,
    telemetry: bool = True,
) -> RoutingComparison:
    """Sharded Fig. 4 under ``pinned`` vs. ``policy`` on identical pools.

    Both runs build the same world, pools, and workflow; only the FaaS
    placement policy differs. Under ``pinned`` every shard serializes
    through pool member 0 of its site; a load-spreading policy runs the
    shards side by side, cutting the makespan.
    """
    pinned = run_pooled("pinned", pool_size=pool_size, telemetry=telemetry)
    routed = run_pooled(policy, pool_size=pool_size, telemetry=telemetry)
    return RoutingComparison(pinned=pinned, routed=routed)


def format_routing_report(comparison: RoutingComparison) -> str:
    """Plain-text report for the ``route`` CLI subcommand."""
    pinned, routed = comparison.pinned, comparison.routed
    lines = [
        f"Pooled Fig. 4 — placement policy '{routed.policy}' vs 'pinned' "
        f"({routed.pool_size} endpoints/site)",
        "",
        f"  pinned       makespan {pinned.makespan:10.2f}s   "
        f"endpoints used: {pinned.endpoints_used()}",
        f"  {routed.policy:<12} makespan {routed.makespan:10.2f}s   "
        f"endpoints used: {routed.endpoints_used()}",
        "",
        f"makespan cut: {100.0 * comparison.improvement:.1f}%",
        "",
        "shard placement (routed run):",
    ]
    lines.extend(
        f"  {site_name:<12} {shard_name:<8} -> {endpoint_id[:8]}"
        for site_name, shards in sorted(routed.placements.items())
        for shard_name, endpoint_id in sorted(shards.items())
    )
    lines.append("")
    lines.append(
        f"routing decisions recorded: {len(routed.decisions)} "
        f"(policy={routed.policy})"
    )
    lines.extend(
        f"  pool={decision.pool:<12} -> {decision.endpoint_id[:8]}  "
        f"depth_at_route={decision.queue_depth_at_route}"
        for decision in routed.decisions
    )
    return "\n".join(lines)
