"""Fail-slow defense: tail latency with and without hedged execution.

The gray-failure scenario the fail-slow literature (and the hedging
plane) is built around: one pooled site serves a steady single-tenant
workload, and the ``fail-slow`` chaos profile degrades one pool member —
it stays online, keeps succeeding, and quietly runs 3–6x slow for most
of the run. Nothing in the resilience plane fires (no errors, no breaker
trips, no retries), so an undefended service pays the full price in tail
latency: every task routed to the gray member inflates p95/p99, and the
member's queue compounds it.

``run_fig4_failslow`` runs three worlds against the same seed:

* **defense-off** — least-loaded routing, health routing enabled, no
  hedging (health has no gray signal, so the slow member keeps winning
  ties);
* **defense-on** — the same world plus the hedging plane: the straggler
  detector feeds gray scores into health-aware routing, and dispatches
  that outlive the quantile-derived deadline get a speculative duplicate
  on another member, first result wins;
* **fault-free control** — the defense-on world without the fault plan,
  proving the plane is quiescent on a healthy pool (zero hedges).

All arrivals and durations come from ``random.Random(seed)``, and every
hedge decision depends only on virtual-time observations, so two
same-seed runs — and their formatted reports — are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.experiments import common
from repro.faas.client import ComputeClient
from repro.faas.hedging import HedgeConfig, HedgeStats
from repro.faas.task import TaskState
from repro.faults.profiles import FAILSLOW_SITE, build_profile
from repro.telemetry.metrics import percentile
from repro.world import World


@dataclass(frozen=True)
class HedgingParams:
    """One comparison's knobs; everything derives from these + the seed."""

    seed: int = 7
    profile: str = "fail-slow"
    endpoints: int = 3
    horizon: float = 1600.0
    mean_interarrival: float = 6.0
    min_seconds: float = 4.0
    max_seconds: float = 20.0


@dataclass(frozen=True)
class HedgeArrival:
    at: float
    duration: float


def generate_failslow_workload(params: HedgingParams) -> List[HedgeArrival]:
    """Seeded Poisson arrivals with bounded-uniform task durations.

    Durations are bounded (no heavy tail) on purpose: with a healthy
    ceiling of ``max_seconds`` the pooled p95 sits just under it, the
    hedge deadline lands above anything a healthy member can take, and
    every hedge the defended run launches is attributable to the
    fail-slow windows — the fault-free control proving exactly that.
    """
    rng = random.Random(params.seed)
    arrivals: List[HedgeArrival] = []
    t = rng.expovariate(1.0 / params.mean_interarrival)
    while t < params.horizon:
        arrivals.append(
            HedgeArrival(
                round(t, 6),
                round(rng.uniform(params.min_seconds, params.max_seconds), 6),
            )
        )
        t += rng.expovariate(1.0 / params.mean_interarrival)
    return arrivals


def hedge_config(params: HedgingParams) -> HedgeConfig:
    """Hedge tuning sized to the workload's duration envelope.

    The deadline floor sits above ``max_seconds`` so a healthy dispatch
    can never be hedged even before the sample window warms up; after
    warm-up the pooled p95 (≈ the duration ceiling) times the factor
    keeps the deadline in the same place, so only fail-slow-stretched
    dispatches cross it.
    """
    return HedgeConfig(
        quantile=95.0,
        factor=1.5,
        min_samples=20,
        min_deadline=params.max_seconds * 1.25,
        window=600.0,
        detector_window=600.0,
        flag_ratio=2.0,
        detector_min_samples=5,
    )


@dataclass
class FailSlowRunResult:
    params: HedgingParams
    hedged: bool
    world: Any
    makespan: float
    submitted: int
    completed: int
    p50: float
    p95: float
    p99: float
    # the plane's own counters; all zero for the unhedged run
    hedge: HedgeStats
    # exactly-once audit: futures still pending at idle, and tasks that
    # emitted more than one ``task.completed`` (both must be zero)
    unresolved_futures: int = 0
    double_resolutions: int = 0


def run_failslow(
    params: HedgingParams,
    hedged: bool = True,
    fault_free: bool = False,
) -> FailSlowRunResult:
    """One world, one seed, the full fail-slow workload."""
    plan = None if fault_free else build_profile(params.profile, params.seed)
    world = World(
        telemetry=True,
        streaming_metrics=True,
        faults=plan,
        # fail-slow never takes an endpoint offline, but keep the same
        # dispatch-time liveness semantics as the other pooled runs
        offline_policy="queue",
        placement_policy="least-loaded",
        hedge=hedge_config(params) if hedged else None,
    )
    # both runs route health-aware; only the defended run has a gray
    # signal to feed it, so the routing delta is the detector's alone
    world.enable_observability(health_routing=True)
    user = world.register_user("hedger", {FAILSLOW_SITE: "x-hedger"})
    client = ComputeClient(world.faas, user.client_id, user.client_secret)
    common.deploy_site_mep_pool(world, FAILSLOW_SITE, size=params.endpoints)
    function_id = client.register_function(common.virtual_work, "failslow-work")

    futures = []
    started_at = common.run_open_loop(
        world,
        generate_failslow_workload(params),
        lambda arrival: futures.append(
            client.submit(FAILSLOW_SITE, function_id, arrival.duration)
        ),
    )

    tasks = world.faas.tasks_for(user.identity.urn)
    latencies: List[float] = []
    completed = 0
    last_done = started_at
    for task in tasks:
        if task.state is TaskState.SUCCESS and task.completed_at is not None:
            completed += 1
            latencies.append(task.completed_at - task.submitted_at)
            last_done = max(last_done, task.completed_at)
    # makespan from the last completion, not clock.now: stale no-op
    # hedge-deadline events keep the queue warm past the real finish
    makespan = max(last_done - started_at, 1e-9)

    completions: Dict[str, int] = {}
    for event in world.events.query("faas", "task.completed"):
        task_id = event.data.get("task_id", "")
        completions[task_id] = completions.get(task_id, 0) + 1

    controller = world.faas.hedging
    return FailSlowRunResult(
        params=params,
        hedged=hedged,
        world=world,
        makespan=makespan,
        submitted=len(tasks),
        completed=completed,
        p50=percentile(latencies, 50.0),
        p95=percentile(latencies, 95.0),
        p99=percentile(latencies, 99.0),
        hedge=controller.stats if controller is not None else HedgeStats(),
        unresolved_futures=sum(1 for f in futures if not f.done()),
        double_resolutions=sum(1 for n in completions.values() if n > 1),
    )


@dataclass
class FailSlowComparison:
    """Three same-seed runs: undefended, defended, and the quiet control."""

    params: HedgingParams
    unhedged: FailSlowRunResult
    hedged: FailSlowRunResult
    fault_free: FailSlowRunResult

    @property
    def p99_cut(self) -> float:
        """Fractional p99 reduction of the defended run (0.30 = 30%)."""
        if self.unhedged.p99 <= 0:
            return 0.0
        return (self.unhedged.p99 - self.hedged.p99) / self.unhedged.p99

    @property
    def p95_cut(self) -> float:
        if self.unhedged.p95 <= 0:
            return 0.0
        return (self.unhedged.p95 - self.hedged.p95) / self.unhedged.p95


def run_fig4_failslow(params: HedgingParams) -> FailSlowComparison:
    return FailSlowComparison(
        params=params,
        unhedged=run_failslow(params, hedged=False),
        hedged=run_failslow(params, hedged=True),
        fault_free=run_failslow(params, hedged=True, fault_free=True),
    )


def format_hedging_report(comparison: FailSlowComparison) -> str:
    """The fail-slow defense figure, deterministic to the byte."""
    p = comparison.params
    off, on = comparison.unhedged, comparison.hedged
    quiet = comparison.fault_free
    lines = [
        f"Fail-slow Fig. 4 — seed {p.seed}, profile {p.profile!r}",
        f"pool: {p.endpoints}x {FAILSLOW_SITE!r}; mean interarrival "
        f"{p.mean_interarrival:g}s; durations "
        f"{p.min_seconds:g}-{p.max_seconds:g}s over {p.horizon:g}s",
        "",
    ]
    lines += common.comparison_table("defense-off", "defense-on", [
        ("completed / submitted", f"{off.completed}/{off.submitted}",
         f"{on.completed}/{on.submitted}"),
        ("makespan (s)", f"{off.makespan:.1f}", f"{on.makespan:.1f}"),
        ("p50 latency (s)", f"{off.p50:.1f}", f"{on.p50:.1f}"),
        ("p95 latency (s)", f"{off.p95:.1f}", f"{on.p95:.1f}"),
        ("p99 latency (s)", f"{off.p99:.1f}", f"{on.p99:.1f}"),
        ("stragglers flagged", str(off.hedge.stragglers_flagged),
         str(on.hedge.stragglers_flagged)),
        ("hedges launched", str(off.hedge.hedges_launched),
         str(on.hedge.hedges_launched)),
        ("hedges won / cancelled",
         f"{off.hedge.hedges_won}/{off.hedge.hedges_cancelled}",
         f"{on.hedge.hedges_won}/{on.hedge.hedges_cancelled}"),
        ("wasted work (s)", f"{off.hedge.wasted_seconds:.1f}",
         f"{on.hedge.wasted_seconds:.1f}"),
        ("wasted work share", f"{off.hedge.wasted_ratio() * 100:.1f}%",
         f"{on.hedge.wasted_ratio() * 100:.1f}%"),
    ])
    lines.append("")
    lines.append(
        f"p95 cut: {comparison.p95_cut * 100:.1f}%   "
        f"p99 cut: {comparison.p99_cut * 100:.1f}% (gate: >=30%)"
    )
    lines.append(
        f"wasted work share: {on.hedge.wasted_ratio() * 100:.1f}% "
        "(gate: <=10%)"
    )
    lines.append(
        "double resolutions: "
        f"{off.double_resolutions + on.double_resolutions + quiet.double_resolutions}"
    )
    lines.append(
        "unresolved futures: "
        f"{off.unresolved_futures + on.unresolved_futures + quiet.unresolved_futures}"
    )
    lines.append(f"hedges on fault-free run: {quiet.hedge.hedges_launched}")
    return "\n".join(lines)
