"""Multi-tenant overload: goodput with and without the protection plane.

The scenario the ROADMAP's multi-tenant item and Gamblin & Katz both
describe: N tenants share one pooled site, one tenant goes hot at many
times its fair share, and the facility degrades under the `overload`
chaos profile (fault bursts + a short blackout + control-plane latency).
Every submission carries a deadline, so an unprotected service loses
throughput twice over — queued tasks time out after burning capacity,
and fault-driven retries amplify the queue they are waiting in.

``run_overload_comparison`` runs three worlds against the same seed:

* **baseline** — every tenant at fair share, fault-free, protection off
  (the per-tenant p95 yardstick);
* **unprotected** — the hot tenant floods, protection off;
* **protected** — the same flood through admission control, AIMD
  concurrency, retry budgets, and priority shedding with brownout.

All arrivals, durations, and priorities come from per-tenant
``random.Random`` streams derived from the seed, so two same-seed runs
(and therefore their formatted reports) are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from repro.experiments import common
from repro.faas.client import ComputeClient
from repro.faas.overload import (
    PRIORITY_BATCH,
    PRIORITY_CRITICAL,
    PRIORITY_NORMAL,
    OverloadConfig,
    OverloadStats,
)
from repro.faas.task import TaskState
from repro.faults.profiles import (
    FAULT_FREE_PROFILES,
    OVERLOAD_SITE,
    build_profile,
)
from repro.faults.resilience import ResilienceStats, RetryPolicy
from repro.telemetry.metrics import percentile
from repro.telemetry.slo import overload_slo_pack
from repro.world import World

# Retry tuning for overload runs: fewer, faster attempts than the chaos
# experiments — under contention a long backoff ladder just holds queue
# slots hostage past the task's own deadline.
OVERLOAD_RETRY = dict(
    max_attempts=4, base_delay=4.0, multiplier=2.0, max_delay=60.0, jitter=0.1
)


@dataclass(frozen=True)
class OverloadParams:
    """One comparison's knobs; everything derives from these + the seed."""

    tenants: int = 4
    seed: int = 7
    profile: str = "overload"
    endpoints: int = 4
    horizon: float = 900.0
    mean_seconds: float = 30.0
    hot_factor: float = 8.0
    offered_utilization: float = 0.5
    deadline: float = 60.0

    @property
    def capacity(self) -> float:
        """Aggregate pool service rate, tasks per virtual second."""
        return self.endpoints / self.mean_seconds

    @property
    def fair_rate(self) -> float:
        """Each tenant's nominal fair share of the offered utilization
        (bursts add ~60% on top, so utilization is set conservatively)."""
        return self.capacity * self.offered_utilization / self.tenants


@dataclass(frozen=True)
class Arrival:
    at: float
    tenant: int
    duration: float
    priority: int


def _duration(rng: random.Random, mean: float) -> float:
    # Pareto(alpha=2) over x_m=1 has mean 2, so half the scale recovers
    # the requested mean while keeping the heavy tail; capped at 10x so
    # one draw cannot occupy an endpoint for the whole horizon
    return round(0.5 * mean * min(10.0, rng.paretovariate(2.0)), 6)


def _priority(rng: random.Random) -> int:
    draw = rng.random()
    if draw < 0.10:
        return PRIORITY_CRITICAL
    if draw < 0.70:
        return PRIORITY_NORMAL
    return PRIORITY_BATCH


def generate_workload(params: OverloadParams) -> List[Arrival]:
    """Seeded bursty + heavy-tailed arrivals for every tenant.

    Tenant 0 offers ``hot_factor`` times its fair share; everyone else
    offers exactly fair share. Interarrivals are exponential with a 20%
    chance of a burst (2–4 extra tasks within 3 s), durations are
    Pareto-tailed, and priorities are ~10% critical / 60% normal / 30%
    batch. Each tenant draws from its own ``random.Random`` stream, so
    adding a tenant never perturbs another tenant's arrivals.
    """
    arrivals: List[Arrival] = []
    for tenant in range(params.tenants):
        rng = random.Random(params.seed * 1_000_003 + tenant)
        rate = params.fair_rate * (params.hot_factor if tenant == 0 else 1.0)
        if rate <= 0.0:
            continue
        t = rng.expovariate(rate)
        while t < params.horizon:
            arrivals.append(
                Arrival(
                    round(t, 6), tenant,
                    _duration(rng, params.mean_seconds), _priority(rng),
                )
            )
            if rng.random() < 0.2:
                for _ in range(rng.randint(2, 4)):
                    offset = t + rng.uniform(0.1, 3.0)
                    if offset >= params.horizon:
                        break
                    arrivals.append(
                        Arrival(
                            round(offset, 6), tenant,
                            _duration(rng, params.mean_seconds),
                            _priority(rng),
                        )
                    )
            t += rng.expovariate(rate)
    arrivals.sort(key=lambda a: (a.at, a.tenant))
    return arrivals


def overload_config(params: OverloadParams) -> OverloadConfig:
    """Protection tuning sized to the experiment's capacity envelope.

    Rate quotas give every tenant headroom over fair share (protection
    must not tax a well-behaved tenant), in-flight caps bound how much
    of the queue one tenant can own, the AIMD limiter backs off on
    queue depth or when dispatch p95 nears half the deadline, and shed
    watermarks sit above the admission-capped steady state so a
    fault-free fair-share run sheds exactly zero.
    """
    depth = max(6, 2 * params.endpoints)
    return OverloadConfig(
        tenant_rate=5.0 * params.fair_rate,
        tenant_burst=8.0,
        tenant_max_inflight=max(2, (3 * params.endpoints) // 2),
        aimd_initial=float(2 * params.endpoints),
        aimd_min=1.5 * params.endpoints,
        aimd_max=float(3 * params.endpoints),
        aimd_queue_high=depth + 2,
        aimd_p95_high=0.5 * params.deadline,
        aimd_cooldown=30.0,
        retry_budget=0.25,
        tenant_retry_budget=0.5,
        budget_window=300.0,
        shed_watermarks={
            PRIORITY_BATCH: depth + 4,
            PRIORITY_NORMAL: 3 * depth,
        },
        brownout_enter=depth + 2,
        brownout_exit=depth // 2,
        brownout_sample_rate=0.1,
        brownout_seed=params.seed,
    )


@dataclass
class TenantReport:
    """Per-tenant outcome: the fairness half of the goodput story."""

    login: str
    urn: str
    hot: bool
    submitted: int = 0
    completed: int = 0
    first_attempt: int = 0
    p95_queue_wait: Optional[float] = None


@dataclass
class OverloadRunResult:
    params: OverloadParams
    protection: bool
    world: Any
    makespan: float
    goodput: float
    submitted: int
    completed: int
    tenants: List[TenantReport]
    # the planes' own counters; the overload ones all zero when
    # protection is off
    stats: OverloadStats
    resilience: ResilienceStats
    # counts a brownout still open at the end, which ``stats`` does not
    brownout_seconds: float = 0.0
    alerts_fired: int = 0

    @property
    def fault_free(self) -> bool:
        return self.params.profile in FAULT_FREE_PROFILES


def run_overload(
    params: OverloadParams, protection: bool = True
) -> OverloadRunResult:
    """One world, one seed, the full multi-tenant workload."""
    world = World(
        telemetry=True,
        streaming_metrics=True,
        faults=build_profile(params.profile, params.seed),
        retry_policy=RetryPolicy(seed=params.seed, **OVERLOAD_RETRY),
        # offline endpoints reject at dispatch (retryably), not at the
        # cloud's front door — outages must not raise out of submit
        offline_policy="queue",
        placement_policy="least-loaded",
        overload=overload_config(params) if protection else None,
    )
    world.enable_observability(rules=overload_slo_pack())

    clients: List[ComputeClient] = []
    reports: List[TenantReport] = []
    for index in range(params.tenants):
        login = f"tenant-{index}"
        user = world.register_user(login, {OVERLOAD_SITE: f"x-{login}"})
        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        clients.append(client)
        reports.append(
            TenantReport(login=login, urn=client.identity_urn, hot=index == 0)
        )
    common.deploy_site_mep_pool(world, OVERLOAD_SITE, size=params.endpoints)
    function_ids = [
        client.register_function(common.virtual_work, f"overload-work-{index}")
        for index, client in enumerate(clients)
    ]

    def _submit(arrival: Arrival) -> None:
        clients[arrival.tenant].submit(
            OVERLOAD_SITE,
            function_ids[arrival.tenant],
            arrival.duration,
            timeout=params.deadline,
            priority=arrival.priority,
        )

    started_at = common.run_open_loop(world, generate_workload(params), _submit)
    end = world.clock.now
    makespan = max(end - started_at, 1e-9)

    total_first = 0
    for report in reports:
        tasks = world.faas.tasks_for(report.urn)
        report.submitted = len(tasks)
        waits = []
        for task in tasks:
            if task.state is TaskState.SUCCESS:
                report.completed += 1
                if task.attempts == 1:
                    report.first_attempt += 1
            wait = task.queue_latency
            if wait is not None:
                waits.append(wait)
        if waits:
            report.p95_queue_wait = percentile(waits, 95.0)
        total_first += report.first_attempt

    controller = world.faas.overload
    return OverloadRunResult(
        params=params,
        protection=protection,
        world=world,
        makespan=makespan,
        goodput=total_first / makespan,
        submitted=sum(r.submitted for r in reports),
        completed=sum(r.completed for r in reports),
        tenants=reports,
        stats=controller.stats if controller is not None else OverloadStats(),
        resilience=world.faas.resilience,
        brownout_seconds=(
            controller.brownout_seconds(end) if controller is not None else 0.0
        ),
        alerts_fired=world.slo.alerts_fired,
    )


@dataclass
class OverloadComparison:
    """Three same-seed runs: yardstick, collapse, and protection."""

    params: OverloadParams
    baseline: OverloadRunResult
    unprotected: OverloadRunResult
    protected: OverloadRunResult

    @property
    def goodput_ratio(self) -> float:
        if self.unprotected.goodput <= 0.0:
            return float("inf") if self.protected.goodput > 0.0 else 1.0
        return self.protected.goodput / self.unprotected.goodput

    def victim_p95_ratios(self) -> Dict[str, float]:
        """Protected-run p95 queue wait over fair-share baseline, per
        non-hot tenant (the acceptance criterion's fairness bound)."""
        ratios: Dict[str, float] = {}
        baseline = {r.login: r.p95_queue_wait for r in self.baseline.tenants}
        for report in self.protected.tenants:
            if report.hot:
                continue
            fair = baseline.get(report.login)
            if not fair or report.p95_queue_wait is None:
                continue
            ratios[report.login] = report.p95_queue_wait / fair
        return ratios

    def victims_within(self, factor: float = 1.5) -> bool:
        return all(r <= factor for r in self.victim_p95_ratios().values())


def run_overload_comparison(params: OverloadParams) -> OverloadComparison:
    baseline = run_overload(
        replace(params, hot_factor=1.0, profile="none"), protection=False
    )
    unprotected = run_overload(params, protection=False)
    protected = run_overload(params, protection=True)
    return OverloadComparison(params, baseline, unprotected, protected)


def format_overload_report(comparison: OverloadComparison) -> str:
    """The goodput-under-overload figure, deterministic to the byte."""
    p = comparison.params
    off, on = comparison.unprotected, comparison.protected
    lines = [
        f"Overload Fig. 4 — {p.tenants} tenants, seed {p.seed}, "
        f"profile {p.profile!r}",
        f"pool: {p.endpoints}x {OVERLOAD_SITE!r}; mean task "
        f"{p.mean_seconds:g}s; deadline {p.deadline:g}s; "
        f"hot tenant at {p.hot_factor:g}x fair share",
        "",
    ]
    lines += common.comparison_table("protection-off", "protection-on", [
        ("goodput (first-try/s)", f"{off.goodput:.4f}", f"{on.goodput:.4f}"),
        ("makespan (s)", f"{off.makespan:.1f}", f"{on.makespan:.1f}"),
        ("completed / submitted", f"{off.completed}/{off.submitted}",
         f"{on.completed}/{on.submitted}"),
        ("rejected (quota+aimd)", str(off.stats.rejected - off.stats.shed),
         str(on.stats.rejected - on.stats.shed)),
        ("shed (priority)", str(off.stats.shed), str(on.stats.shed)),
        ("retries / denied",
         f"{off.resilience.retries}/{off.stats.retries_denied}",
         f"{on.resilience.retries}/{on.stats.retries_denied}"),
        ("give-ups", str(off.resilience.give_ups), str(on.resilience.give_ups)),
        ("timeouts", str(off.resilience.timeouts), str(on.resilience.timeouts)),
        ("aimd backoffs", str(off.stats.backoffs), str(on.stats.backoffs)),
        ("brownout (s)", f"{off.brownout_seconds:.1f}",
         f"{on.brownout_seconds:.1f}"),
        ("alerts fired", str(off.alerts_fired), str(on.alerts_fired)),
    ])
    lines.append("")
    lines.append(
        f"{'tenant':12}{'role':>8}{'fair p95':>12}{'off p95':>12}{'on p95':>12}"
    )
    baseline_p95 = {
        r.login: r.p95_queue_wait for r in comparison.baseline.tenants
    }

    def _fmt(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.1f}"

    off_p95 = {r.login: r.p95_queue_wait for r in off.tenants}
    lines.extend(
        f"{report.login:12}{'hot' if report.hot else 'fair':>8}"
        f"{_fmt(baseline_p95.get(report.login)):>12}"
        f"{_fmt(off_p95.get(report.login)):>12}"
        f"{_fmt(report.p95_queue_wait):>12}"
        for report in on.tenants
    )
    lines.append("")
    ratio = comparison.goodput_ratio
    ratio_text = "inf" if ratio == float("inf") else f"{ratio:.2f}"
    beats = "yes" if ratio > 1.0 else "no"
    lines.append(f"goodput ratio (on/off): {ratio_text}x")
    lines.append(
        f"protection-on goodput strictly beats protection-off: {beats}"
    )
    lines.append(
        "victim p95 within 1.5x fair baseline: "
        f"{'yes' if comparison.victims_within(1.5) else 'no'}"
    )
    lines.append(f"sheds under protection: {on.stats.shed}")
    return "\n".join(lines)
