"""Chaos experiments: the paper's figures under injected faults.

``run_suite_chaos`` replays *any* declarative suite with a seeded fault
plan armed and the resilience layer on: endpoint outages and injected
task errors are absorbed by retries with deterministic backoff, a
hard-down site trips its circuit breaker, and the run degrades to a
per-instance partial result instead of crashing. ``run_fig4_chaos`` is
the historical entry point — ``suites/fig4.yaml`` under chaos —
and ``run_fig5_chaos`` reproduces §6.2's failing-test artifact through
fault injection against the *fixed* PSI/J suite, proving the fault
layer converges on the hard-coded defect path.

Everything is virtual-time deterministic: the same seed produces
byte-identical reports (``tests/test_pinned_reports.py`` asserts the
seed-7 Fig. 4 report and the Fig. 5 one against pinned files).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.fig4_parsldock import FIG4_SITES
from repro.experiments.fig5_psij import Fig5Result, run_fig5
from repro.faults.plan import FaultPlan
from repro.faults.profiles import (
    DOWN_SITE,
    FLAKY_SITE,
    build_profile,
    profiled_retry,
)
from repro.faults.resilience import BreakerPolicy
from repro.suites import SuiteRun, load_suite, run_suite

# a breaker every chaos run shares: it opens fast enough for the
# hard-down site to trip it within one task's CHAOS_RETRY budget
CHAOS_BREAKER = BreakerPolicy(failure_threshold=3, reset_timeout=1800.0)

# graceful degradation routing: the flaky site may fail over to the
# healthy cloud site; the hard-down site deliberately has no fallback,
# so its breaker opening skips the site instead
CHAOS_FALLBACKS = {FLAKY_SITE: "chameleon"}


@dataclass
class ChaosFig4Result:
    """Fig. 4 under faults: per-site partial results + recovery audit."""

    run: object
    plan: FaultPlan
    site_status: Dict[str, str]  # site -> "ok" | "skipped"
    skip_reasons: Dict[str, str]
    durations: Dict[str, Dict[str, float]]  # only sites that completed
    outcomes: Dict[str, Dict[str, str]]
    resilience: Dict
    breakers: Dict[str, Dict]
    injected: List[Dict] = field(default_factory=list)  # every fired fault
    records_with_seed: int = 0
    world: object = None

    @property
    def sites_ok(self) -> List[str]:
        return [s for s, st in self.site_status.items() if st == "ok"]


def run_suite_chaos(
    suite,
    seed: int = 7,
    profile: str = "flaky-endpoint",
    telemetry: bool = True,
    overrides: Optional[Dict] = None,
    world_setup=None,
) -> SuiteRun:
    """Execute any declarative suite with the named fault profile armed.

    The flaky site's failures are retried (and, if its breaker opens,
    failed over to the declared fallback); a permanently-down site
    exhausts its retry budget, trips its breaker, and its job fails —
    the run reports partial results per instance with the skip reason,
    and never raises out of the harness. Faults are armed *after* setup,
    so fault times mean "virtual seconds into the CI run". The suite's
    own ``retry:`` block, if any, replaces the chaos retry policy.
    """
    spec = load_suite(suite)
    plan = build_profile(profile, seed)
    return run_suite(
        spec,
        overrides=overrides,
        telemetry=telemetry,
        world_setup=world_setup,
        faults=plan,
        arm_faults="after-setup",
        retry_policy=profiled_retry(seed, spec.retry),
        breaker=CHAOS_BREAKER,
        # offline endpoints reject at dispatch (retryably), not at the
        # cloud's front door — the degraded path instead of a crash
        offline_policy="queue",
        fallbacks=dict(CHAOS_FALLBACKS),
        strict=False,
    )


def run_fig4_chaos(
    seed: int = 7,
    profile: str = "flaky-endpoint",
    telemetry: bool = True,
    world_setup=None,
) -> ChaosFig4Result:
    """Execute Fig. 4 (as a suite) with the named fault profile armed.

    ``world_setup(world)``, if given, runs right after construction —
    the hook the observability experiment uses to attach its plane
    before any event flows.
    """
    suite_run = run_suite_chaos(
        "fig4",
        seed=seed,
        profile=profile,
        telemetry=telemetry,
        overrides={"site": list(FIG4_SITES)},
        world_setup=world_setup,
    )
    world = suite_run.world

    site_status: Dict[str, str] = {}
    skip_reasons: Dict[str, str] = {}
    durations: Dict[str, Dict[str, float]] = {}
    outcomes: Dict[str, Dict[str, str]] = {}
    for result in suite_run.results:
        key = result.key
        if result.status == "ok":
            site_status[key] = "ok"
            parsed = result.parsed or {}
            durations[key] = {n: d for n, (_, d) in parsed.items()}
            outcomes[key] = {n: o for n, (o, _) in parsed.items()}
        else:
            site_status[key] = "skipped"
            skip_reasons[key] = result.reason

    records_with_seed = sum(
        1 for record in world.provenance.all() if record.fault_seed == seed
    )
    breakers = {
        site_name: world.faas.breaker_for(
            suite_run.endpoints[site_name]
        ).snapshot()
        for site_name in suite_run.endpoints
    }
    return ChaosFig4Result(
        run=suite_run.run,
        plan=world.fault_injector.plan,
        site_status=site_status,
        skip_reasons=skip_reasons,
        durations=durations,
        outcomes=outcomes,
        resilience=world.faas.resilience.summary(),
        breakers=breakers,
        injected=[
            {"time": e.time, "kind": e.kind, **e.data}
            for e in world.events.query("fault") if e.kind != "plan.armed"
        ],
        records_with_seed=records_with_seed,
        world=world,
    )


def run_fig5_chaos(telemetry: bool = True) -> Fig5Result:
    """§6.2's failing artifact reproduced by injection (fixed suite).

    The plan is a single deterministic test failure, so no seed applies.
    """
    return run_fig5(telemetry=telemetry, inject_failure=True)


def format_chaos_report(result: ChaosFig4Result) -> str:
    """Deterministic plain-text report (byte-identical per seed)."""
    plan = result.plan
    lines = [
        f"Chaos Fig. 4 — profile {plan.profile!r}, seed {plan.seed}",
        f"faults planned: {len(plan)}  "
        f"(flaky site: {FLAKY_SITE}, hard-down site: {DOWN_SITE})",
        "",
        f"run status: {result.run.status}",
        "",
        "per-site results:",
    ]
    for site, status in result.site_status.items():
        if status == "ok":
            tests = result.outcomes.get(site, {})
            passed = sum(1 for o in tests.values() if o == "PASSED")
            total_s = sum(result.durations.get(site, {}).values())
            lines.append(
                f"  {site:<12} ok       {passed}/{len(tests)} passed"
                f"  ({total_s:8.2f}s of tests)"
            )
        else:
            reason = result.skip_reasons.get(site, "")
            lines.append(f"  {site:<12} SKIPPED  {reason}")
    res = result.resilience
    lines += [
        "",
        "resilience:",
        f"  retries:       {res['retries']}",
        f"  failovers:     {res['failovers']}",
        f"  breaker trips: {res['breaker_trips']}",
        f"  timeouts:      {res['timeouts']}",
        f"  give-ups:      {res['give_ups']}",
        "  errors absorbed: "
        + (
            ", ".join(f"{k}={v}" for k, v in res["by_error"].items())
            or "none"
        ),
        "",
        "breakers:",
    ]
    lines.extend(
        f"  {site:<12} state={snap['state']:<9} trips={snap['trips']}"
        for site, snap in result.breakers.items()
    )
    lines += ["", f"injected faults fired: {len(result.injected)}"]
    for entry in result.injected:
        extra = {
            k: v for k, v in entry.items() if k not in ("time", "kind")
        }
        detail = ", ".join(f"{k}={v}" for k, v in sorted(extra.items()))
        lines.append(f"  t={entry['time']:10.2f}  {entry['kind']:<22} {detail}")
    lines += [
        "",
        f"provenance: {result.records_with_seed} execution record(s) "
        f"carry fault seed {plan.seed}",
    ]
    return "\n".join(lines)
