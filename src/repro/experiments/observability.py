"""Observability experiments: Fig. 4 watched by the continuous plane.

``run_fig4_obs`` executes the §6.1 workflow — fault-free, or under a
seeded chaos profile — with the observability plane attached *before*
any event flows: windowed time-series recording, the default (or a
caller-supplied) SLO pack evaluating at every bucket boundary, and the
health scorer reading the same store. The result carries everything the
``repro obs`` CLI renders or exports: the alert timeline, closing
health, per-window p95 series, OpenMetrics text, and the JSON
dashboard snapshot.

Determinism is the point: the plane only *observes* the same event
stream the chaos experiments already pin byte-identical per seed, and
SLO evaluation happens at virtual-time bucket boundaries — so two runs
with the same seed produce identical series, identical alert
timelines, and identical reports (``tests/test_pinned_reports.py``
pins them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.chaos import run_fig4_chaos
from repro.experiments.fig4_parsldock import run_fig4
from repro.faults.profiles import FAULT_FREE_PROFILES
from repro.telemetry import (
    DEFAULT_WINDOW,
    dashboard_snapshot,
    default_slo_pack,
    openmetrics_text,
)


@dataclass
class ObsFig4Result:
    """One observed Fig. 4 run plus every observability surface."""

    profile: str
    seed: int
    window: float
    world: Any
    base: Any  # Fig4Result (fault-free) or ChaosFig4Result (chaos)
    end_time: float

    @property
    def fault_free(self) -> bool:
        return self.profile in FAULT_FREE_PROFILES

    @property
    def alerts_fired(self) -> int:
        return self.world.slo.alerts_fired

    @property
    def alert_timeline(self) -> List[Dict[str, Any]]:
        return self.world.slo.timeline

    def p95_series(self, name: str = "faas.task.queue_wait") -> List[
        Tuple[float, float]
    ]:
        """``(bucket_start, p95)`` for the unlabeled quantile series."""
        series = self.world.series.get(name)
        if series is None:
            return []
        return [
            (start, summary.get("p95", 0.0))
            for start, summary in series.buckets()
            if summary.get("count")
        ]

    def openmetrics(self) -> str:
        return openmetrics_text(self.world.metrics, self.world.series)

    def dashboard(self) -> Dict[str, Any]:
        return dashboard_snapshot(
            self.world.metrics,
            self.world.series,
            health=self.world.health,
            engine=self.world.slo,
            now=self.end_time,
        )


def run_fig4_obs(
    seed: int = 7,
    profile: str = "flaky-endpoint",
    window: float = DEFAULT_WINDOW,
    rules=None,
    health_routing: bool = False,
) -> ObsFig4Result:
    """Run Fig. 4 with the observability plane attached.

    ``profile="none"`` runs the fault-free experiment (the default SLO
    pack must stay silent on it); any chaos profile name runs
    :func:`~repro.experiments.chaos.run_fig4_chaos` under that plan.
    ``rules`` defaults to :func:`default_slo_pack` for the window.
    """

    def setup(world) -> None:
        world.enable_observability(
            window=window, rules=rules, health_routing=health_routing
        )

    if profile in FAULT_FREE_PROFILES:
        base = run_fig4(world_setup=setup)
    else:
        base = run_fig4_chaos(seed=seed, profile=profile, world_setup=setup)
    world = base.world
    end_time = world.clock.now
    # the final (partial) bucket never closes on its own — no later
    # event arrives to push the boundary — so evaluate it explicitly
    world.slo.finish(end_time)
    return ObsFig4Result(
        profile=profile,
        seed=seed,
        window=window,
        world=world,
        base=base,
        end_time=end_time,
    )


def parse_slo_overrides(
    specs: Optional[List[str]], window: float
) -> Optional[list]:
    """CLI ``--slo key=value`` overrides → an alert-rule pack.

    Recognised keys: ``error-rate`` (fraction in (0, 1]) and
    ``p95-latency`` (virtual seconds). ``None``/empty means "use the
    default pack".
    """
    if not specs:
        return None
    thresholds = {"error-rate": 0.05, "p95-latency": 5400.0}
    for spec in specs:
        key, sep, raw = spec.partition("=")
        if not sep:
            raise ValueError(
                f"--slo expects key=value, got {spec!r}"
            )
        key = key.strip()
        if key not in thresholds:
            raise ValueError(
                f"unknown SLO key {key!r}; choices: {sorted(thresholds)}"
            )
        thresholds[key] = float(raw)
    return default_slo_pack(
        window,
        latency_threshold=thresholds["p95-latency"],
        error_rate_threshold=thresholds["error-rate"],
    )


def format_obs_report(result: ObsFig4Result) -> str:
    """Deterministic plain-text report (byte-identical per seed)."""
    world = result.world
    lines = [
        f"Observed Fig. 4 — profile {result.profile!r}, "
        f"seed {result.seed}, window {result.window:.0f}s",
        f"virtual makespan observed: t={result.end_time:.1f}s",
        "",
    ]
    p95 = result.p95_series()
    lines.append("p95 dispatch queue wait per window:")
    if not p95:
        lines.append("  (no dispatches observed)")
    lines.extend(
        f"  [{start:>10.0f}s .. {start + result.window:>10.0f}s)  "
        f"p95={value:10.3f}s"
        for start, value in p95
    )
    lines.append("")
    lines.append(world.slo.report())
    lines.append("")
    lines.append(world.health.report(result.end_time))
    lines.append("")
    lines.append(
        f"series recorded: {len(world.series)}  "
        f"alerts fired: {result.alerts_fired}  "
        f"firing at end: {', '.join(world.slo.firing) or 'none'}"
    )
    return "\n".join(lines)
