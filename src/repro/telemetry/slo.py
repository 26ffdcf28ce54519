"""Declarative SLOs and multi-window burn-rate alerting.

An :class:`Objective` names a measurement over a rolling window — "p95
dispatch queue wait" or "failed attempts / total attempts" — and the
threshold that counts as meeting it. An :class:`AlertRule` pairs one
objective with two windows (the SRE fast/slow burn-rate pattern): the
*fast* window makes the alert react within minutes of virtual time, the
*slow* window keeps one noisy bucket from paging. The rule fires only
when the burn ratio (measured / threshold) exceeds the rule's
``burn_threshold`` in **both** windows, and resolves when either drops
back under.

The :class:`SLOEngine` is a :class:`~repro.telemetry.timeseries.
TimeSeriesStore` observer: it evaluates every rule exactly at bucket
boundaries (virtual times that depend only on the event stream, never
on wall clock), and state transitions are emitted as ordinary
``alert.fired`` / ``alert.resolved`` events from source ``slo`` — so
alerts land in the journal, in provenance crates, and in Chrome traces
with zero extra plumbing. Same seed → same event stream → identical
alert timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.timeseries import TimeSeriesStore
from repro.util.events import EventLog


@dataclass(frozen=True)
class Objective:
    """One service-level objective over a rolling window.

    ``kind="latency"`` measures ``percentile`` of the quantile series
    ``series`` and is met while the value stays **under** ``threshold``
    (virtual seconds). ``kind="ratio"`` measures the counter sum of
    ``numerator`` over the counter sum of ``denominator`` (an error
    rate in [0, 1]) and is met while it stays under ``threshold``.
    """

    name: str
    kind: str  # "latency" | "ratio"
    threshold: float
    series: str = ""
    percentile: float = 95.0
    numerator: str = ""
    denominator: str = ""
    labels: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "ratio"):
            raise ValueError(f"unknown objective kind: {self.kind!r}")
        if not 0 < self.threshold < math.inf:
            raise ValueError(
                f"objective threshold must be finite and positive, "
                f"got {self.threshold!r}"
            )
        if self.kind == "ratio" and self.threshold > 1:
            raise ValueError(
                f"ratio objective threshold must be at most 1, "
                f"got {self.threshold!r}"
            )
        if self.kind == "latency" and not self.series:
            raise ValueError("latency objective needs a series name")
        if self.kind == "ratio" and not (self.numerator and self.denominator):
            raise ValueError("ratio objective needs numerator + denominator")

    def measure(
        self, store: TimeSeriesStore, until: float, window: float
    ) -> Optional[float]:
        """The measured value over ``[until-window, until)``.

        None means "no signal" (no series yet, or an empty window) —
        distinct from 0.0, so silence never fires or resolves an alert
        by itself.
        """
        labels = dict(self.labels)
        if self.kind == "latency":
            series = store.get(self.series, **labels)
            if series is None:
                return None
            merged = series.merged_over(until, window)
            if not merged.count:
                return None
            return merged.percentile(self.percentile)
        num = store.get(self.numerator, **labels)
        den = store.get(self.denominator, **labels)
        if den is None:
            return None
        total = den.sum_over(until, window)
        if total <= 0:
            return None
        bad = num.sum_over(until, window) if num is not None else 0.0
        return bad / total

    def burn(
        self, store: TimeSeriesStore, until: float, window: float
    ) -> Optional[float]:
        """Measured value as a fraction of the threshold (1.0 = at SLO)."""
        value = self.measure(store, until, window)
        if value is None:
            return None
        return value / self.threshold


@dataclass(frozen=True)
class AlertRule:
    """Fast+slow burn-rate rule over one objective.

    Fires when ``burn >= burn_threshold`` in *both* windows; resolves
    when either window's burn drops below (or loses signal). Windows
    are virtual seconds and are evaluated only at bucket boundaries,
    so they should be multiples of the store's bucket width.
    """

    name: str
    objective: Objective
    fast_window: float
    slow_window: float
    burn_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.fast_window <= 0 or self.slow_window < self.fast_window:
            raise ValueError(
                "alert rule needs 0 < fast_window <= slow_window"
            )


@dataclass
class AlertState:
    """Mutable firing state for one rule."""

    rule: AlertRule
    firing: bool = False
    fired_at: Optional[float] = None
    fire_count: int = 0
    last_burn_fast: Optional[float] = None
    last_burn_slow: Optional[float] = None


@dataclass
class SLOEngine:
    """Evaluates alert rules at bucket boundaries; emits alert events.

    Attach with :meth:`install` — the engine registers itself as a
    store observer so the metrics bridge's ``advance_to`` drives it.
    Call :meth:`finish` once at end of run to evaluate the final
    (possibly partial) window and record closing state.
    """

    store: TimeSeriesStore
    events: EventLog
    rules: List[AlertRule]
    states: Dict[str, AlertState] = field(default_factory=dict)
    timeline: List[Dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate alert rule names: {names}")
        for rule in self.rules:
            self.states[rule.name] = AlertState(rule)

    def install(self) -> "SLOEngine":
        self.store.add_observer(self.evaluate)
        return self

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, boundary: float) -> None:
        """Evaluate every rule with windows ending at ``boundary``."""
        for rule in self.rules:
            state = self.states[rule.name]
            burn_fast = rule.objective.burn(
                self.store, boundary, rule.fast_window
            )
            burn_slow = rule.objective.burn(
                self.store, boundary, rule.slow_window
            )
            state.last_burn_fast = burn_fast
            state.last_burn_slow = burn_slow
            breaching = (
                burn_fast is not None
                and burn_slow is not None
                and burn_fast >= rule.burn_threshold
                and burn_slow >= rule.burn_threshold
            )
            if breaching and not state.firing:
                state.firing = True
                state.fired_at = boundary
                state.fire_count += 1
                self._transition(
                    "alert.fired", boundary, state, burn_fast, burn_slow
                )
            elif state.firing and not breaching:
                state.firing = False
                self._transition(
                    "alert.resolved", boundary, state, burn_fast, burn_slow
                )

    def _transition(
        self,
        kind: str,
        boundary: float,
        state: AlertState,
        burn_fast: Optional[float],
        burn_slow: Optional[float],
    ) -> None:
        rule = state.rule
        record = {
            "time": boundary,
            "kind": kind,
            "alert": rule.name,
            "objective": rule.objective.name,
            "burn_fast": burn_fast,
            "burn_slow": burn_slow,
        }
        self.timeline.append(record)
        self.events.emit(
            boundary,
            "slo",
            kind,
            alert=rule.name,
            objective=rule.objective.name,
            burn_fast=round(burn_fast, 6) if burn_fast is not None else None,
            burn_slow=round(burn_slow, 6) if burn_slow is not None else None,
            fast_window=rule.fast_window,
            slow_window=rule.slow_window,
        )

    def finish(self, time: float) -> None:
        """Final evaluation at end of run (the last bucket never closes
        by itself — no later event arrives to push the boundary)."""
        self.evaluate(time)

    # -- reporting -----------------------------------------------------------
    @property
    def firing(self) -> List[str]:
        return sorted(
            name for name, state in self.states.items() if state.firing
        )

    @property
    def alerts_fired(self) -> int:
        return sum(state.fire_count for state in self.states.values())

    def report(self) -> str:
        """Plain-text alert timeline + closing rule states."""
        lines = ["alert timeline:"]
        if not self.timeline:
            lines.append("  (no alerts)")
        for entry in self.timeline:
            fast = entry["burn_fast"]
            slow = entry["burn_slow"]
            lines.append(
                f"  t={entry['time']:>10.1f}s  {entry['kind']:<14} "
                f"{entry['alert']}  "
                f"burn fast={fast if fast is not None else '-'} "
                f"slow={slow if slow is not None else '-'}"
            )
        lines.append("rule states:")
        for name in sorted(self.states):
            state = self.states[name]
            status = "FIRING" if state.firing else "ok"
            lines.append(
                f"  {name:<28} {status:<7} fired {state.fire_count}x"
            )
        return "\n".join(lines)


def default_slo_pack(
    window: float = 60.0,
    latency_threshold: float = 5400.0,
    error_rate_threshold: float = 0.05,
) -> List[AlertRule]:
    """The default SLO pack used by ``repro obs`` and its pinned reports.

    Two rules, both calibrated so a fault-free default-policy Fig. 4
    run never fires (zero failed attempts; p95 queue wait under the
    latency budget) while the seeded ``flaky-endpoint`` chaos profile
    deterministically does:

    * ``error-rate-burn`` — failed attempts (retries, timeouts,
      give-ups, failed completions) over total dispatch attempts must
      stay under ``error_rate_threshold``. A fault-free run has a
      numerator of exactly zero, so this alert is impossible without
      injected faults.
    * ``dispatch-p95-latency`` — p95 task queue wait (submit →
      dispatch) across all endpoints must stay under
      ``latency_threshold`` virtual seconds.
    """
    fast = max(window, 5 * window)
    slow = max(fast, 15 * window)
    error_rate = Objective(
        name="error-rate",
        kind="ratio",
        numerator="faas.attempt.failures",
        denominator="faas.attempts",
        threshold=error_rate_threshold,
    )
    dispatch_p95 = Objective(
        name="dispatch-p95",
        kind="latency",
        series="faas.task.queue_wait",
        percentile=95.0,
        threshold=latency_threshold,
    )
    return [
        AlertRule(
            name="error-rate-burn",
            objective=error_rate,
            fast_window=fast,
            slow_window=slow,
        ),
        AlertRule(
            name="dispatch-p95-latency",
            objective=dispatch_p95,
            fast_window=fast,
            slow_window=slow,
        ),
    ]


def overload_slo_pack(
    window: float = 60.0,
    shed_rate_threshold: float = 0.05,
    queue_p95_threshold: float = 900.0,
    retry_rate_threshold: float = 0.9,
) -> List[AlertRule]:
    """The SLO pack for overload-protection runs (``repro overload``).

    Three rules over the series the overload plane and metrics bridge
    emit, calibrated so a fair-share fault-free run stays silent while
    a hot tenant under the ``overload`` chaos profile fires:

    * ``shed-burn`` — shed submissions over dispatch attempts must stay
      under ``shed_rate_threshold``; a fault-free fair-share run sheds
      exactly zero, so this alert is impossible without overload.
    * ``overload-queue-p95`` — p95 task queue wait must stay under
      ``queue_p95_threshold`` virtual seconds (tighter than the default
      pack's figure budget: overload shows up as queueing first).
    * ``retry-storm-burn`` — failed attempts over total attempts must
      stay under ``retry_rate_threshold``; the retry budget exists to
      keep this ratio bounded even under injected fault bursts. Tight
      per-task deadlines make some windowed failure ratio normal even
      at fair share, so the threshold is deliberately high: only a
      genuine storm — most of a window's attempts dying — crosses it.
    """
    fast = max(window, 5 * window)
    slow = max(fast, 15 * window)
    shed_rate = Objective(
        name="shed-rate",
        kind="ratio",
        numerator="overload.shed",
        denominator="faas.attempts",
        threshold=shed_rate_threshold,
    )
    queue_p95 = Objective(
        name="overload-queue-p95",
        kind="latency",
        series="faas.task.queue_wait",
        percentile=95.0,
        threshold=queue_p95_threshold,
    )
    retry_rate = Objective(
        name="retry-rate",
        kind="ratio",
        numerator="faas.attempt.failures",
        denominator="faas.attempts",
        threshold=retry_rate_threshold,
    )
    return [
        AlertRule(
            name="shed-burn",
            objective=shed_rate,
            fast_window=fast,
            slow_window=slow,
        ),
        AlertRule(
            name="overload-queue-p95",
            objective=queue_p95,
            fast_window=fast,
            slow_window=slow,
        ),
        AlertRule(
            name="retry-storm-burn",
            objective=retry_rate,
            fast_window=fast,
            slow_window=slow,
        ),
    ]
