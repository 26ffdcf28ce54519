"""Per-endpoint / per-pool health scoring from windowed series.

The :class:`HealthScorer` reads the windowed series the metrics bridge
records — rolling success rate, queue-depth trend, breaker state — and
folds them into one score in [0, 1], classified as ``healthy`` /
``degraded`` / ``unhealthy``. It is a pure *reader*: scoring never
creates series, never advances the bucket clock, and asking about an
endpoint nobody has observed returns a perfect score (no evidence of
trouble). What it keeps is its own: per endpoint, the four series
handles it reads and the last non-gray part of the score, reused until
a write to one of those series or a move to other buckets invalidates
it (see :meth:`HealthScorer.score`).

The score is intentionally simple and fully deterministic:

* base = rolling success rate (completed-ok vs failed attempts) over
  the scoring window; 1.0 when there is no signal;
* scaled by ``1 - breaker_level`` (closed = 1.0 → unchanged,
  half-open = 0.5 → halved, open = 1.0 → zero: an open breaker is
  *unhealthy* no matter how good history looks);
* minus a fixed penalty when the endpoint's queue depth trended *up*
  across the window (backlog building faster than it drains);
* scaled by ``1 - gray_score`` when a straggler detector is attached
  (``gray_of``): a fail-slow endpoint succeeds at everything, so
  success rate and breaker level never catch it — the gray score is
  the only health signal a slow-but-alive member produces. Reading a
  gray score prunes every window of the detector at ``now``: with a
  detector attached, scoring still never writes a series, but it does
  change the detector.

The ``least-loaded`` router can consume scores as an optional
tie-breaker (prefer the healthier endpoint among equally-loaded ones).
It scores only the members tied at the lowest queue depth, and always at
least one, so the detector's windows are pruned at every decision just
as when every member was scored. With no scorer attached routing is
byte-identical to before.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from repro.telemetry.timeseries import TimeSeriesStore, _covered, _Series

HEALTHY = "healthy"
DEGRADED = "degraded"
UNHEALTHY = "unhealthy"

DEFAULT_HEALTH_WINDOW = 300.0
TREND_PENALTY = 0.1
HEALTHY_FLOOR = 0.9
DEGRADED_FLOOR = 0.5


class _Held:
    """One endpoint's series handles and its cached non-gray score part."""

    __slots__ = ("size", "ok", "err", "breaker", "depth", "key", "base")

    def __init__(self) -> None:
        self.size = -1  # len(store) when the handles were last looked up
        self.ok = self.err = self.breaker = self.depth = None
        self.key: Optional[tuple] = None
        self.base = 0.0


def _version(series: Optional[_Series]) -> int:
    return -1 if series is None else series.version


class HealthScorer:
    """Scores endpoints from the time-series store, on demand."""

    def __init__(
        self,
        store: TimeSeriesStore,
        window: float = DEFAULT_HEALTH_WINDOW,
    ) -> None:
        # NaN and infinity fail the first score's bucket arithmetic,
        # which with health routing is the first routed submit
        if not (math.isfinite(window) and window > 0):
            raise ValueError(
                f"health window must be finite and positive, got {window}"
            )
        self.store = store
        self.window = window
        # optional (endpoint, now) -> [0, 1] gray-failure score from a
        # straggler detector; None keeps scoring byte-identical to a
        # world without the hedging plane
        self.gray_of = None
        self._held_by_endpoint: Dict[str, _Held] = {}

    def _held(self, endpoint: str) -> _Held:
        """The endpoint's handles; a missing one is looked up again only
        after the store has grown, since the store never removes one."""
        held = self._held_by_endpoint.get(endpoint)
        if held is None:
            held = self._held_by_endpoint[endpoint] = _Held()
        size = len(self.store)
        if size != held.size:
            held.size = size
            get = self.store.get
            if held.ok is None:
                held.ok = get("faas.tasks.ok", endpoint=endpoint)
            if held.err is None:
                held.err = get("faas.tasks.err", endpoint=endpoint)
            if held.breaker is None:
                held.breaker = get("faas.breaker.state", endpoint=endpoint)
            if held.depth is None:
                held.depth = get("faas.queue.depth", endpoint=endpoint)
        return held

    # -- scoring -------------------------------------------------------------
    def success_rate(self, endpoint: str, now: float) -> float:
        """ok / (ok + failed attempts) over the window; 1.0 on silence."""
        held = self._held(endpoint)
        ok = held.ok.sum_over(now, self.window) if held.ok else 0.0
        err = held.err.sum_over(now, self.window) if held.err else 0.0
        total = ok + err
        if total <= 0:
            return 1.0
        return ok / total

    def breaker_level(self, endpoint: str, now: float) -> float:
        """Current breaker gauge: 0 closed, 0.5 half-open, 1 open."""
        gauge = self._held(endpoint).breaker
        return gauge.value if gauge is not None else 0.0

    def queue_trend(self, endpoint: str, now: float) -> float:
        """Queue-depth change across the window (positive = backing up)."""
        gauge = self._held(endpoint).depth
        return gauge.trend_over(now, self.window) if gauge is not None else 0.0

    def score(self, endpoint: str, now: float) -> float:
        """The endpoint's health in [0, 1] at ``now``.

        The part before the gray factor reads only the ring buckets a
        read at ``now`` covers and the breaker gauge's value, so it is
        cached under the covered bucket bounds, the versions of the
        ``ok``, ``err`` and depth series and the breaker value. An equal
        key means equal inputs, a rewound ``now`` included. The gray
        factor is read on every score: it prunes the detector's windows.
        """
        held = self._held(endpoint)
        breaker = held.breaker
        key = (
            _covered(now, self.window, self.store.window),
            _version(held.ok),
            _version(held.err),
            breaker.value if breaker is not None else 0.0,
            _version(held.depth),
        )
        if key != held.key:
            base = self.success_rate(endpoint, now)
            base *= 1.0 - self.breaker_level(endpoint, now)
            if self.queue_trend(endpoint, now) > 0:
                base -= TREND_PENALTY
            held.key = key
            held.base = base
        base = held.base
        if self.gray_of is not None:
            base *= 1.0 - min(1.0, max(0.0, self.gray_of(endpoint, now)))
        return min(1.0, max(0.0, base))

    def state(self, endpoint: str, now: float) -> str:
        score = self.score(endpoint, now)
        if score >= HEALTHY_FLOOR:
            return HEALTHY
        if score >= DEGRADED_FLOOR:
            return DEGRADED
        return UNHEALTHY

    def pool_score(self, members: Iterable[str], now: float) -> float:
        """Mean member score; 1.0 for an empty pool (nothing to fault)."""
        scores = [self.score(endpoint, now) for endpoint in members]
        if not scores:
            return 1.0
        return sum(scores) / len(scores)

    # -- reporting -----------------------------------------------------------
    def known_endpoints(self) -> List[str]:
        """Endpoints any health-relevant series has been observed for."""
        seen = set()
        for name in (
            "faas.tasks.submitted", "faas.tasks.ok", "faas.tasks.err",
            "faas.queue.depth", "faas.breaker.state",
        ):
            for labels in self.store.labels_for(name):
                endpoint = labels.get("endpoint")
                if endpoint:
                    seen.add(endpoint)
        return sorted(seen)

    def snapshot(self, now: float) -> Dict[str, Dict[str, float]]:
        """JSON-ready per-endpoint health breakdown."""
        out: Dict[str, Dict[str, float]] = {}
        for endpoint in self.known_endpoints():
            out[endpoint] = {
                "score": round(self.score(endpoint, now), 6),
                "state": self.state(endpoint, now),
                "success_rate": round(self.success_rate(endpoint, now), 6),
                "breaker_level": self.breaker_level(endpoint, now),
                "queue_trend": self.queue_trend(endpoint, now),
            }
        return out

    def report(self, now: float) -> str:
        """Plain-text health table at virtual time ``now``."""
        lines = [f"endpoint health at t={now:.1f}s (window {self.window:.0f}s):"]
        snapshot = self.snapshot(now)
        if not snapshot:
            lines.append("  (no endpoints observed)")
        lines.extend(
            f"  {endpoint:<28} {row['state']:<10} "
            f"score={row['score']:.3f} "
            f"ok={row['success_rate']:.3f} "
            f"breaker={row['breaker_level']:.1f} "
            f"trend={row['queue_trend']:+.1f}"
            for endpoint, row in snapshot.items()
        )
        return "\n".join(lines)
