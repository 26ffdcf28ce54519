"""Metrics: counters, gauges, histograms, and the event→metric bridge.

A :class:`MetricsRegistry` is a passive store of named, labelled
instruments. Nothing in the hot path calls it directly: the
:class:`EventMetricsBridge` subscribes to the existing
:class:`~repro.util.events.EventLog` and derives every metric from the
events subsystems already emit. Disabling telemetry is therefore just
"don't subscribe" — the simulation's behaviour and timing are identical
either way.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.util.events import Event, EventLog

LabelKey = Tuple[Tuple[str, str], ...]

# Default fixed bucket bounds for streaming histograms, in virtual
# seconds: exponential coverage from control-plane latencies (sub-second)
# out to multi-hour queue waits. Shared with the windowed time-series
# layer so window merges and registry summaries agree.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (p in [0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class BucketHistogram:
    """A fixed-bound streaming histogram: O(len(bounds)) memory, always.

    The bounded-memory sibling of the exact :class:`Histogram`:
    observations increment the count of the first bound containing them,
    and percentiles come back as the matching *upper bound* (clamped to
    the maximum observed value) — a deterministic over-estimate that
    never retains individual observations. Mergeable, so the windowed
    time-series layer can combine per-bucket histograms into a rolling
    window.
    """

    __slots__ = ("bounds", "counts", "count", "total", "max")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 = overflow bucket
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        # leftmost bound >= value == first bucket containing it; past
        # the last bound lands in the overflow bucket at len(bounds)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def merge(self, other: "BucketHistogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile estimated from the bucket bounds."""
        if not self.count:
            raise ValueError("percentile of no values")
        rank = max(1, math.ceil(p / 100.0 * self.count))
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                if i < len(self.bounds):
                    return min(self.bounds[i], self.max)
                return self.max
        return self.max  # pragma: no cover - defensive

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": self.max,
        }


class Counter:
    """A monotonically increasing count."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def summary(self) -> Dict[str, float]:
        return {"value": self.value}


class Gauge:
    """A value that goes up and down; remembers its high-water mark."""

    def __init__(self) -> None:
        self.value = 0.0
        self.max_value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        self.max_value = max(self.max_value, value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def summary(self) -> Dict[str, float]:
        return {"value": self.value, "max": self.max_value}


class Histogram:
    """An exact distribution with count/mean/p50/p95/max summaries.

    Retains every observation, so percentiles are exact — this is what
    every figure output is built on. A streaming registry hands out a
    :class:`BucketHistogram` instead (see :class:`MetricsRegistry`).
    """

    def __init__(self) -> None:
        self._values: List[float] = []

    def observe(self, value: float) -> None:
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        return percentile(self._values, p)

    def values(self) -> List[float]:
        return list(self._values)

    def summary(self) -> Dict[str, float]:
        if not self._values:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": max(self._values),
        }


class MetricsRegistry:
    """Named, labelled instruments, created on first use.

    ``registry.histogram("faas.task.latency", endpoint=eid)`` returns the
    one histogram for that (name, labels) pair; re-registering a name
    with a different instrument type is an error.

    With ``histogram_bounds`` every histogram the registry creates is
    a :class:`BucketHistogram` over those bounds: fixed memory no matter
    how many observations arrive, so a million-task run does not retain
    a million latencies per instrument. The default ``None`` creates
    the exact :class:`Histogram` every figure output depends on.
    """

    def __init__(
        self, histogram_bounds: Optional[Tuple[float, ...]] = None
    ) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], Any] = {}
        self.histogram_bounds = histogram_bounds

    def _get(self, cls: type, name: str, labels: Dict[str, Any],
             builder: Optional[Callable[[], Any]] = None) -> Any:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls() if builder is None else builder()
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, **labels: Any
    ) -> Union[Histogram, BucketHistogram]:
        bounds = self.histogram_bounds
        if bounds is None:
            return self._get(Histogram, name, labels)
        return self._get(
            BucketHistogram, name, labels,
            builder=lambda: BucketHistogram(bounds),
        )

    def __len__(self) -> int:
        return len(self._instruments)

    def collect(self) -> Iterator[Tuple[str, Dict[str, str], Any]]:
        """(name, labels, instrument) triples in sorted order."""
        for (name, label_key) in sorted(self._instruments):
            yield name, dict(label_key), self._instruments[(name, label_key)]

    def summaries(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready snapshot: ``name{k=v,...}`` → summary dict."""
        out: Dict[str, Dict[str, float]] = {}
        for name, labels, instrument in self.collect():
            suffix = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            out[f"{name}{{{suffix}}}" if suffix else name] = (
                instrument.summary()
            )
        return out

    def report(self) -> str:
        """Plain-text table of every instrument's summary."""
        lines = []
        for key, summary in self.summaries().items():
            rendered = "  ".join(
                f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                for k, v in summary.items()
            )
            lines.append(f"{key:<64} {rendered}")
        return "\n".join(lines)


class EventMetricsBridge:
    """Derives the standard metric set from the event log, by subscription.

    Event → metric mapping (see DESIGN.md §8 for the full table):

    * ``task.submitted``   → ``faas.tasks.submitted{endpoint}`` counter,
      ``faas.dispatch.depth{endpoint}`` gauge (+1)
    * ``task.dispatched``  → ``faas.task.queue_wait{endpoint}`` histogram,
      dispatch-depth gauge (−1)
    * ``task.completed``   → ``faas.task.latency{endpoint}`` histogram,
      ``faas.tasks.completed{endpoint,state}`` counter,
      ``faas.tasks.failed{endpoint}`` counter on failure
    * ``job.submitted``    → ``slurm.jobs.submitted{scheduler}`` counter
    * ``job.started``      → ``slurm.queue_wait{scheduler}`` histogram
    * ``job.ended``        → ``slurm.jobs.ended{scheduler,state}`` counter
    * ``run.created``      → ``ci.runs`` counter
    * ``job.finished``     → ``ci.jobs{status}`` counter (actions source)
    * ``task.retry``       → ``faas.task.retries{endpoint}`` counter,
      ``faas.retry.backoff{endpoint}`` histogram of backoff delays
    * ``task.failover``    → ``faas.task.failovers{from,to}`` counter
    * ``task.timeout``     → ``faas.task.timeouts{endpoint}`` counter
    * ``task.gave_up``     → ``faas.task.give_ups{endpoint}`` counter
    * ``task.rejected``    → ``faas.tasks.rejected{reason}`` counter,
      dispatch-depth gauge (−1: the task never dispatches)
    * ``task.cancelled``   → ``faas.tasks.cancelled{endpoint}`` counter
      (join-table entry retired — a cancelled task never completes)
    * ``hedge.*``          → ``faas.hedges{outcome}`` counter
      (outcome = launched/won/cancelled/lost)
    * ``straggler.*``      → ``faas.stragglers{transition,endpoint}``
      counter (transition = flagged/cleared)
    * ``overload.*``       → backoff/retry-denied/brownout counters plus
      windowed ``overload.*`` series for the overload SLO pack
    * ``breaker.*``        → ``faas.breaker.transitions{endpoint,state}``
      counter (state = open/close/half_open), and on close a
      ``faas.breaker.open_seconds{endpoint}`` gauge accumulating how
      long the breaker was open
    * ``task.replayed``    → ``durability.tasks.replayed{endpoint}`` counter
    * ``step.replayed``    → ``durability.steps.replayed`` counter
    * ``run.resumed``      → ``durability.runs.resumed`` counter
    * ``lease.*``          → ``durability.lease.events{transition}`` counter
    * any ``fault`` event  → ``faults.injected{kind}`` counter
    * ``subscriber_error`` → ``telemetry.subscriber_errors`` counter

    The bridge holds a tiny join table (task id → submit time/endpoint)
    so latencies need no second pass over the log.

    Once :meth:`attach_series` hands it a
    :class:`~repro.telemetry.timeseries.TimeSeriesStore`, the bridge
    additionally records windowed series for the observability plane —
    per-endpoint/per-pool queue waits, queue-depth gauges,
    success/failure counters, breaker state — and advances the store's
    bucket clock after every event so SLO evaluation fires at
    deterministic virtual times. Until then it skips all of it.
    """

    def __init__(self, registry: MetricsRegistry, events: EventLog) -> None:
        self.registry = registry
        self.series: Optional[Any] = None
        self._submits: Dict[str, Tuple[float, str]] = {}
        # endpoint → virtual time its breaker opened, for the
        # faas.breaker.open_seconds duration gauge recorded at close
        self._breaker_opened: Dict[str, float] = {}
        # Subscriber errors are pre-registered so every summary shows
        # the count — a clean run provably reports 0.0 rather than
        # omitting the row (see validate_chrome_trace).
        registry.counter("telemetry.subscriber_errors")
        # Per-endpoint instrument caches for the three task-lifecycle
        # kinds that dominate event volume: resolving an instrument
        # through the registry rebuilds its sorted label key every time,
        # which is measurable at a million tasks. Instruments are still
        # created lazily at exactly the same point as before, so the
        # registry's contents (and report output) are unchanged.
        self._c_submitted: Dict[str, Counter] = {}
        self._g_depth: Dict[str, Gauge] = {}
        self._h_queue_wait: Dict[str, Histogram] = {}
        self._h_latency: Dict[str, Histogram] = {}
        self._c_completed: Dict[Tuple[str, str], Counter] = {}
        # Windowed-series caches, same trick (populated only when a
        # store is attached).
        self._s_submitted: Dict[str, Any] = {}
        self._s_depth: Dict[str, Any] = {}
        self._s_wait: Dict[str, Any] = {}
        self._s_pool_wait: Dict[str, Any] = {}
        self._s_ok: Dict[str, Any] = {}
        self._s_fail: Dict[str, Any] = {}
        self._unsubscribe: Optional[Callable[[], None]] = events.subscribe(
            self.on_event
        )

    def attach_series(self, series: Any) -> None:
        """Start recording windowed series (call before the workload runs:
        events emitted earlier are not backfilled)."""
        self.series = series
        self._s_attempts = series.counter("faas.attempts")
        self._s_failures = series.counter("faas.attempt.failures")
        self._s_wait_all = series.quantile("faas.task.queue_wait")

    def _s(self, cache: Dict[str, Any], kind: str, name: str,
           value: str, label: str = "endpoint") -> Any:
        series = cache.get(value)
        if series is None:
            series = cache[value] = getattr(self.series, kind)(
                name, **{label: value}
            )
        return series

    def _s_failure(self, time: float, endpoint: str) -> None:
        """One failed attempt: the SLO ratio numerator + health input."""
        self._s_failures.inc(time)
        self._s(self._s_fail, "counter", "faas.tasks.err", endpoint).inc(time)

    def close(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    # -- the one subscriber --------------------------------------------------
    def on_event(self, event: Event) -> None:
        kind, data = event.kind, event.data
        reg = self.registry
        store = self.series
        if kind == "task.submitted":
            endpoint = data.get("endpoint", "?")
            self._submits[data.get("task_id", "")] = (event.time, endpoint)
            counter = self._c_submitted.get(endpoint)
            if counter is None:
                counter = self._c_submitted[endpoint] = reg.counter(
                    "faas.tasks.submitted", endpoint=endpoint
                )
            counter.inc()
            gauge = self._g_depth.get(endpoint)
            if gauge is None:
                gauge = self._g_depth[endpoint] = reg.gauge(
                    "faas.dispatch.depth", endpoint=endpoint
                )
            gauge.inc()
            if store is not None:
                # hot path: _s() inlined for the three lifecycle kinds
                s = self._s_submitted.get(endpoint)
                if s is None:
                    s = self._s_submitted[endpoint] = store.counter(
                        "faas.tasks.submitted", endpoint=endpoint
                    )
                s.inc(event.time)
                g = self._s_depth.get(endpoint)
                if g is None:
                    g = self._s_depth[endpoint] = store.gauge(
                        "faas.queue.depth", endpoint=endpoint
                    )
                g.inc(event.time)
        elif kind == "task.dispatched":
            submitted = self._submits.get(data.get("task_id", ""))
            endpoint = data.get("endpoint", "?")
            gauge = self._g_depth.get(endpoint)
            if gauge is None:
                gauge = self._g_depth[endpoint] = reg.gauge(
                    "faas.dispatch.depth", endpoint=endpoint
                )
            gauge.dec()
            if submitted is not None:
                hist = self._h_queue_wait.get(endpoint)
                if hist is None:
                    hist = self._h_queue_wait[endpoint] = reg.histogram(
                        "faas.task.queue_wait", endpoint=endpoint
                    )
                hist.observe(event.time - submitted[0])
            if store is not None:
                g = self._s_depth.get(endpoint)
                if g is None:
                    g = self._s_depth[endpoint] = store.gauge(
                        "faas.queue.depth", endpoint=endpoint
                    )
                g.dec(event.time)
                self._s_attempts.inc(event.time)
                if submitted is not None:
                    wait = event.time - submitted[0]
                    self._s_wait_all.observe(event.time, wait)
                    q = self._s_wait.get(endpoint)
                    if q is None:
                        q = self._s_wait[endpoint] = store.quantile(
                            "faas.task.queue_wait", endpoint=endpoint
                        )
                    q.observe(event.time, wait)
                    pool = data.get("pool")
                    if pool:
                        self._s(
                            self._s_pool_wait, "quantile",
                            "faas.task.queue_wait", pool, label="pool",
                        ).observe(event.time, wait)
        elif kind == "task.completed":
            submitted = self._submits.pop(data.get("task_id", ""), None)
            state = data.get("state", "?")
            if submitted is not None:
                submit_time, endpoint = submitted
                hist = self._h_latency.get(endpoint)
                if hist is None:
                    hist = self._h_latency[endpoint] = reg.histogram(
                        "faas.task.latency", endpoint=endpoint
                    )
                hist.observe(event.time - submit_time)
                counter = self._c_completed.get((endpoint, state))
                if counter is None:
                    counter = self._c_completed[(endpoint, state)] = reg.counter(
                        "faas.tasks.completed", endpoint=endpoint, state=state
                    )
                counter.inc()
                succeeded = str(state).upper() == "SUCCESS"
                if not succeeded:
                    reg.counter("faas.tasks.failed", endpoint=endpoint).inc()
                if store is not None:
                    if succeeded:
                        s = self._s_ok.get(endpoint)
                        if s is None:
                            s = self._s_ok[endpoint] = store.counter(
                                "faas.tasks.ok", endpoint=endpoint
                            )
                        s.inc(event.time)
                    else:
                        self._s_failure(event.time, endpoint)
        elif kind == "job.submitted" and "job_id" in data:
            reg.counter("slurm.jobs.submitted", scheduler=event.source).inc()
        elif kind == "job.started" and "queue_wait" in data:
            reg.histogram(
                "slurm.queue_wait", scheduler=event.source
            ).observe(float(data["queue_wait"] or 0.0))
        elif kind == "job.ended" and "state" in data:
            reg.counter(
                "slurm.jobs.ended",
                scheduler=event.source, state=data["state"],
            ).inc()
        elif kind == "task.retry":
            endpoint = data.get("endpoint", "?")
            reg.counter("faas.task.retries", endpoint=endpoint).inc()
            reg.histogram("faas.retry.backoff", endpoint=endpoint).observe(
                float(data.get("delay", 0.0))
            )
            if store is not None:
                self._s_failure(event.time, endpoint)
        elif kind == "task.failover":
            reg.counter(
                "faas.task.failovers",
                from_endpoint=data.get("from_endpoint", "?"),
                to_endpoint=data.get("to_endpoint", "?"),
            ).inc()
        elif kind == "task.timeout":
            endpoint = data.get("endpoint", "?")
            reg.counter("faas.task.timeouts", endpoint=endpoint).inc()
            if store is not None:
                self._s_failure(event.time, endpoint)
        elif kind == "task.gave_up":
            endpoint = data.get("endpoint", "?")
            reg.counter("faas.task.give_ups", endpoint=endpoint).inc()
            if store is not None:
                self._s_failure(event.time, endpoint)
        elif kind == "task.cancelled":
            endpoint = data.get("endpoint", "?")
            reg.counter("faas.tasks.cancelled", endpoint=endpoint).inc()
            # a cancelled task never emits task.completed: retire its
            # join-table entry and depth increment like a rejection
            self._submits.pop(data.get("task_id", ""), None)
            gauge = self._g_depth.get(endpoint)
            if gauge is not None:
                gauge.dec()
            if store is not None:
                g = self._s_depth.get(endpoint)
                if g is not None:
                    g.dec(event.time)
        elif kind.startswith("hedge."):
            outcome = kind.split(".", 1)[1]
            reg.counter("faas.hedges", outcome=outcome).inc()
            if store is not None:
                store.counter("faas.hedges", outcome=outcome).inc(event.time)
        elif kind.startswith("straggler."):
            transition = kind.split(".", 1)[1]
            reg.counter(
                "faas.stragglers",
                transition=transition, endpoint=data.get("endpoint", "?"),
            ).inc()
        elif kind == "task.rejected":
            endpoint = data.get("endpoint", "?")
            reason = data.get("reason", "?")
            reg.counter("faas.tasks.rejected", reason=reason).inc()
            # a rejected task never dispatches: retire its submit-time
            # depth increment and join-table entry so completion math
            # stays exact (its task.completed is intentionally skipped)
            self._submits.pop(data.get("task_id", ""), None)
            gauge = self._g_depth.get(endpoint)
            if gauge is not None:
                gauge.dec()
            if store is not None:
                g = self._s_depth.get(endpoint)
                if g is not None:
                    g.dec(event.time)
                store.counter("overload.rejected", reason=reason).inc(event.time)
                if reason == "shed":
                    store.counter("overload.shed").inc(event.time)
        elif kind == "overload.backoff":
            pool = data.get("pool", "?")
            reg.counter("faas.overload.backoffs", pool=pool).inc()
            if store is not None:
                store.counter("overload.backoffs").inc(event.time)
                store.gauge("overload.limit", pool=pool).set(
                    event.time, float(data.get("limit", 0.0))
                )
        elif kind == "overload.retry_denied":
            reg.counter(
                "faas.overload.retry_denied", scope=data.get("scope", "?")
            ).inc()
            if store is not None:
                store.counter("overload.retry_denied").inc(event.time)
        elif kind == "overload.brownout":
            state = data.get("state", "?")
            reg.counter("faas.overload.brownout", state=state).inc()
            if store is not None:
                store.gauge("overload.brownout").set(
                    event.time, 1.0 if state == "enter" else 0.0
                )
        elif kind.startswith("breaker."):
            endpoint = data.get("endpoint", "?")
            state = kind.split(".", 1)[1]
            reg.counter(
                "faas.breaker.transitions",
                endpoint=endpoint, state=state,
            ).inc()
            # open-duration accounting: dashboards and shedding decisions
            # need how long capacity was dark, not just the trip count
            if state == "open":
                self._breaker_opened[endpoint] = event.time
            elif state == "close":
                opened = self._breaker_opened.pop(endpoint, None)
                if opened is not None:
                    reg.gauge(
                        "faas.breaker.open_seconds", endpoint=endpoint
                    ).inc(event.time - opened)
                    if store is not None:
                        store.gauge(
                            "faas.breaker.open_seconds", endpoint=endpoint
                        ).inc(event.time, event.time - opened)
            if store is not None:
                store.gauge("faas.breaker.state", endpoint=endpoint).set(
                    event.time, _BREAKER_LEVELS.get(state, 0.0)
                )
        elif kind == "task.replayed":
            reg.counter(
                "durability.tasks.replayed", endpoint=data.get("endpoint", "?")
            ).inc()
        elif kind == "step.replayed":
            reg.counter("durability.steps.replayed").inc()
        elif kind == "run.resumed":
            reg.counter("durability.runs.resumed").inc()
        elif kind.startswith("lease."):
            reg.counter(
                "durability.lease.events",
                transition=kind.split(".", 1)[1],
            ).inc()
        elif event.source == "fault":
            reg.counter("faults.injected", kind=kind).inc()
        elif kind == "run.created":
            reg.counter("ci.runs").inc()
        elif kind == "job.finished" and event.source == "actions":
            reg.counter("ci.jobs", status=data.get("status", "?")).inc()
        elif kind == "subscriber_error":
            reg.counter("telemetry.subscriber_errors").inc()
            if store is not None:
                store.counter("telemetry.subscriber_errors").inc(event.time)
        if store is not None and (
            int(event.time // store.window) != store._last_bucket
        ):
            # guard inlined: most events land in the already-open bucket,
            # so the common case skips the method call entirely
            store.advance_to(event.time)


# Breaker state rendered as a gauge level for the health scorer:
# closed is healthy (0), half-open is probing (0.5), open is down (1).
_BREAKER_LEVELS: Dict[str, float] = {
    "open": 1.0,
    "half_open": 0.5,
    "close": 0.0,
}
