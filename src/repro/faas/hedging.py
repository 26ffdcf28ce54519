"""Fail-slow defense: gray-failure detection and speculative hedging.

Outages, crashes, and overload all *announce* themselves — a fail-slow
endpoint does not. It stays online, keeps accepting work, keeps
succeeding, and quietly runs several-x slow, so nothing in the
resilience plane (breaker, retry, lease) ever fires while one gray pool
member inflates every p99 it touches. This module closes that gap with
two cooperating pieces, both deterministic in virtual time:

* The :class:`StragglerDetector` maintains per-endpoint sliding windows
  of observed service times (dispatch → completion, virtual seconds) and
  flags an endpoint whose recent p95 exceeds ``flag_ratio`` times the
  pool median p95. The continuous ``gray_score`` in [0, 1] feeds the
  :class:`~repro.telemetry.health.HealthScorer` (and through it,
  ``least-loaded`` routing with ``--health-routing``), so gray members
  stop winning routing ties *before* any hedge is needed.

* The :class:`HedgeController` owns speculative execution. At every
  primary dispatch it derives a hedge deadline — ``factor`` x the pooled
  service-time ``quantile`` over the sample window, never below
  ``min_deadline`` — and schedules a check. A task still running past
  its deadline gets a duplicate :class:`~repro.faas.dispatch.PendingTask`
  (same task, same future, same endpoint-independent idempotency key) on
  a *different* admissible pool member. First result wins: the winner
  flows through the normal outcome chain exactly once, the loser is
  retracted via :meth:`EndpointDispatcher.retract` and its late callback
  is discarded by the existing attempt/abort guard — the future's
  double-resolution guard is never reachable.

Everything here is off unless the service was built with a
:class:`HedgeConfig`; with the plane off the pipeline skips its hedge
step and worlds are byte-identical to an unhedged build. With it
on, hedge decisions depend only on virtual-time observations, so the
same seed produces the same hedges, the same winners, and the same
report bytes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple, TYPE_CHECKING
from collections import deque

from repro.faas.dispatch import PendingTask
from repro.telemetry.metrics import percentile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faas.service import FaaSService

# A deadline check that can still act but fires while the clock is
# transiently inside a task body's measure() region must defer (see
# _deadline_fired); this is the re-check step. Checks that can never act
# are dropped before deferring, so only live ones pay it. Coarse on
# purpose: a region spanning S virtual seconds costs O(S / step)
# re-checks per live check, and sub-second precision buys nothing when
# deadlines are tens of seconds.
_REGION_RETRY_SECONDS = 1.0


@dataclass(frozen=True)
class HedgeConfig:
    """Tuning for the fail-slow plane; defaults suit pooled Fig. 4 runs.

    ``factor`` x the pooled ``quantile`` is the hedge deadline: at 95/1.5
    roughly one task in twenty is even *eligible* to hedge, which is what
    keeps wasted duplicate work bounded — a healthy run hedges (almost)
    nothing, a gray run hedges exactly the stragglers.
    """

    quantile: float = 95.0  # pooled service-time quantile
    factor: float = 1.5  # deadline = factor x quantile
    min_samples: int = 20  # pooled completions before hedging arms
    min_deadline: float = 5.0  # virtual-seconds floor for the deadline
    window: float = 600.0  # pooled sample window (virtual seconds)
    detector_window: float = 600.0  # per-endpoint detector window
    flag_ratio: float = 2.0  # endpoint p95 / pool median p95 that flags
    detector_min_samples: int = 5  # per-endpoint floor before flagging

    def __post_init__(self) -> None:
        # Each bad value either raises out of a later drain (a percentile
        # of an empty window, a rank past its end) or silently disables
        # the plane. NaN fails every comparison, so the range checks
        # below refuse it too.
        _require(0 < self.quantile <= 100, "quantile", "in (0, 100]",
                 self.quantile)
        _require(_positive_finite(self.factor), "factor",
                 "finite and positive", self.factor)
        _require(self.min_samples >= 1, "min_samples", "at least 1",
                 self.min_samples)
        _require(math.isfinite(self.min_deadline) and self.min_deadline >= 0,
                 "min_deadline", "finite and non-negative", self.min_deadline)
        _require(_positive_finite(self.window), "window",
                 "finite and positive", self.window)
        _require(_positive_finite(self.detector_window), "detector_window",
                 "finite and positive", self.detector_window)
        _require(self.detector_min_samples >= 1, "detector_min_samples",
                 "at least 1", self.detector_min_samples)
        _require(math.isfinite(self.flag_ratio) and self.flag_ratio > 1,
                 "flag_ratio", "finite and above 1", self.flag_ratio)


def _require(ok: bool, name: str, rule: str, value: object) -> None:
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


class _SampleWindow:
    """One endpoint's samples in arrival order, plus their sorted values.

    ``arrivals`` holds ``(now, elapsed)`` pairs in record order, the
    order a prune pops them; ``ordered`` holds the same elapsed values
    sorted, so a percentile is an index rather than a sort. ``insort``
    places a value after its equals and a prune deletes the first equal
    value, which is the sample just popped: equal values stay in arrival
    order, exactly as a stable sort of ``arrivals`` leaves them.
    """

    __slots__ = ("arrivals", "ordered")

    def __init__(self) -> None:
        self.arrivals: Deque = deque()
        self.ordered: List[float] = []

    def add(self, now: float, elapsed: float) -> None:
        self.arrivals.append((now, elapsed))
        insort(self.ordered, elapsed)

    def prune(self, floor: float) -> int:
        """Pop samples off the front while they were recorded before
        ``floor``; return how many were popped."""
        arrivals = self.arrivals
        ordered = self.ordered
        popped = 0
        while arrivals and arrivals[0][0] < floor:
            del ordered[bisect_left(ordered, arrivals.popleft()[1])]
            popped += 1
        return popped

    def p95(self) -> float:
        """The nearest-rank p95 of a non-empty window: the element
        :func:`~repro.telemetry.metrics.percentile` picks for 95.0."""
        ordered = self.ordered
        return ordered[max(1, math.ceil(95.0 / 100.0 * len(ordered))) - 1]


class StragglerDetector:
    """Per-endpoint service-time baselines and gray-failure scores.

    A pure observer over (endpoint, elapsed, now) samples: no clock
    events, no randomness — byte-identical across runs with identical
    observations. Scores are relative (endpoint p95 against the pool
    median p95), so a uniformly slow pool is *not* gray: gray failure is
    one member diverging from its peers.

    Each endpoint's window is pruned when it is recorded into or read,
    and it keeps its values sorted as they arrive and leave, so
    :meth:`p95` is an O(1) index after the prune. It returns the same
    nearest-rank element :func:`~repro.telemetry.metrics.percentile`
    picks from the window.

    The detector counts every sample added and every sample pruned. A
    gray score or pool median reads only what the windows hold after a
    prune at ``now``, so :meth:`gray_score` and :meth:`pool_median`
    prune every window first and then return their last result if the
    count has not moved since it was computed. Every read still prunes,
    so a read at a time a measured region rewound to sees what a
    recomputation would.
    """

    def __init__(
        self,
        window: float = 600.0,
        flag_ratio: float = 2.0,
        min_samples: int = 5,
    ) -> None:
        _require(_positive_finite(window), "window", "finite and positive",
                 window)
        _require(math.isfinite(flag_ratio) and flag_ratio > 1.0,
                 "flag_ratio", "finite and above 1.0", flag_ratio)
        # p95 indexes the sorted window, which needs at least one sample
        _require(min_samples >= 1, "min_samples", "at least 1", min_samples)
        self.window = window
        self.flag_ratio = flag_ratio
        self.min_samples = min_samples
        self._samples: Dict[str, _SampleWindow] = {}
        # samples added plus samples pruned, across every window
        self._changes = 0
        # endpoint -> (_changes, score) and (_changes, median) when computed
        self._gray: Dict[str, Tuple[int, float]] = {}
        self._median: Tuple[int, Optional[float]] = (-1, None)

    def _prune_all(self, now: float) -> None:
        floor = now - self.window
        for samples in self._samples.values():
            self._changes += samples.prune(floor)

    def record(self, endpoint_id: str, elapsed: float, now: float) -> None:
        """Observe one completed dispatch's service time."""
        samples = self._samples.get(endpoint_id)
        if samples is None:
            samples = self._samples[endpoint_id] = _SampleWindow()
        samples.add(now, elapsed)
        self._changes += 1 + samples.prune(now - self.window)

    def p95(self, endpoint_id: str, now: float) -> Optional[float]:
        """Recent p95 service time; None below the sample floor."""
        samples = self._samples.get(endpoint_id)
        if samples is None:
            return None
        self._changes += samples.prune(now - self.window)
        if len(samples.ordered) < self.min_samples:
            return None
        return samples.p95()

    def pool_median(self, now: float) -> Optional[float]:
        """Median of the per-endpoint p95s (endpoints above the floor)."""
        self._prune_all(now)
        changes, median = self._median
        if changes == self._changes:
            return median
        values = sorted(
            samples.p95()
            for samples in self._samples.values()
            if len(samples.ordered) >= self.min_samples
        )
        mid = len(values) // 2
        if not values:
            median = None
        elif len(values) % 2:
            median = values[mid]
        else:
            median = (values[mid - 1] + values[mid]) / 2.0
        self._median = (self._changes, median)
        return median

    def ratio(self, endpoint_id: str, now: float) -> float:
        """Endpoint p95 over pool median p95; 1.0 without evidence."""
        own = self.p95(endpoint_id, now)
        median = self.pool_median(now)
        if own is None or median is None or median <= 0:
            return 1.0
        return own / median

    def gray_score(self, endpoint_id: str, now: float) -> float:
        """Gray-failure score in [0, 1]: 0 at the median, 1 at the flag.

        Linear in the p95 ratio between 1.0 and ``flag_ratio`` — smooth
        enough for health-weighted routing to start deprioritizing an
        endpoint *before* it is formally flagged.
        """
        self._prune_all(now)
        cached = self._gray.get(endpoint_id)
        if cached is not None and cached[0] == self._changes:
            return cached[1]
        score = (self.ratio(endpoint_id, now) - 1.0) / (self.flag_ratio - 1.0)
        score = min(1.0, max(0.0, score))
        self._gray[endpoint_id] = (self._changes, score)
        return score

    def flagged(self, endpoint_id: str, now: float) -> bool:
        """True when the endpoint's recent p95 crossed the flag ratio."""
        return self.ratio(endpoint_id, now) >= self.flag_ratio


@dataclass
class HedgeStats:
    """Counters the experiment reports and the benchmark read."""

    hedges_launched: int = 0
    hedges_won: int = 0  # the duplicate produced the winning result
    hedges_cancelled: int = 0  # a loser arm was retracted unfinished
    # duplicate execution seconds: virtual time during which *two* copies
    # of one task were executing at once — the redundant half of each
    # race's overlap window, whichever arm ends up winning
    wasted_seconds: float = 0.0
    useful_seconds: float = 0.0  # winning-arm execution, virtual seconds
    stragglers_flagged: int = 0

    def wasted_ratio(self) -> float:
        """Wasted duplicate work as a share of all virtual compute."""
        total = self.useful_seconds + self.wasted_seconds
        if total <= 0:
            return 0.0
        return self.wasted_seconds / total


@dataclass(slots=True)
class _Race:
    """One in-flight hedge: the primary arm, the duplicate, its target."""

    primary: PendingTask
    hedge: PendingTask
    endpoint: str
    launched_at: float
    # tied-request retraction already benched the queued primary (its
    # load slot is unbound); the settle paths must not touch it again
    primary_retired: bool = False


class HedgeController:
    """Runtime state of the fail-slow plane, owned by one service.

    The pipeline calls :meth:`on_dispatched` after the lease heartbeat
    and :meth:`on_outcome` after the lease and before the breaker, so a
    losing arm's error never reaches the breaker or retry stages.
    """

    def __init__(self, service: "FaaSService", config: HedgeConfig) -> None:
        self.service = service
        self.config = config
        self.stats = HedgeStats()
        self.detector = StragglerDetector(
            window=config.detector_window,
            flag_ratio=config.flag_ratio,
            min_samples=config.detector_min_samples,
        )
        self._samples: Deque = deque()  # (now, elapsed, endpoint) triples
        self._races: Dict[str, _Race] = {}
        self._flagged: set = set()

    # -- baselines -----------------------------------------------------

    def _prune(self, now: float) -> None:
        floor = now - self.config.window
        while self._samples and self._samples[0][0] < floor:
            self._samples.popleft()

    def hedge_deadline(self, now: float) -> Optional[float]:
        """Quantile-derived deadline, or None before the sample floor.

        The quantile is taken over samples from endpoints *not* currently
        flagged by the detector: a gray member's stretched service times
        would otherwise inflate the pooled p95, raise the deadline, and
        let its own stragglers escape hedging — the baseline must track
        what a healthy member takes. Falls back to the full pool when the
        healthy subset is below the sample floor (e.g. every member
        flagged, or the window just rolled over).
        """
        self._prune(now)
        if len(self._samples) < self.config.min_samples:
            return None
        healthy = [
            elapsed
            for _, elapsed, endpoint_id in self._samples
            if endpoint_id not in self._flagged
        ]
        values = (
            healthy
            if len(healthy) >= self.config.min_samples
            else [elapsed for _, elapsed, _ in self._samples]
        )
        quantile = percentile(values, self.config.quantile)
        return max(self.config.min_deadline, self.config.factor * quantile)

    def _observe(self, endpoint_id: str, elapsed: float, now: float) -> None:
        self._samples.append((now, elapsed, endpoint_id))
        self._prune(now)
        self.detector.record(endpoint_id, elapsed, now)
        flagged_now = self.detector.flagged(endpoint_id, now)
        if flagged_now and endpoint_id not in self._flagged:
            self._flagged.add(endpoint_id)
            self.stats.stragglers_flagged += 1
            self.service.events.emit(
                now, "faas", "straggler.flagged", endpoint=endpoint_id,
                ratio=round(self.detector.ratio(endpoint_id, now), 3),
            )
        elif not flagged_now and endpoint_id in self._flagged:
            self._flagged.discard(endpoint_id)
            self.service.events.emit(
                now, "faas", "straggler.cleared", endpoint=endpoint_id,
            )
        if self._flagged:
            self._sweep_flagged(now)

    def _sweep_flagged(self, now: float) -> None:
        """Queue rescue: hedge entries stuck behind a flagged member.

        A gray member's tail damage is mostly *queueing*: one stretched
        inflight task holds the lane while everything behind it waits out
        the window, and the dispatch-deadline path only ever covers the
        running task. So on every completed observation while any member
        is flagged, entries still queued on a flagged member are hedged
        onto healthy peers — first result wins, and a queued primary that
        loses its race is retracted before it ever runs, costing zero
        duplicate compute.
        """
        for endpoint_id in sorted(self._flagged):
            dispatcher = self.service._dispatchers.get(endpoint_id)
            if dispatcher is None:
                continue
            for queued in list(dispatcher.queue):
                self._launch_hedge(queued, reason="queued")

    def gray_of(self, endpoint_id: str, now: float) -> float:
        """Detector score for health integration (0 = clean, 1 = gray)."""
        return self.detector.gray_score(endpoint_id, now)

    # -- pipeline hooks ------------------------------------------------

    def on_dispatched(self, entry: PendingTask, endpoint_id: str) -> None:
        """Arm a hedge-deadline check for a freshly dispatched primary."""
        if entry.is_hedge:
            race = self._races.get(entry.task.task_id)
            if race is not None and race.hedge is entry:
                self._tie_break(race)
            return
        task = entry.task
        if task.hedged:
            # a queue-rescued primary reached the lane with its race
            # still open; the open race decides, no second deadline
            return
        if not task.pool:
            # a pinned task has no pool sibling to hedge onto
            return
        now = self.service.clock.now
        deadline = self.hedge_deadline(now)
        if deadline is None:
            return
        generation = entry.attempt
        self.service.clock.call_after(
            deadline,
            lambda: self._deadline_fired(entry, generation, deadline),
        )

    def _tie_break(self, race: _Race) -> None:
        """Dean-style tied request: the duplicate reached a lane first.

        The hedge only exists because the primary's member is suspected
        gray; once the duplicate is actually *executing* on a healthy
        peer, a primary still waiting in the gray queue can only lose
        the race late. Retract it now, before it ever runs, and the race
        costs zero duplicate compute. A primary already running keeps
        racing — its head start may still win.
        """
        primary = race.primary
        task = primary.task
        service = self.service
        dispatcher = service._dispatchers.get(task.endpoint_id)
        if dispatcher is None or primary not in dispatcher.queue:
            return
        self._retract(primary, task.endpoint_id)
        race.primary_retired = True
        service.events.emit(
            service.clock.now, "faas", "hedge.tied",
            task_id=task.task_id, retired=task.endpoint_id,
            racing=race.endpoint,
        )

    def _retract(self, entry: PendingTask, endpoint_id: str) -> bool:
        """Retract one arm of a race from ``endpoint_id`` and release the
        routing slot it held there; True if the arm was running.

        The slot is released after the retraction, whose freed lane may
        already have started the next queued task.
        """
        service = self.service
        dispatcher = service._dispatchers.get(endpoint_id)
        running = dispatcher.retract(entry) if dispatcher is not None else False
        service._unbind_load(endpoint_id)
        return running

    def _deadline_fired(
        self, entry: PendingTask, generation: int, deadline: float
    ) -> None:
        """The primary is still running past its deadline: hedge it.

        A check that can never act is dropped first, inside a measured
        region or not: its attempt was superseded (abort + retry
        re-dispatched the entry and armed its own deadline), its task
        reached a terminal state, or its task is already hedged. All
        three only ever become true, so deferring such a check would
        only re-arm it until it fell through to a no-op.
        """
        task = entry.task
        if (
            entry.attempt != generation
            or task.state.is_terminal
            or task.hedged
        ):
            return
        service = self.service
        if service.clock.in_measured_region:
            # The check fired at *speculative* time: some task body is
            # advancing the clock inside a measure() region that will
            # rewind on exit, and the primary's completion event may not
            # even be scheduled yet — acting now would hedge tasks that
            # finish well before the deadline on the real timeline.
            # Defer until the clock is back outside every region.
            service.clock.call_after(
                _REGION_RETRY_SECONDS,
                lambda: self._deadline_fired(entry, generation, deadline),
            )
            return
        self._launch_hedge(entry, deadline=deadline, reason="deadline")

    def _launch_hedge(
        self, entry: PendingTask, deadline: float = 0.0,
        reason: str = "deadline",
    ) -> None:
        """Duplicate ``entry``'s task onto another admissible pool member."""
        service = self.service
        task = entry.task
        if (
            entry.aborted
            or entry.is_hedge
            or task.state.is_terminal
            or task.hedged
            or not task.pool
        ):
            return
        pool = service.router.pools.get(task.pool)
        if pool is None:
            return
        members = list(pool.members)
        candidates = [
            member
            for member in members
            if member != task.endpoint_id and service._admissible(member)
        ]
        if not candidates:
            return
        # deterministic target: least loaded, pool order breaking ties
        target = min(
            candidates,
            key=lambda member: (service.load(member), members.index(member)),
        )
        now = service.clock.now
        hedge = PendingTask(
            task, entry.future, entry.token, entry.spec, entry.template,
            seq=entry.seq, span=entry.span, attempt=entry.attempt,
            is_hedge=True,
        )
        task.hedged = True
        self._races[task.task_id] = _Race(
            primary=entry, hedge=hedge, endpoint=target, launched_at=now
        )
        self.stats.hedges_launched += 1
        # the duplicate occupies a routing slot on its target until the
        # race settles (mirrors _bind_load at submit)
        service._bind_load(target)
        service.events.emit(
            now, "faas", "hedge.launched",
            task_id=task.task_id, from_endpoint=task.endpoint_id,
            to_endpoint=target, deadline=round(deadline, 6),
            elapsed=round(now - (entry.dispatched_at or now), 6),
            reason=reason,
        )
        service._forward(hedge, target)

    def on_outcome(
        self, entry: PendingTask, result, error: Optional[BaseException]
    ) -> bool:
        """Settle races; ``True`` suppresses a losing hedge arm's error."""
        service = self.service
        now = service.clock.now
        task = entry.task
        race = self._races.get(task.task_id)
        if error is None and entry.dispatched_at is not None:
            elapsed = now - entry.dispatched_at
            ran_on = (
                race.endpoint
                if race is not None and entry is race.hedge
                else task.endpoint_id
            )
            self.stats.useful_seconds += elapsed
            self._observe(ran_on, elapsed, now)
        if race is None:
            return False
        if entry is race.hedge:
            if error is not None:
                # the duplicate errored: it simply loses. Suppress the
                # outcome — the primary stays the sole decider and the
                # breaker/retry chain never sees speculative failures.
                del self._races[task.task_id]
                if entry.dispatched_at is not None:
                    self.stats.wasted_seconds += max(
                        0.0, now - entry.dispatched_at
                    )
                service._unbind_load(race.endpoint)
                if race.primary_retired:
                    # the tied-request retraction benched the queued
                    # primary on the bet that this duplicate would win;
                    # it just died, so the primary goes back in line
                    primary = race.primary
                    primary.aborted = False
                    service._bind_load(task.endpoint_id)
                    dispatcher = service._dispatchers.get(task.endpoint_id)
                    if dispatcher is not None:
                        dispatcher.arrive(primary)
                service.events.emit(
                    now, "faas", "hedge.lost",
                    task_id=task.task_id, endpoint=race.endpoint,
                    error=type(error).__name__,
                )
                return True
            # first result wins, and it came from the duplicate: retract
            # the primary and move the task's assignment to the winner
            # before the breaker records, so success credits the endpoint
            # that actually produced it
            del self._races[task.task_id]
            self.stats.hedges_won += 1
            task.hedge_won = True
            task.loser_endpoint = task.endpoint_id
            if (
                not race.primary_retired
                and self._retract(race.primary, task.endpoint_id)
                and entry.dispatched_at is not None
            ):
                # both arms executed for the hedge's whole runtime: that
                # overlap is the duplicated compute this win cost
                self.stats.wasted_seconds += max(
                    0.0, now - entry.dispatched_at
                )
            task.endpoint_id = race.endpoint
            service.events.emit(
                now, "faas", "hedge.won",
                task_id=task.task_id, endpoint=race.endpoint,
                loser=task.loser_endpoint,
            )
            return False
        # entry is the primary arm
        if error is None:
            # the primary finished first: the duplicate is retracted and
            # its (possibly same-batch) completion callback is discarded
            # by the abort guard — the future resolves exactly once
            del self._races[task.task_id]
            self._cancel_hedge(race, task, now)
            return False
        # primary failed with the duplicate still out: the normal
        # breaker/retry chain decides; if it finalizes, on_finalize
        # sweeps the surviving hedge arm
        return False

    def on_finalize(self, entry: PendingTask) -> None:
        """Sweep a surviving hedge arm when its task finalizes anyway."""
        race = self._races.pop(entry.task.task_id, None)
        if race is None:
            return
        self._cancel_hedge(race, entry.task, self.service.clock.now)

    def _cancel_hedge(self, race: _Race, task, now: float) -> None:
        hedge = race.hedge
        was_running = self._retract(hedge, race.endpoint)
        if was_running and hedge.dispatched_at is not None:
            self.stats.wasted_seconds += max(0.0, now - hedge.dispatched_at)
        self.stats.hedges_cancelled += 1
        task.loser_endpoint = race.endpoint
        self.service.events.emit(
            now, "faas", "hedge.cancelled",
            task_id=task.task_id, endpoint=race.endpoint,
            was_running=was_running,
        )
