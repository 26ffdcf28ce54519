"""Virtual time for the whole simulation.

Every component that needs to "take time" advances a shared
:class:`SimClock` instead of sleeping. This keeps experiments deterministic
and lets a full multi-site CI run complete in milliseconds of wall time
while still reporting realistic virtual durations.

The clock also provides a tiny discrete-event facility: callbacks can be
scheduled at absolute virtual times and are fired in order whenever the
clock moves past them (via :meth:`advance` or :meth:`run_until`). The batch
scheduler uses this to model job start/finish events. Code that blocks
until something happens elsewhere in the simulation does so through
:meth:`wait_until`; code that only spends time calls :meth:`advance`.

Cancellation is *lazy*: a cancelled entry stays in the heap until it
reaches the head (or a compaction sweep removes it), so :meth:`call_at`,
:meth:`EventHandle.cancel`, :meth:`pending_events` and
:meth:`next_event_time` are all O(1)/O(log n) — a million-task run never
pays a linear scan per query. A live-entry counter keeps the bookkeeping
exact, and the heap is compacted whenever cancelled entries outnumber
live ones.
"""

from __future__ import annotations

import heapq
import sys
from typing import Callable, List, Optional

# compaction triggers only beyond this queue size; tiny queues never pay
_COMPACT_MIN = 64

# Recursion headroom while draining the queue. Task bodies advance the
# clock from inside measure() regions, so each task whose compute window
# overlaps another's start nests one more run_until frame set (~10
# Python frames). Under a saturating workload those chains grow with
# the backlog, and CPython's default limit of 1000 is reached mid-drain
# — worse, the RecursionError surfaces inside heappop, which has
# already removed the head entry, so the event is silently lost and
# the run's outcome starts depending on the interpreter's stack
# configuration instead of the seed. Raising the limit for the drain
# (3.11+ allocates pure-Python frames on the heap, so this is cheap)
# keeps deep cascades deterministic.
_DRAIN_RECURSION_LIMIT = 100_000


class _ScheduledEvent:
    """One scheduled callback's state. The heap itself holds
    ``(time, seq, event)`` tuples — ``seq`` is unique, so comparisons
    resolve entirely in C tuple comparison and never reach the event
    object. Heap sifts compare millions of entries in a large run; not
    paying a Python-level ``__lt__`` per comparison is worth the tuple."""

    __slots__ = ("time", "seq", "callback", "cancelled", "in_queue")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.in_queue = True


class EventHandle:
    """Handle returned by :meth:`SimClock.call_at`; supports cancellation."""

    __slots__ = ("_event", "_clock")

    def __init__(self, clock: "SimClock", event: _ScheduledEvent) -> None:
        self._event = event
        self._clock = clock

    def cancel(self) -> None:
        """Prevent the callback from firing. Idempotent.

        O(1): the entry is only flagged; the heap drops it lazily when it
        surfaces, or in the next compaction sweep.
        """
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            if event.in_queue:
                self._clock._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled


class MeasuredRegion:
    """The outcome of a :meth:`SimClock.measure` region.

    ``elapsed`` is the virtual time the region consumed. It is only
    meaningful after the region exits.

    Not to be confused with :class:`repro.telemetry.Span`: a measured
    region is a nameless cost-accounting device (no end time, no parent,
    no status), while a telemetry span is a node in a trace tree.
    """

    __slots__ = ("start", "elapsed")

    def __init__(self, start: float) -> None:
        self.start = start
        self.elapsed = 0.0


class _Measure:
    """Context manager for :meth:`SimClock.measure`.

    A plain slotted class rather than ``@contextlib.contextmanager``:
    every simulated compute call opens a region, and the generator
    protocol's per-entry overhead is measurable at millions of tasks.
    """

    __slots__ = ("_clock", "_region")

    def __init__(self, clock: "SimClock") -> None:
        self._clock = clock
        self._region: Optional[MeasuredRegion] = None

    def __enter__(self) -> MeasuredRegion:
        clock = self._clock
        region = MeasuredRegion(clock._now)
        self._region = region
        clock._regions.append(region)
        return region

    def __exit__(self, exc_type, exc, tb) -> None:
        clock = self._clock
        region = self._region
        clock._regions.pop()
        region.elapsed = clock._now - region.start
        clock._now = region.start


class SimClock:
    """A monotonically increasing virtual clock with scheduled callbacks.

    Parameters
    ----------
    start:
        Initial virtual time, in seconds. Experiments usually keep the
        default of ``0.0``; the badge-history model sets it to an epoch.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue: List[tuple] = []  # (time, seq, _ScheduledEvent)
        self._seq = 0
        # cancelled entries still sitting in the heap; live count is
        # len(_queue) - _cancelled, maintained at every push/pop/cancel
        self._cancelled = 0
        self._regions: List[MeasuredRegion] = []
        # Ambient telemetry: a repro.telemetry.Tracer registers itself
        # here so components reach trace context through the one object
        # every subsystem already shares. None means "not traced".
        self.tracer = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def in_measured_region(self) -> bool:
        """True while a :meth:`measure` region is advancing the clock.

        Events that fire inside a region observe *speculative* time: the
        region rewinds on exit, so ``now`` may move backwards afterwards.
        Callbacks whose decision depends on "has X happened by now" (a
        hedge deadline, a watchdog) can consult this to re-arm instead of
        acting on a timeline that will be rewound.
        """
        return bool(self._regions)

    def call_at(self, when: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run when virtual time reaches ``when``.

        Scheduling in the past is an error: the caller's bookkeeping is
        already inconsistent and silently clamping would hide the bug.
        """
        if when < self._now - 1e-9:
            raise ValueError(
                f"cannot schedule event at t={when:.6f}, clock is at {self._now:.6f}"
            )
        self._seq += 1
        event = _ScheduledEvent(
            when if when > self._now else self._now, self._seq, callback
        )
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return EventHandle(self, event)

    def call_after(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self._now + delay, callback)

    # -- lazy-deletion bookkeeping ------------------------------------------
    def _note_cancelled(self) -> None:
        """An in-queue entry was just cancelled; compact when the dead
        outnumber the living (classic lazy-deletion amortization)."""
        self._cancelled += 1
        queue = self._queue
        if self._cancelled > _COMPACT_MIN and self._cancelled * 2 > len(queue):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify. O(live) — amortized
        free, since at least as many entries die as survive. A dropped
        entry keeps its ``in_queue`` flag: it is cancelled, so
        :meth:`EventHandle.cancel` returns before reading the flag."""
        live = [item for item in self._queue if not item[2].cancelled]
        heapq.heapify(live)
        self._queue = live
        self._cancelled = 0

    def _peek_live(self) -> Optional[_ScheduledEvent]:
        """The earliest non-cancelled entry, popping cancelled heads."""
        queue = self._queue
        while queue:
            head = queue[0][2]
            if not head.cancelled:
                return head
            heapq.heappop(queue)
            self._cancelled -= 1
        return None

    def advance(self, duration: float) -> None:
        """Move the clock forward by ``duration`` seconds, firing events.

        Events scheduled within the window fire in time order, and the
        clock is set to each event's time while its callback runs, so
        callbacks observing :attr:`now` see consistent values.
        """
        if duration < 0:
            raise ValueError(f"cannot advance by negative duration: {duration}")
        self.run_until(self._now + duration)

    def run_until(self, target: float) -> None:
        """Advance to ``target``, firing all events scheduled before it."""
        if target < self._now - 1e-9:
            raise ValueError(
                f"cannot run clock backwards to {target:.6f} from {self._now:.6f}"
            )
        queue = self._queue
        limit = target + 1e-12
        while queue and queue[0][0] <= limit:
            event = heapq.heappop(queue)[2]
            event.in_queue = False
            if event.cancelled:
                self._cancelled -= 1
                continue
            if event.time > self._now:
                self._now = event.time
            event.callback()
            # a nested measure region may have rewound the clock; events
            # it consumed are gone, so the loop stays monotone
        if target > self._now:
            self._now = target

    def wait_until(self, done: Callable[[], bool]) -> bool:
        """Fire events one virtual instant at a time until ``done()`` holds.

        The one way to block on the rest of the simulation: a future's
        result, a batch job's end, a workflow wave's next resolved step.
        ``done`` is checked before every step, so a condition that
        already holds fires nothing. Returns ``False`` when the queue
        empties first — in a discrete-event world an empty queue *is* a
        deadlock, and the caller decides what that means for it.
        """
        while not done():
            when = self.next_event_time()
            if when is None:
                return False
            self.run_until(when)
        return True

    def run_until_idle(self, limit: float = float("inf")) -> None:
        """Fire every pending event (events may schedule more events).

        ``limit`` bounds the final time to protect against runaway
        self-rescheduling loops. Unlike :meth:`wait_until` it drains to a
        time rather than to a condition.
        """
        if self._regions:
            raise RuntimeError("cannot drain events inside a measure() region")
        old_limit = sys.getrecursionlimit()
        if old_limit < _DRAIN_RECURSION_LIMIT:
            sys.setrecursionlimit(_DRAIN_RECURSION_LIMIT)
        try:
            while True:
                head = self._peek_live()
                if head is None or head.time > limit:
                    break
                self.run_until(head.time)
        finally:
            if old_limit < _DRAIN_RECURSION_LIMIT:
                sys.setrecursionlimit(old_limit)

    def measure(self) -> _Measure:
        """Run a region of code, capture its cost, and rewind the clock.

        Inside the region the clock behaves exactly as usual — the body
        advances it, scheduled events (its own batch jobs, background
        load, other tasks' dispatches) fire in time order. On exit, the
        elapsed virtual time is available as ``span.elapsed`` and the
        clock is rewound to the region's start: the caller then schedules
        a completion event ``elapsed`` seconds out instead of having
        blocked the timeline. This is what lets task bodies on different
        endpoints overlap in virtual time — each body is costed where it
        started, and only its start/finish events constrain the others.

        Regions nest: an event fired while a body advances the clock may
        dispatch another task, whose own region rewinds its cost away so
        it is never charged to the outer span.
        """
        return _Measure(self)

    def pending_events(self) -> int:
        """Number of scheduled, non-cancelled events. O(1)."""
        return len(self._queue) - self._cancelled

    def next_event_time(self) -> Optional[float]:
        """Virtual time of the earliest pending event, or ``None``.

        Amortized O(log n): cancelled entries at the heap head are popped
        on the way past, never rescanned.
        """
        head = self._peek_live()
        return head.time if head is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.3f}, pending={self.pending_events()})"
