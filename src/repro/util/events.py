"""Structured event log shared by all subsystems.

Every significant state change (workflow triggered, task submitted, job
started, secret accessed...) is appended to an :class:`EventLog`. The
telemetry layer's metrics are derived entirely from subscriptions to it,
and the durability journal is a filtered view of it, kept by a
subscriber.

The log is also on the engine's hottest path — every lifecycle step of
every task emits — while a run reads it back only rarely and after the
fact. So it is one append-only list: :meth:`emit` allocates one
:class:`Event` tuple and nothing else (the keyword payload is adopted
as-is, never copied), and :meth:`query`, :meth:`last` and
:meth:`replay_to` scan that list.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

_NEG_INF = float("-inf")
_POS_INF = float("inf")


class Event(NamedTuple):
    """One immutable log entry.

    Attributes
    ----------
    time:
        Virtual time at which the event occurred.
    seq:
        Emission sequence number, assigned by the log and unique within
        it. Tuple order is therefore ``(time, seq)``: events emitted at
        the same virtual timestamp are totally ordered by emission, so
        trace assembly and sorted views are deterministic rather than
        relying on list-append accident.
    source:
        Subsystem that emitted it (``"actions"``, ``"faas"``, ``"slurm"``...).
    kind:
        Machine-readable event name (``"task.submitted"``...).
    data:
        Arbitrary JSON-like payload.
    """

    time: float
    seq: int
    source: str
    kind: str
    data: Dict[str, Any]


class EventLog:
    """Append-only event log with subscription and filtered queries.

    Subscriber callbacks are isolated: one raising does not abort
    delivery to the others, nor does the error propagate into the
    emitting subsystem. Each failure is recorded as a
    ``telemetry``/``subscriber_error`` event instead.
    """

    def __init__(self) -> None:
        self._events: List[Event] = []
        self._subscribers: List[Callable[[Event], None]] = []
        self._seq = 0

    def emit(self, time: float, source: str, kind: str, **data: Any) -> Event:
        """Record an event and notify subscribers.

        The fast path of the whole engine: the ``data`` keyword mapping
        is already a fresh dict owned by this call, so it is adopted
        directly — no defensive copy — and subscriber fan-out is skipped
        entirely when nobody is listening.
        """
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, source, kind, data)
        self._events.append(event)
        if self._subscribers:
            self._deliver(event, record_errors=True)
        return event

    def _deliver(self, event: Event, record_errors: bool) -> None:
        """Fan out to subscribers, isolating each callback.

        A failure while delivering a ``subscriber_error`` event is
        swallowed (``record_errors=False``) so a subscriber that raises
        on *every* event cannot recurse the log into the ground.
        """
        for sub in list(self._subscribers):
            try:
                sub(event)
            except Exception as exc:  # noqa: BLE001 - subscriber isolation
                if not record_errors:
                    continue
                self._record_subscriber_error(sub, event, exc)

    def _record_subscriber_error(
        self, sub: Callable[[Event], None], event: Event, exc: Exception
    ) -> None:
        seq = self._seq
        self._seq = seq + 1
        error_event = Event(
            event.time, seq, "telemetry", "subscriber_error",
            {
                "subscriber": getattr(sub, "__qualname__", repr(sub)),
                "error": f"{type(exc).__name__}: {exc}",
                "during": f"{event.source}/{event.kind}",
            },
        )
        self._events.append(error_event)
        self._deliver(error_event, record_errors=False)

    def replay_to(
        self,
        callback: Callable[[Event], None],
        source: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> int:
        """Deliver already-recorded history to a late subscriber.

        :meth:`subscribe` only sees *future* events; a subscriber that
        also needs the past (the durability checkpointer attaching after
        endpoints registered, a late metrics bridge) replays it
        explicitly. Events are delivered in emission order with the same
        error isolation as live delivery. Returns the number delivered.
        """
        delivered = 0
        for event in self.query(source, kind):
            delivered += 1
            try:
                callback(event)
            except Exception as exc:  # noqa: BLE001 - subscriber isolation
                self._record_subscriber_error(callback, event, exc)
        return delivered

    def subscribe(self, callback: Callable[[Event], None]) -> Callable[[], None]:
        """Register ``callback`` for future events; returns an unsubscriber."""
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

        return unsubscribe

    def query(
        self,
        source: Optional[str] = None,
        kind: Optional[str] = None,
        since: float = _NEG_INF,
        until: float = _POS_INF,
    ) -> List[Event]:
        """Return events matching all provided filters, in emission order.

        A fresh list, scanned from the whole log. Event times are not
        monotone (a measured region rewinds the clock), so the time
        window is a filter like the others, not a bisection.
        """
        return [
            e for e in self._events
            if (source is None or e.source == source)
            and (kind is None or e.kind == kind)
            and since <= e.time <= until
        ]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def last(self, kind: Optional[str] = None) -> Optional[Event]:
        """Most recent event, optionally restricted to one kind."""
        for event in reversed(self._events):
            if kind is None or event.kind == kind:
                return event
        return None
