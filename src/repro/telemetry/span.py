"""Hierarchical spans: the unit of the telemetry timeline.

A :class:`Span` is one named interval of *virtual* time with a position
in a trace tree (``trace_id``/``span_id``/``parent_id``), free-form
attributes, and an ok/error status. Spans are produced by
:class:`~repro.telemetry.tracer.Tracer` and never advance the clock —
telemetry observes the simulation, it must not perturb it.

This is distinct from :class:`repro.util.clock.MeasuredRegion` (the
object ``SimClock.measure`` yields), which is a cost-accounting device
with no name, tree position, or status.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional

STATUS_OK = "ok"
STATUS_ERROR = "error"


class SpanContext(NamedTuple):
    """The portable identity of a span: enough to parent children on it."""

    trace_id: str
    span_id: str


# The context a sampled-out trace root hands to its would-be children:
# any span started under it is dropped too, so an unsampled trace costs
# zero span allocations end to end. Distinct from ``None`` (= "no parent,
# start a fresh root"), which triggers a *new* sampling decision.
DROPPED_CONTEXT = SpanContext("", "")


class Span:
    """One named interval in a trace tree.

    ``end`` is ``None`` while the span is open; :meth:`Tracer.end_span`
    seals it. ``kind`` is a coarse layer label (``"workflow"``, ``"job"``,
    ``"step"``, ``"action"``, ``"task"``, ``"execute"``, ``"slurm"``,
    ``"node"``) that exporters use to assign display lanes.
    """

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "kind",
        "start", "end", "_attributes", "status", "error",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str,
        name: str,
        kind: str,
        start: float,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        # Lazily materialized: the tracer hands over a fresh kwargs dict
        # (adopted, not copied), and attribute-less spans never allocate
        # one at all until someone actually reads or writes attributes.
        self._attributes: Optional[Dict[str, Any]] = attributes or None
        self.status = STATUS_OK
        self.error = ""

    @property
    def attributes(self) -> Dict[str, Any]:
        attrs = self._attributes
        if attrs is None:
            attrs = self._attributes = {}
        return attrs

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def is_open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (used by provenance timelines and exporters)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self._attributes or {}),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = "open" if self.end is None else f"{self.end:.3f}"
        return (
            f"Span({self.name!r}, {self.span_id}, "
            f"[{self.start:.3f}, {end}], {self.status})"
        )


class _NullSpan:
    """The inert span a :class:`NullTracer` hands out.

    Accepts attribute updates and exposes ``context=None`` so call sites
    can pass ``span.context`` around without branching on telemetry
    being enabled.
    """

    context = None
    trace_id = ""
    span_id = ""
    parent_id = ""
    name = ""
    kind = ""
    start = 0.0
    end: Optional[float] = 0.0
    status = STATUS_OK
    error = ""
    is_open = False
    duration = 0.0
    ok = True

    def __init__(self) -> None:
        self.attributes: Dict[str, Any] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullSpan()"
