"""The tracer: span production and ambient context propagation.

One :class:`Tracer` exists per simulated world. It owns every span of
every trace, issues deterministic ids (so identical runs yield identical
span trees), and maintains an *activation stack* of span contexts: code
that starts a span without an explicit parent is parented under whatever
context is currently active.

Context crosses async boundaries explicitly: a producer captures
``tracer.current()`` at submit time and re-enters it with
``tracer.activate(ctx)`` inside the completion callback. This is how a
Slurm pilot job submitted three layers below a CI step still hangs off
that step in the trace tree.

The tracer registers itself on the shared :class:`SimClock`
(``clock.tracer``) so deeply nested components — pilot executors,
schedulers — reach the ambient tracer through the one object they all
already hold, via :func:`tracer_of`. A clock without a tracer resolves
to the process-wide :data:`NULL_TRACER`, which swallows everything.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.telemetry.sampling import ALWAYS_SAMPLER
from repro.telemetry.span import (
    DROPPED_CONTEXT,
    STATUS_ERROR,
    STATUS_OK,
    Span,
    SpanContext,
    _NullSpan,
)
from repro.util.clock import SimClock
from repro.util.ids import IdFactory

ParentLike = Union[None, str, Span, SpanContext]

# sentinel: "parent under whatever context is active right now"
CURRENT = "current"


class _Activation:
    """Slotted context manager for :meth:`Tracer.activate`.

    Activation brackets every task dispatch and every span body; the
    generator-based ``@contextmanager`` protocol costs three extra calls
    per entry, which is real money at a million tasks.
    """

    __slots__ = ("_stack", "_context")

    def __init__(
        self, stack: List[Optional[SpanContext]], context: Optional[SpanContext]
    ) -> None:
        self._stack = stack
        self._context = context

    def __enter__(self) -> None:
        self._stack.append(self._context)

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stack.pop()


class Tracer:
    """Produces hierarchical spans stamped with virtual time.

    ``sampler`` (every trace, until assigned) decides, once per trace
    *root*, whether the whole trace materializes (see
    :mod:`repro.telemetry.sampling`). A sampled-out root — and every
    descendant started under its context — resolves to one shared inert
    span: attach-but-sample-out costs no allocations.
    """

    enabled = True

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.sampler = ALWAYS_SAMPLER
        self.spans: List[Span] = []
        self._by_id: Dict[str, Span] = {}
        self._stack: List[Optional[SpanContext]] = []
        self._trace_ids = IdFactory("trace")
        self._span_ids = IdFactory("span")
        self._dropped = _NullSpan()
        self._dropped.context = DROPPED_CONTEXT
        clock.tracer = self

    # -- span lifecycle -----------------------------------------------------
    def start_span(
        self,
        name: str,
        parent: ParentLike = CURRENT,
        kind: str = "",
        **attributes: Any,
    ) -> Span:
        """Open a span starting now.

        ``parent`` is the active context by default; pass ``None`` to
        force a new trace root, or an explicit :class:`SpanContext` /
        :class:`Span` to parent across an async boundary.
        """
        if isinstance(parent, str):  # the CURRENT sentinel
            parent_ctx = self._stack[-1] if self._stack else None
        elif isinstance(parent, Span):
            parent_ctx = parent.context
        else:
            parent_ctx = parent  # SpanContext or None
        if parent_ctx is None:
            if not self.sampler.sample(name):
                return self._dropped
            trace_id = self._trace_ids.next_id()
            parent_id = ""
        else:
            if parent_ctx == DROPPED_CONTEXT:
                return self._dropped
            trace_id = parent_ctx.trace_id
            parent_id = parent_ctx.span_id
        span = Span(
            trace_id=trace_id,
            span_id=self._span_ids.next_id(),
            parent_id=parent_id,
            name=name,
            kind=kind,
            start=self.clock.now,
            attributes=attributes,
        )
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span

    def end_span(
        self,
        span: Span,
        status: str = STATUS_OK,
        error: str = "",
        at: Optional[float] = None,
    ) -> None:
        """Seal a span at ``at`` (default: now). Idempotent."""
        if isinstance(span, _NullSpan) or not span.is_open:
            return
        span.end = self.clock.now if at is None else at
        span.status = status
        span.error = error

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        parent: ParentLike = CURRENT,
        kind: str = "",
        **attributes: Any,
    ) -> Iterator[Span]:
        """Open a span, activate it for the body, seal it on exit.

        An escaping exception marks the span ``error`` and re-raises.
        """
        opened = self.start_span(name, parent=parent, kind=kind, **attributes)
        try:
            with self.activate(opened.context):
                yield opened
        except BaseException as exc:
            self.end_span(
                opened, status=STATUS_ERROR,
                error=f"{type(exc).__name__}: {exc}",
            )
            raise
        else:
            self.end_span(opened)

    # -- context propagation ------------------------------------------------
    def current(self) -> Optional[SpanContext]:
        """The active context, or ``None`` outside any activation."""
        return self._stack[-1] if self._stack else None

    def activate(self, context: Optional[SpanContext]) -> _Activation:
        """Make ``context`` the active parent for the dynamic extent.

        ``activate(None)`` deliberately detaches: spans started inside
        become new trace roots (used to keep synthetic background work
        out of CI traces).
        """
        return _Activation(self._stack, context)

    def annotate(self, **attributes: Any) -> None:
        """Merge attributes into the currently active span, if any."""
        ctx = self.current()
        if ctx is None:
            return
        span = self._by_id.get(ctx.span_id)
        if span is not None:
            span.attributes.update(attributes)

    # -- queries ------------------------------------------------------------
    def trace(self, trace_id: str) -> List[Span]:
        """All spans of one trace, in creation order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def roots(self) -> List[Span]:
        """Spans with no parent — one per trace."""
        return [s for s in self.spans if not s.parent_id]

    def children(self, span_id: str) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def find(self, kind: Optional[str] = None,
             name_prefix: str = "") -> List[Span]:
        return [
            s for s in self.spans
            if (kind is None or s.kind == kind)
            and s.name.startswith(name_prefix)
        ]

    def subtree(self, span_id: str) -> List[Span]:
        """A span and all its descendants, depth-first."""
        root = self._by_id.get(span_id)
        if root is None:
            return []
        out: List[Span] = []
        stack = [root]
        while stack:
            span = stack.pop()
            out.append(span)
            stack.extend(reversed(self.children(span.span_id)))
        return out

    def span_tree(self, trace_id: str) -> List[Dict[str, Any]]:
        """The trace as nested dicts — a comparable, deterministic shape.

        Children appear in creation order; ids are omitted so two
        identical runs of different worlds compare equal.
        """
        by_parent: Dict[str, List[Span]] = {}
        for span in self.trace(trace_id):
            by_parent.setdefault(span.parent_id, []).append(span)

        def node(span: Span) -> Dict[str, Any]:
            return {
                "name": span.name,
                "kind": span.kind,
                "status": span.status,
                "start": span.start,
                "end": span.end,
                "children": [
                    node(c) for c in by_parent.get(span.span_id, [])
                ],
            }

        return [node(s) for s in by_parent.get("", [])]


class _NoopActivation:
    """Reusable do-nothing activation handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP_ACTIVATION = _NoopActivation()


class NullTracer:
    """API-compatible tracer that records nothing.

    Used when telemetry is disabled; every call is a no-op, so
    instrumented code needs no enabled/disabled branches.
    """

    enabled = False

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._null = _NullSpan()

    def start_span(self, name: str, parent: ParentLike = CURRENT,
                   kind: str = "", **attributes: Any) -> _NullSpan:
        return self._null

    def end_span(self, span: Any, status: str = STATUS_OK,
                 error: str = "", at: Optional[float] = None) -> None:
        pass

    @contextlib.contextmanager
    def span(self, name: str, parent: ParentLike = CURRENT,
             kind: str = "", **attributes: Any) -> Iterator[_NullSpan]:
        yield self._null

    def current(self) -> None:
        return None

    def activate(self, context: Optional[SpanContext]) -> "_NoopActivation":
        return _NOOP_ACTIVATION

    def annotate(self, **attributes: Any) -> None:
        pass

    def roots(self) -> List[Span]:
        return []

    def span_tree(self, trace_id: str) -> List[Dict[str, Any]]:
        return []


NULL_TRACER = NullTracer()


def tracer_of(clock: SimClock) -> Union[Tracer, NullTracer]:
    """The tracer ambient to this clock's simulation (never ``None``)."""
    return getattr(clock, "tracer", None) or NULL_TRACER
