"""RunCheckpointer: journals every lifecycle transition from the EventLog.

The checkpointer is a plain event subscriber — nothing in the engine or
FaaS hot path calls it directly, so an unjournaled world behaves (and
times) identically. It journals a fixed whitelist of event kinds on the
submit → dispatch → execute → result path. Each record holds its event's
data plus only what recovery reads back and no event carries: the
idempotency key of a submitted or completed task, and a completion's
serialized result, measured body cost and exception text, straight from
the live :class:`~repro.faas.task.Task` (events themselves stay lean).

``fault/*`` events are deliberately *excluded* from the whitelist:
arming a crash plan emits fault events, and journaling them would shift
journal offsets between the baseline run and the crash run, making
"crash after record N" mean different things in each.

The checkpointer is also the crash point: :meth:`arm_crash` makes the
append of record N raise :class:`~repro.errors.CoordinatorCrashed`, a
``BaseException`` that unwinds the whole run — everything journaled up
to and including record N survives; nothing after it exists.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import CoordinatorCrashed
from repro.util.events import Event, EventLog
from repro.util.serialization import serialize

# Kinds journaled, besides every ``breaker.*`` and ``lease.*`` transition.
# SLO alert transitions ride along so a replayed run's journal carries
# the same alert timeline as the crashed one (worlds that never enable
# observability emit none, keeping their crash offsets unchanged).
_JOURNALED_KINDS = frozenset({
    "run.created",
    "run.resumed",
    "job.finished",
    "step.started",
    "step.finished",
    "step.replayed",
    "block.provisioned",
    "block.released",
    "endpoint.registered",
    "alert.fired",
    "alert.resolved",
    "task.submitted",
    "task.dispatched",
    "task.retry",
    "task.failover",
    "task.timeout",
    "task.gave_up",
    "task.replayed",
    "task.completed",
})


class RunCheckpointer:
    """Subscribes to the event log and appends to the journal."""

    def __init__(self, journal: Any, events: EventLog, faas: Any) -> None:
        self.journal = journal
        self.faas = faas
        self.crashed = False
        self._crash_at: Optional[int] = None
        # Late attachment must not lose history already emitted
        # (endpoint registrations, provisioning) — replay it first.
        events.replay_to(self.on_event)
        events.subscribe(self.on_event)

    def arm_crash(self, at_record: int) -> None:
        """Die the moment journal record ``at_record`` (1-based) lands."""
        if at_record < 1:
            raise ValueError("crash point must be a positive record count")
        self._crash_at = at_record

    # -- the one subscriber --------------------------------------------------
    def on_event(self, event: Event) -> None:
        if self.crashed:
            return
        kind = event.kind
        if not (
            kind in _JOURNALED_KINDS
            or kind.startswith("breaker.")
            or kind.startswith("lease.")
        ):
            return
        data = dict(event.data)
        if kind == "task.submitted":
            data["key"] = self.faas.get_task(data["task_id"]).idempotency_key
        elif kind == "task.completed":
            # what replay returns; a failed task's only outcome is its
            # exception text, since its result is empty
            task = self.faas.get_task(data["task_id"])
            data["key"] = task.idempotency_key
            success = data["state"] == "SUCCESS"
            data["result"] = serialize(task.result) if success else ""
            data["body_elapsed"] = task.body_elapsed
            data["exception"] = task.exception_text
        self.journal.append(kind, event.time, data)
        if self._crash_at is not None and len(self.journal) >= self._crash_at:
            self.crashed = True
            raise CoordinatorCrashed(
                f"coordinator crashed after journal record {len(self.journal)}",
                at_record=len(self.journal),
            )
