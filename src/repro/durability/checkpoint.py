"""RunCheckpointer: journals every lifecycle transition from the EventLog.

The checkpointer is a plain event subscriber — nothing in the engine or
FaaS hot path calls it directly, so an unjournaled world behaves (and
times) identically. It journals a fixed whitelist of event kinds on the
submit → dispatch → execute → result path, enriching task events with the
idempotency key, serialized result, and measured body cost straight from
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

from typing import Any, Dict, Optional

from repro.errors import CoordinatorCrashed, TaskFailed
from repro.util.events import Event, EventLog
from repro.util.serialization import serialize

# Task-lifecycle kinds enriched with the idempotency key.
_TASK_KINDS = {
    "task.submitted",
    "task.dispatched",
    "task.retry",
    "task.failover",
    "task.timeout",
    "task.gave_up",
    "task.replayed",
    "task.completed",
}

# Kinds journaled verbatim (event data is already plain and complete).
# SLO alert transitions ride along so a replayed run's journal carries
# the same alert timeline as the crashed one (worlds that never enable
# observability emit none, keeping their crash offsets unchanged).
_PLAIN_KINDS = {
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
}


class RunCheckpointer:
    """Subscribes to the event log and appends to the journal."""

    def __init__(
        self,
        journal: Any,
        events: EventLog,
        faas: Optional[Any] = None,
    ) -> None:
        self.journal = journal
        self.events = events
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
        data: Optional[Dict[str, Any]] = None
        if kind in _TASK_KINDS:
            data = self._task_data(event, terminal=(kind == "task.completed"))
        elif (
            kind in _PLAIN_KINDS
            or kind.startswith("breaker.")
            or kind.startswith("lease.")
        ):
            data = dict(event.data)
        if data is None:
            return
        self.journal.append(kind, event.time, data)
        if self._crash_at is not None and len(self.journal) >= self._crash_at:
            self.crashed = True
            raise CoordinatorCrashed(
                f"coordinator crashed after journal record {len(self.journal)}",
                at_record=len(self.journal),
            )

    def _task_data(self, event: Event, terminal: bool) -> Dict[str, Any]:
        data = dict(event.data)
        if self.faas is None:
            return data
        try:
            task = self.faas.get_task(data.get("task_id", ""))
        except TaskFailed:
            return data
        data["key"] = task.idempotency_key
        if event.kind == "task.submitted":
            # The payload text submit rendered for the task's idempotency
            # key. Nothing reads it back yet: recovery only counts orphans.
            data["function_id"] = task.function_id
            data["payload"] = task.payload
        if terminal:
            state = getattr(task.state, "value", str(task.state))
            data["result"] = serialize(task.result) if state == "SUCCESS" else ""
            data["body_elapsed"] = task.body_elapsed
            data["attempts"] = task.attempts
            data["replayed"] = task.replayed
            data["submitted_at"] = task.submitted_at
            data["started_at"] = task.started_at
            data["completed_at"] = task.completed_at
            data["exception"] = task.exception_text or ""
        return data
