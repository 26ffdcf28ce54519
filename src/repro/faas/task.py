"""Tasks: one function execution on one endpoint."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional


class TaskState(enum.Enum):
    PENDING = "PENDING"
    RUNNING = "RUNNING"
    SUCCESS = "SUCCESS"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"

    @property
    def is_terminal(self) -> bool:
        return self in (
            TaskState.SUCCESS, TaskState.FAILED, TaskState.CANCELLED
        )


@dataclass(slots=True)
class Task:
    """Cloud-side record of one function invocation.

    ``result`` holds the deserialized return value on success;
    ``exception_text`` holds the remote traceback text on failure — the
    text CORRECT surfaces in the Action log (Fig. 5). Slotted: one
    record lives per submitted task for the life of the world.
    """

    task_id: str
    endpoint_id: str
    identity_urn: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    state: TaskState = TaskState.PENDING
    result: Any = None
    exception_text: str = ""
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    # resilience bookkeeping: dispatch attempts made (1 = no retries),
    # whether the terminal error was transient (feeds TaskFailed.retryable),
    # and the endpoint originally targeted when failover rerouted the task
    attempts: int = 1
    error_retryable: bool = False
    original_endpoint_id: str = ""
    # durability: the endpoint-independent exactly-once key, the
    # measured cost of the successful body alone (excludes provisioning
    # and queue wait, unlike execution_time), and whether this task's
    # body was replayed from a write-ahead journal instead of executed
    idempotency_key: str = ""
    body_elapsed: Optional[float] = None
    replayed: bool = False
    # placement: which policy routed this task, through which pool, and
    # the chosen endpoint's live queue depth at routing time — all empty
    # or zero when the caller pinned an explicit endpoint
    routed_by: str = ""
    pool: str = ""
    queue_depth_at_route: int = 0
    # the exhausted-retry postmortem — set when the retry policy gave
    # up, recording the terminal error kind so provenance can explain
    # why the task failed
    gave_up: bool = False
    last_error_kind: str = ""
    # hedging: whether a speculative duplicate was launched for this
    # task, whether the duplicate produced the winning result, and the
    # endpoint whose (cancelled or ignored) attempt lost the race
    hedged: bool = False
    hedge_won: bool = False
    loser_endpoint: str = ""

    @property
    def queue_latency(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at
