"""Batch jobs and their lifecycle."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.scheduler.nodes import Node


class JobState(enum.Enum):
    PENDING = "PENDING"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    CANCELLED = "CANCELLED"
    TIMEOUT = "TIMEOUT"
    FAILED = "FAILED"
    PREEMPTED = "PREEMPTED"

    @property
    def is_terminal(self) -> bool:
        return self not in (JobState.PENDING, JobState.RUNNING)


@dataclass
class Job:
    """A batch job request plus its runtime bookkeeping.

    ``duration`` is the virtual seconds the payload takes once started.
    ``None`` means open-ended (a pilot job): it runs until the owner calls
    :meth:`SlurmScheduler.complete` or the walltime limit kills it.
    """

    user: str
    partition: str
    num_nodes: int = 1
    walltime: Optional[float] = None  # None -> partition default
    duration: Optional[float] = None
    name: str = "job"
    on_start: Optional[Callable[["Job"], None]] = None
    on_end: Optional[Callable[["Job"], None]] = None

    # filled in by the scheduler
    job_id: str = ""
    state: JobState = JobState.PENDING
    submit_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    allocated_nodes: List[Node] = field(default_factory=list)

    @property
    def queue_wait(self) -> Optional[float]:
        """Seconds spent pending, once started."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job({self.job_id or '?'} {self.name!r} user={self.user} "
            f"nodes={self.num_nodes} state={self.state.value})"
        )
