"""Event-driven batch scheduler with FCFS + conservative backfill.

Scheduling happens at submit time and whenever a job frees nodes. The head
of the queue is never delayed by backfilled jobs: a later job may jump the
queue only if it fits on currently-free nodes *and* is guaranteed to finish
(by its walltime bound) before the head job's earliest possible start.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.errors import InvalidJobSpec, JobNotFound
from repro.scheduler.jobs import Job, JobState
from repro.scheduler.nodes import Node, Partition
from repro.telemetry import tracer_of
from repro.util.clock import EventHandle, SimClock
from repro.util.events import EventLog
from repro.util.ids import IdFactory


class SlurmScheduler:
    """A batch scheduler over one or more partitions."""

    def __init__(
        self,
        clock: SimClock,
        partitions: List[Partition],
        event_log: Optional[EventLog] = None,
        name: str = "slurm",
    ) -> None:
        if not partitions:
            raise ValueError("scheduler needs at least one partition")
        self.clock = clock
        self.name = name
        self.events = event_log if event_log is not None else EventLog()
        self._partitions: Dict[str, Partition] = {p.name: p for p in partitions}
        if len(self._partitions) != len(partitions):
            raise ValueError("duplicate partition names")
        self._jobs: Dict[str, Job] = {}
        self._pending: List[str] = []  # job ids in submission order
        self._running: Set[str] = set()
        self._busy_nodes: Dict[str, Set[str]] = {
            p.name: set() for p in partitions
        }
        self._end_handles: Dict[str, EventHandle] = {}
        self._start_watchers: Dict[str, List[Callable[[Job], None]]] = {}
        self._ids = IdFactory(f"{name}-job")
        # telemetry: per-job lifetime span and its pending-in-queue child
        self._spans: Dict[str, object] = {}
        self._queue_spans: Dict[str, object] = {}

    # -- public API (sbatch/squeue/scancel equivalents) ------------------------
    def submit(self, job: Job) -> str:
        """Queue a job (``sbatch``). Returns the job id."""
        partition = self._partitions.get(job.partition)
        if partition is None:
            raise InvalidJobSpec(f"no partition {job.partition!r} on {self.name}")
        if job.num_nodes < 1:
            raise InvalidJobSpec("num_nodes must be >= 1")
        if job.num_nodes > partition.node_count:
            raise InvalidJobSpec(
                f"requested {job.num_nodes} nodes; partition "
                f"{partition.name!r} has {partition.node_count}"
            )
        if job.walltime is None:
            job.walltime = partition.default_walltime
        if job.walltime > partition.max_walltime:
            raise InvalidJobSpec(
                f"walltime {job.walltime:.0f}s exceeds partition limit "
                f"{partition.max_walltime:.0f}s"
            )
        job.job_id = self._ids.next_id()
        job.state = JobState.PENDING
        job.submit_time = self.clock.now
        self._jobs[job.job_id] = job
        self._pending.append(job.job_id)
        self.events.emit(
            self.clock.now, self.name, "job.submitted",
            job_id=job.job_id, name=job.name, user=job.user,
            nodes=job.num_nodes, partition=job.partition,
        )
        # spans exist before _schedule(): a free partition starts the job
        # synchronously, and _start_job must find its queue span
        tracer = tracer_of(self.clock)
        job_span = tracer.start_span(
            f"slurm:{job.name}", kind="slurm",
            scheduler=self.name, job_id=job.job_id, user=job.user,
            partition=job.partition, nodes=job.num_nodes,
        )
        self._spans[job.job_id] = job_span
        self._queue_spans[job.job_id] = tracer.start_span(
            "slurm.queue", parent=job_span.context, kind="slurm",
            scheduler=self.name, job_id=job.job_id,
        )
        self._schedule()
        return job.job_id

    def job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise JobNotFound(f"{self.name}: no job {job_id}") from None

    def queue(self) -> List[Job]:
        """Pending + running jobs, like ``squeue``."""
        return [self._jobs[j] for j in self._pending] + [
            self._jobs[j] for j in sorted(self._running)
        ]

    def cancel(self, job_id: str) -> None:
        """``scancel``: terminal no-op if already finished."""
        job = self.job(job_id)
        if job.state.is_terminal:
            return
        if job.state is JobState.PENDING:
            self._pending.remove(job_id)
            self._finish(job, JobState.CANCELLED)
        else:
            self._end_job(job, JobState.CANCELLED)

    def complete(self, job_id: str) -> None:
        """Mark an open-ended (pilot) job's payload as done."""
        job = self.job(job_id)
        if job.state is not JobState.RUNNING:
            raise JobNotFound(f"job {job_id} is not running")
        self._end_job(job, JobState.COMPLETED)

    def fail(self, job_id: str) -> None:
        """Mark a running job as failed (payload crashed)."""
        job = self.job(job_id)
        if job.state is not JobState.RUNNING:
            raise JobNotFound(f"job {job_id} is not running")
        self._end_job(job, JobState.FAILED)

    def force_timeout(self, job_id: str) -> None:
        """End a running job as TIMEOUT before its walltime bound.

        Models an operator (or a fault injector) enforcing the limit
        early — the owner observes the same terminal state as a natural
        walltime kill.
        """
        job = self.job(job_id)
        if job.state is not JobState.RUNNING:
            raise JobNotFound(f"job {job_id} is not running")
        self._end_job(job, JobState.TIMEOUT)

    def preempt(self, job_id: str) -> None:
        """Preempt a running job: nodes are reclaimed, state PREEMPTED."""
        job = self.job(job_id)
        if job.state is not JobState.RUNNING:
            raise JobNotFound(f"job {job_id} is not running")
        self._end_job(job, JobState.PREEMPTED)

    # -- completion callbacks -----------------------------------------------------
    def notify_start(self, job_id: str, callback: Callable[[Job], None]) -> None:
        """Call ``callback(job)`` when the job starts running.

        Fires immediately if the job already started (or synchronously
        from :meth:`submit` when free nodes allow an instant start). The
        async pilot provisioning path registers a callback instead of
        pumping the clock, so a queue wait on one site never blocks
        progress anywhere else.
        """
        job = self.job(job_id)
        if job.state is not JobState.PENDING:
            callback(job)
            return
        self._start_watchers.setdefault(job_id, []).append(callback)

    # -- waiting helpers ---------------------------------------------------------
    def wait_for(self, job_id: str) -> Job:
        """Advance virtual time until the job reaches a terminal state, or
        return it as it is once no event is left to move it."""
        job = self.job(job_id)
        self.clock.wait_until(lambda: job.state.is_terminal)
        return job

    # -- partitions and utilization -------------------------------------------
    @property
    def default_partition(self) -> Partition:
        """Slurm's default partition: the first one the scheduler was
        built with."""
        return next(iter(self._partitions.values()))

    def free_nodes(self, partition_name: str) -> List[Node]:
        partition = self._partitions[partition_name]
        busy = self._busy_nodes[partition_name]
        return [n for n in partition.nodes if n.name not in busy]

    def utilization(self, partition_name: str) -> float:
        partition = self._partitions[partition_name]
        return len(self._busy_nodes[partition_name]) / partition.node_count

    # -- internals ---------------------------------------------------------------
    def _schedule(self) -> None:
        """FCFS + conservative backfill over each partition's queue."""
        for pname in self._partitions:
            self._schedule_partition(pname)

    def _schedule_partition(self, pname: str) -> None:
        # One job starts per scan, dequeued *before* its start callbacks
        # run: a start watcher may drive the clock (async pilot dispatch
        # runs task bodies), re-entering _schedule — the queue must never
        # hold a job that is already running.
        while True:
            queue = [
                j for j in self._pending if self._jobs[j].partition == pname
            ]
            if not queue:
                return
            free = len(self.free_nodes(pname))
            head_blocked: Optional[Job] = None
            to_start: Optional[Job] = None
            for job_id in queue:
                job = self._jobs[job_id]
                if head_blocked is None:
                    if job.num_nodes <= free:
                        to_start = job
                        break
                    head_blocked = job
                else:
                    # Backfill: may start only if it fits now AND its
                    # walltime bound ends before the blocked head's
                    # earliest start.
                    shadow = self._shadow_time(head_blocked)
                    if (
                        job.num_nodes <= free
                        and shadow is not None
                        and self.clock.now + (job.walltime or 0.0)
                        <= shadow + 1e-9
                    ):
                        to_start = job
                        break
            if to_start is None:
                return
            self._pending.remove(to_start.job_id)
            self._start_job(to_start)

    def _shadow_time(self, head: Job) -> Optional[float]:
        """Earliest time the blocked head job could start.

        Computed from the walltime-bounded end times of running jobs in the
        head's partition, accumulating freed nodes until enough exist.
        """
        partition = self._partitions[head.partition]
        free = partition.node_count - len(self._busy_nodes[head.partition])
        ends = sorted(
            (
                (self._jobs[j].start_time or 0.0) + (self._jobs[j].walltime or 0.0),
                self._jobs[j].num_nodes,
            )
            for j in self._running
            if self._jobs[j].partition == head.partition
        )
        for end_time, nodes in ends:
            free += nodes
            if free >= head.num_nodes:
                return end_time
        return None

    def _start_job(self, job: Job) -> None:
        free = self.free_nodes(job.partition)
        job.allocated_nodes = free[: job.num_nodes]
        self._busy_nodes[job.partition].update(
            n.name for n in job.allocated_nodes
        )
        job.state = JobState.RUNNING
        job.start_time = self.clock.now
        self._running.add(job.job_id)
        self.events.emit(
            self.clock.now, self.name, "job.started",
            job_id=job.job_id, name=job.name,
            nodes=[n.name for n in job.allocated_nodes],
            queue_wait=job.queue_wait,
        )
        queue_span = self._queue_spans.pop(job.job_id, None)
        if queue_span is not None:
            tracer_of(self.clock).end_span(queue_span)
            queue_span.attributes["queue_wait"] = job.queue_wait
        if job.on_start is not None:
            job.on_start(job)
        for watcher in self._start_watchers.pop(job.job_id, []):
            watcher(job)
        # schedule the end: payload completion or walltime kill
        if job.duration is not None and job.duration <= (job.walltime or 0.0):
            end_state = JobState.COMPLETED
            end_at = self.clock.now + job.duration
        else:
            end_state = JobState.TIMEOUT
            end_at = self.clock.now + (job.walltime or 0.0)
        handle = self.clock.call_at(
            end_at, lambda j=job, s=end_state: self._end_job(j, s)
        )
        self._end_handles[job.job_id] = handle

    def _end_job(self, job: Job, state: JobState) -> None:
        if job.state.is_terminal:
            return
        handle = self._end_handles.pop(job.job_id, None)
        if handle is not None:
            handle.cancel()
        self._running.discard(job.job_id)
        self._busy_nodes[job.partition].difference_update(
            n.name for n in job.allocated_nodes
        )
        self._finish(job, state)
        self._schedule()

    def _finish(self, job: Job, state: JobState) -> None:
        job.state = state
        job.end_time = self.clock.now
        self.events.emit(
            self.clock.now, self.name, "job.ended",
            job_id=job.job_id, name=job.name, state=state.value,
        )
        tracer = tracer_of(self.clock)
        queue_span = self._queue_spans.pop(job.job_id, None)
        if queue_span is not None:  # cancelled while still pending
            tracer.end_span(queue_span, status="error", error=state.value)
        job_span = self._spans.pop(job.job_id, None)
        if job_span is not None:
            ok = state in (JobState.COMPLETED, JobState.CANCELLED)
            tracer.end_span(
                job_span,
                status="ok" if ok else "error",
                error="" if ok else state.value,
            )
            job_span.attributes["state"] = state.value
        if job.on_end is not None:
            job.on_end(job)
        self._start_watchers.pop(job.job_id, None)
