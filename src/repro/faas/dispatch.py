"""The dispatch plane: per-endpoint FIFO ordering + execution, nothing else.

One :class:`EndpointDispatcher` per endpoint takes validated
:class:`PendingTask` entries from scheduled dispatch events and runs them
one at a time (the pilot holds one block). Resilience behavior — lease
heartbeats, replay substitution, retry/breaker decisions — enters only
through the service's :class:`~repro.faas.pipeline.Pipeline` hooks;
placement has already happened by the time an entry arrives here.

The queue is ordered by each entry's submission sequence number, not by
arrival time: a retried or failed-over attempt re-enters the queue
*where its original submission order puts it*, so per-endpoint FIFO
holds even when backoff jitter makes attempts from different batches
land out of order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.auth.oauth import Token
from repro.errors import (
    ENGINE_ERRORS,
    EndpointNotFound,
    EndpointOffline,
    PermissionDenied,
)
from repro.faas.endpoint import MultiUserEndpoint
from repro.faas.functions import FunctionSpec
from repro.faas.future import TaskFuture
from repro.faas.task import Task, TaskState
from repro.faults.injector import injector_of
from repro.telemetry import tracer_of


@dataclass(slots=True)
class PendingTask:
    """A validated task waiting on (or moving through) an endpoint queue.

    Slotted: one instance exists per live task, and at a million tasks
    the per-instance ``__dict__`` is real memory.
    """

    task: Task
    future: TaskFuture
    token: Token
    spec: FunctionSpec
    template: str
    # global submission order; the dispatcher keeps its queue sorted by
    # this, so re-arrivals (retry, failover) cannot jump or trail tasks
    # submitted around them
    seq: int = 0
    # telemetry span opened at submit time; carries the submitter's trace
    # context across the async dispatch boundary
    span: object = None
    # resilience bookkeeping: 1-based dispatch attempt, and the abort
    # flag :meth:`EndpointDispatcher.withdraw` sets so a stale completion
    # callback (or arrival) for the withdrawn attempt is discarded
    attempt: int = 1
    aborted: bool = False
    # hedging: set on the speculative duplicate entry (the hedge arm
    # shares the primary's task and future but runs on another pool
    # member), plus the virtual time this entry's current attempt was
    # handed to an endpoint — the base the hedge deadline counts from
    is_hedge: bool = False
    dispatched_at: Optional[float] = None


class EndpointDispatcher:
    """FIFO dispatch loop for one endpoint.

    Tasks arrive via scheduled dispatch events and run one at a time per
    endpoint (the pilot holds one block); completion hands the loop to
    the next queued task. Separate endpoints have separate dispatchers,
    so their queues drain concurrently in virtual time.

    An entry leaves the queue or the lane in three ways only: :meth:`pump`
    moves the queue head onto the lane, the completion callback frees the
    lane, and :meth:`withdraw` takes an entry off either. The lane is busy
    exactly while ``inflight`` holds an entry.
    """

    def __init__(self, service, endpoint_id: str) -> None:
        self.service = service
        self.endpoint_id = endpoint_id
        self.queue: Deque[PendingTask] = deque()
        self.inflight: Optional[PendingTask] = None

    def arrive(self, entry: PendingTask) -> None:
        """Queue an entry in submission order and try to dispatch.

        Entries normally arrive in ``seq`` order (dispatch events for one
        endpoint fire in submit order), making this an append. A
        failed-over or retried attempt can arrive *behind* tasks that
        were submitted after it; the ordered insert restores its place.
        """
        if entry.task.state.is_terminal:
            # the deadline fired while this entry's dispatch or retry
            # backoff event was in flight; the task is already finalized
            # and re-queueing it would dispatch (and resolve) it twice
            return
        if entry.aborted:
            # retracted (cancelled, or a hedge race already settled)
            # while its arrival event was on the wire; a retry clears
            # the flag before re-scheduling, so this only drops entries
            # nobody is waiting on
            return
        if not self.queue or entry.seq >= self.queue[-1].seq:
            self.queue.append(entry)
        else:
            index = 0
            for index, queued in enumerate(self.queue):  # noqa: B007
                if queued.seq > entry.seq:
                    break
            self.queue.insert(index, entry)
        self.pump()

    def withdraw(self, entry: PendingTask) -> bool:
        """Take ``entry`` off this dispatcher; True if it was running.

        Marks the entry aborted, so its late completion callback (or an
        arrival still on the wire) is discarded, and frees its lane or
        queue slot. Nothing is pumped and no outcome is recorded: each
        caller settles the entry and pumps the freed lane itself, in the
        order it needs.
        """
        entry.aborted = True
        if self.inflight is entry:
            self.inflight = None
            return True
        if entry in self.queue:
            self.queue.remove(entry)
        return False

    def abort_inflight(self, error: BaseException) -> Optional[PendingTask]:
        """Fail the in-flight task with ``error`` and free the lane.

        Used when the endpoint drops offline while work is on the wire:
        the typed error goes through the normal completion path, so it
        is retryable like any other failure. The freed lane is not pumped.
        """
        entry = self.inflight
        if entry is None:
            return None
        self.withdraw(entry)
        self.service._complete(entry, None, error)
        return entry

    def retract(self, entry: PendingTask) -> bool:
        """Withdraw an entry without completing it; True if it was running.

        The hedge plane's retraction of a losing or superseded arm:
        unlike :meth:`abort_inflight` *no* outcome flows through the
        pipeline, so nothing retries a retraction. A lane it frees goes
        to the next queued entry at once, before the caller has settled
        the retracted task.
        """
        running = self.withdraw(entry)
        if running:
            self.pump()
        return running

    def pump(self) -> None:
        if self.inflight is not None or not self.queue:
            return
        entry = self.queue.popleft()
        self.inflight = entry
        task = entry.task
        task.state = TaskState.RUNNING
        entry.dispatched_at = self.service.clock.now
        if entry.is_hedge:
            # the hedge arm is a shadow of an already-running task: keep
            # the primary's started_at (queue latency counts from the
            # first dispatch) and emit a distinct event kind so journals
            # and per-task metrics never see two dispatches of one task
            self.service.events.emit(
                self.service.clock.now, "faas", "task.hedge_dispatched",
                task_id=task.task_id, endpoint=self.endpoint_id,
                attempt=entry.attempt, pool=task.pool,
            )
        elif task.pool:
            # pool-routed tasks stamp their pool so the metrics bridge can
            # label per-pool series; pinned tasks keep the historic payload
            task.started_at = self.service.clock.now
            self.service.events.emit(
                self.service.clock.now, "faas", "task.dispatched",
                task_id=task.task_id, endpoint=self.endpoint_id,
                attempt=entry.attempt, pool=task.pool,
            )
        else:
            task.started_at = self.service.clock.now
            self.service.events.emit(
                self.service.clock.now, "faas", "task.dispatched",
                task_id=task.task_id, endpoint=self.endpoint_id,
                attempt=entry.attempt,
            )
        self.service.pipeline.dispatched(entry, self.endpoint_id)
        tracer = tracer_of(self.service.clock)
        if tracer.enabled:
            exec_span = tracer.start_span(
                "task.execute",
                parent=entry.span.context if entry.span is not None else None,
                kind="execute", task_id=task.task_id, endpoint=self.endpoint_id,
                dispatch_wait=(
                    self.service.clock.now - (task.submitted_at or 0.0)
                ),
                attempt=entry.attempt,
            )
        else:
            exec_span = tracer.start_span("task.execute")
        # an abort (offline, deadline) may re-queue this entry as a new
        # attempt before this attempt's completion event fires; the
        # generation stamp lets the doomed callback recognise itself even
        # after the retry has cleared the aborted flag
        attempt_at_dispatch = entry.attempt

        def on_done(result, error) -> None:
            tracer.end_span(
                exec_span,
                status="ok" if error is None else "error",
                error="" if error is None else f"{type(error).__name__}: {error}",
            )
            if entry.aborted or entry.attempt != attempt_at_dispatch:
                # the abort already completed (and possibly re-queued)
                # this entry; this is the doomed attempt reporting in late
                return
            # free the lane *before* resolving: done-callbacks may submit
            # follow-up tasks to this endpoint and drive the clock.
            self.inflight = None
            self.service._complete(entry, result, error)
            self.pump()

        # a fail-slow window stretches this whole dispatch: the completion
        # callback is deferred by (multiplier - 1) x the execution's
        # elapsed virtual time, modelling an endpoint that stays alive and
        # keeps succeeding while quietly running several-x slow. Sampled
        # once at dispatch, so a window opening mid-task never slows it
        # retroactively (determinism under hedged re-execution).
        injector = injector_of(self.service.clock)
        slow = injector.service_multiplier(self.endpoint_id)
        if slow > 1.0:
            clock = self.service.clock
            dispatch_started = clock.now
            fast_done = on_done

            def slowed_done(result, error) -> None:
                extra = (slow - 1.0) * (clock.now - dispatch_started)
                if extra > 1e-12:
                    clock.call_after(extra, lambda: fast_done(result, error))
                else:
                    fast_done(result, error)

            done_cb = slowed_done
        else:
            done_cb = on_done

        try:
            # the execute span is active for the whole dispatch chain, so
            # pilot provisioning and Slurm submissions parent under it
            with tracer.activate(exec_span.context):
                endpoint = self.service._endpoints.get(self.endpoint_id)
                if endpoint is None:
                    raise EndpointNotFound(
                        f"endpoint {self.endpoint_id!r} disappeared before dispatch"
                    )
                if not endpoint.online:
                    raise EndpointOffline(
                        f"endpoint {self.endpoint_id!r} went offline before dispatch"
                    )
                injector.check_dispatch(endpoint.site.name)
                injected = injector.task_error_for(
                    endpoint.site.name, entry.spec.name
                )
                if injected is not None:
                    raise injected
                # journal recording or journaled-result replay wraps the
                # function body; with durability off this is entry.spec
                spec = self.service.pipeline.wrap_spec(entry)
                if isinstance(endpoint, MultiUserEndpoint):
                    endpoint.execute_async(
                        entry.token, spec, task.args, task.kwargs,
                        done_cb, template_name=entry.template,
                    )
                else:
                    if (
                        endpoint.owner is not None
                        and endpoint.owner != entry.token.identity
                    ):
                        raise PermissionDenied(
                            f"endpoint {self.endpoint_id[:8]} belongs to "
                            f"{endpoint.owner.urn}, not {entry.token.identity.urn}"
                        )
                    endpoint.execute_async(
                        spec, task.args, task.kwargs, done_cb
                    )
        except ENGINE_ERRORS:
            raise
        except BaseException as exc:  # noqa: BLE001 - dispatch-time failure
            on_done(None, exc)
