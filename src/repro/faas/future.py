"""Futures for the deferred task lifecycle.

:meth:`FaaSService.submit` no longer runs the task to completion — it
enqueues the task on a per-endpoint dispatcher and hands back a
:class:`TaskFuture`. Results are pulled by *driving the shared clock*:
``future.result()`` fires pending events (dispatch, block provisioning,
task completion) until this future resolves. Because every blocking wait
is expressed as clock events rather than Python control flow, tasks
in flight on different endpoints interleave in virtual time.

:class:`Future` is the generic building block; chained computations (the
CORRECT clone→execute pipeline) compose plain futures resolved from
completion callbacks.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, TYPE_CHECKING

from repro.errors import TaskCancelled, TaskFailed
from repro.util.clock import SimClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faas.task import Task


class Future:
    """A value that resolves when the simulation reaches its event.

    ``clock`` is the shared :class:`SimClock`; :meth:`wait` blocks on it
    through :meth:`SimClock.wait_until`. A future that can never resolve
    (the event queue drains first) raises :class:`TaskFailed` rather than
    spinning.
    """

    __slots__ = ("_clock", "_resolved", "_result", "_exception", "_callbacks")

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._resolved = False
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []

    # -- resolution (producer side) ------------------------------------------
    def set_result(self, value: Any) -> None:
        self._resolve(result=value)

    def set_exception(self, exc: BaseException) -> None:
        self._resolve(exception=exc)

    def _resolve(
        self, result: Any = None, exception: Optional[BaseException] = None
    ) -> None:
        if self._resolved:
            raise RuntimeError("future already resolved")
        self._resolved = True
        self._result = result
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def cancel(self) -> bool:
        """Resolve with :class:`TaskCancelled` if still pending.

        Returns ``True`` when this call retracted the future, ``False``
        when it had already resolved (a result, an error, or an earlier
        cancel — cancellation cannot un-happen a completion).
        """
        if self._resolved:
            return False
        self.set_exception(TaskCancelled("future cancelled"))
        return True

    # -- observation (consumer side) -----------------------------------------
    def done(self) -> bool:
        """True once the future has a result or an exception."""
        return self._resolved

    def cancelled(self) -> bool:
        """True when the future resolved by cancellation."""
        return self._resolved and isinstance(self._exception, TaskCancelled)

    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        """Call ``fn(self)`` when resolved; immediately if already done."""
        if self._resolved:
            fn(self)
        else:
            self._callbacks.append(fn)

    def wait(self) -> "Future":
        """Drive the clock until this future resolves; never raises its error."""
        if not self._resolved and not self._clock.wait_until(self.done):
            raise TaskFailed("deadlock: future pending but no events are scheduled")
        return self

    def result(self) -> Any:
        """The value; drives the clock if needed, re-raises the exception."""
        self.wait()
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self) -> Optional[BaseException]:
        """The exception (or None); drives the clock if needed."""
        self.wait()
        return self._exception


class TaskFuture(Future):
    """Handle on one submitted FaaS task.

    Mirrors the compute SDK's future: :meth:`result` drives virtual time
    until the task completes, returning the remote value or raising
    :class:`~repro.errors.TaskFailed` carrying the remote traceback.
    """

    __slots__ = ("task", "span", "service")

    def __init__(self, clock: SimClock, task: "Task") -> None:
        super().__init__(clock)
        self.task = task
        # telemetry span for this task, set by the service at submit time
        # (None when the world runs untraced)
        self.span = None
        # the owning service, set at submit time so cancel() can retract
        # the pending dispatch entry, not just resolve the future
        self.service = None

    @property
    def task_id(self) -> str:
        return self.task.task_id

    def cancel(self) -> bool:
        """Retract the task service-side; resolves with TaskCancelled.

        Goes through :meth:`FaaSService.cancel` when the service is
        attached, so the queued or in-flight dispatch entry is removed
        and the task record lands in the ``CANCELLED`` terminal state.
        """
        if self.service is not None:
            return self.service.cancel(self.task.task_id)
        return super().cancel()

    def resolve_from_task(self) -> None:
        """Resolve from the (terminal) task record. Called by the service."""
        from repro.faas.task import TaskState

        if self.task.state is TaskState.SUCCESS:
            self.set_result(self.task.result)
        elif self.task.state is TaskState.CANCELLED:
            self.set_exception(
                TaskCancelled(f"task {self.task.task_id} was cancelled")
            )
        else:
            self.set_exception(
                TaskFailed(
                    f"task {self.task.task_id} failed remotely",
                    remote_traceback=self.task.exception_text,
                    retryable=self.task.error_retryable,
                )
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskFuture({self.task.task_id}, state={self.task.state.value})"
