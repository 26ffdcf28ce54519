"""The pilot executor: run tasks on provisioned blocks."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import (
    ENGINE_ERRORS,
    ExecutorError,
    NodePreempted,
    ReproError,
    WalltimeExceeded,
)
from repro.executor.providers import Block, Provider
from repro.scheduler.jobs import JobState
from repro.sites.site import NodeHandle
from repro.telemetry import tracer_of


class PilotExecutor:
    """Executes functions on a pilot block, provisioning lazily.

    The first task pays block-provisioning cost (queue wait on batch
    sites); later tasks reuse the warm block — the amortization the paper
    credits for "the benefits of adopting a FaaS based model" on short
    tests (§6.1).

    Every task takes one path, :meth:`submit_async`: provisioning is a
    scheduled event (queue wait becomes pending clock events, overlapping
    with work on other executors) and the task body is costed in a
    :meth:`~repro.util.clock.SimClock.measure` region, with completion
    delivered by callback at ``start + elapsed``. :meth:`submit` is a thin
    driver over it that waits on the task's future.
    """

    def __init__(self, provider: Provider) -> None:
        self.provider = provider
        self.user = provider.user
        self._block: Optional[Block] = None
        # callbacks waiting on the block being provisioned; non-empty
        # exactly while a provision is in flight
        self._ready_waiters: list = []
        # (node, handle) of the last task: handles are stateless triples,
        # so reusing one across the thousands of tasks a warm block runs
        # is free — and building one per task is not
        self._handle_cache: Optional[tuple] = None
        self.tasks_run = 0
        self.total_queue_wait = 0.0
        self.blocks_started = 0

    @property
    def site(self):
        return self.provider.site

    def _adopt_block(self, block: Block) -> None:
        """Record one provisioned block — first provision *or* re-provision
        after a dead block both land here, so ``total_queue_wait`` always
        reflects every queue wait actually paid."""
        self._block = block
        self.blocks_started += 1
        self.total_queue_wait += block.queue_wait
        self.site.events.emit(
            self.site.clock.now, "executor", "block.provisioned",
            site=self.site.name, user=self.user,
            node_class=block.node_class, job_id=block.job_id or "",
            queue_wait=block.queue_wait,
        )

    def _live_block(self) -> Optional[Block]:
        """The current block if it is still usable, else None."""
        if self._block is None or not self._block.active:
            return None
        if self._block_job_alive():
            return self._block
        self._block.active = False
        return None

    def ensure_block_async(
        self,
        on_ready: Callable[[Block], None],
        on_error: Callable[[BaseException], None],
    ) -> None:
        """Call ``on_ready(block)`` once a live block exists, provisioning
        one if needed, without advancing the caller's timeline.

        Concurrent callers while a provision is in flight queue up and
        share the one new block — one pilot job, not one per waiter. A
        provisioning failure fans out to every waiter's ``on_error``.
        """
        block = self._live_block()
        if block is not None:
            on_ready(block)
            return
        provisioning = bool(self._ready_waiters)
        self._ready_waiters.append((on_ready, on_error))
        if provisioning:
            return

        def adopted(new_block: Block) -> None:
            self._adopt_block(new_block)
            waiters, self._ready_waiters = self._ready_waiters, []
            for ready, _ in waiters:
                ready(new_block)

        def failed(error: BaseException) -> None:
            waiters, self._ready_waiters = self._ready_waiters, []
            for _, err_cb in waiters:
                err_cb(error)

        self.provider.start_block_async(adopted, failed)

    def _block_job_alive(self) -> bool:
        block = self._block
        if block.job_id is None:
            return True
        return self.site.scheduler.job(block.job_id).state is JobState.RUNNING

    def _handle_for(self, block: Block) -> NodeHandle:
        node = block.nodes[0]
        cached = self._handle_cache
        if cached is not None and cached[0] is node:
            return cached[1]
        if block.node_class == "login":
            handle = self.site.login_handle(self.user)
        else:
            handle = self.site.compute_handle(self.user, node)
        self._handle_cache = (node, handle)
        return handle

    def _check_block_job(self, block: Block) -> None:
        """Raise if the backing batch job died under the task."""
        if block.job_id is None:
            return
        state = self.site.scheduler.job(block.job_id).state
        if state is JobState.TIMEOUT:
            raise WalltimeExceeded(
                f"pilot {block.job_id} hit walltime during task"
            )
        if state is JobState.PREEMPTED:
            raise NodePreempted(
                f"pilot {block.job_id} was preempted during task"
            )
        if state not in (JobState.RUNNING,):
            raise ExecutorError(
                f"pilot {block.job_id} ended ({state.value}) during task"
            )

    def submit(self, fn: Callable[[NodeHandle], Any]) -> Any:
        """Run ``fn(handle)`` through :meth:`submit_async` and wait for it.

        Drives the shared clock until the task completes; returns its
        result or raises its error — :class:`WalltimeExceeded` when the
        backing batch job died under the payload.
        """
        # repro.faas imports this module, so its future is imported late
        from repro.faas.future import Future

        future = Future(self.site.clock)

        def on_done(result: Any, error: Optional[BaseException]) -> None:
            if error is None:
                future.set_result(result)
            else:
                future.set_exception(error)

        self.submit_async(fn, on_done)
        return future.result()

    def submit_async(
        self,
        fn: Callable[[NodeHandle], Any],
        on_done: Callable[[Any, Optional[BaseException]], None],
    ) -> None:
        """Run ``fn(handle)`` without blocking virtual time.

        ``on_done(result, error)`` fires at the task's virtual completion
        time. The body runs in a measure region when the block becomes
        ready: its cost is captured as a span and charged via a scheduled
        completion event, so bodies on other executors occupy the same
        virtual interval.
        """
        clock = self.site.clock
        tracer = tracer_of(clock)
        # block-ready fires from an arbitrary scheduled event; carry the
        # submitter's trace context across that boundary explicitly
        ctx = tracer.current()

        def on_block(block: Block) -> None:
            handle = self._handle_for(block)
            self.tasks_run += 1
            if tracer.enabled:
                node_span = tracer.start_span(
                    f"node:{handle.node.name}", parent=ctx, kind="node",
                    site=self.site.name, node=handle.node.name,
                    node_class=block.node_class, user=self.user,
                    queue_wait=block.queue_wait,
                )
            else:
                node_span = tracer.start_span("node")
            result: Any = None
            error: Optional[BaseException] = None
            with clock.measure() as span:
                with tracer.activate(node_span.context):
                    try:
                        result = fn(handle)
                    except ENGINE_ERRORS:
                        raise
                    except BaseException as exc:  # noqa: BLE001 - remote user code
                        error = exc
                # sealed *inside* the measure region, where now is still
                # start + elapsed — after exit the clock rewinds, and the
                # span would collapse to zero duration
                tracer.end_span(
                    node_span,
                    status="ok" if error is None else "error",
                    error=(
                        "" if error is None
                        else f"{type(error).__name__}: {error}"
                    ),
                )

            def finish() -> None:
                err = error
                if err is None:
                    try:
                        self._check_block_job(block)
                    except ReproError as exc:
                        err = exc
                on_done(None if err is not None else result, err)

            clock.call_after(span.elapsed, finish)

        self.ensure_block_async(on_block, lambda err: on_done(None, err))

    def shutdown(self) -> None:
        """Release the block (completes the pilot batch job)."""
        if self._block is not None and self._block.active:
            self.provider.release_block(self._block)
            self.site.events.emit(
                self.site.clock.now, "executor", "block.released",
                site=self.site.name, user=self.user,
                job_id=self._block.job_id or "",
            )
        self._block = None

    @property
    def has_active_block(self) -> bool:
        return self._block is not None and self._block.active
