"""The FaaS cloud service: the thin control-plane core.

After the layered split the service only validates, routes, and wires:
the **placement plane** (:mod:`repro.faas.placement`) resolves pool/site
targets through pluggable deterministic policies, the **resilience
plane** (:mod:`repro.faas.pipeline`) runs retry/breaker/timeout/
failover/replay/lease as one fixed chain, and the **dispatch plane**
(:mod:`repro.faas.dispatch`) does per-endpoint FIFO execution. The
crash-safety API (journal recording, replay, leases) is a thin front on
the chain's replay and lease stages.

:meth:`FaaSService.submit` returns a
:class:`~repro.faas.future.TaskFuture` immediately — no virtual time
passes. Control-plane cost (cloud overhead plus the runner↔cloud round
trip) becomes a scheduled *dispatch event* on the shared
:class:`~repro.util.clock.SimClock`, so tasks bound for different
endpoints interleave in virtual time — the FaaS amortization argument of
§6.1/§7.3 made concrete.
"""

from __future__ import annotations

import itertools
import math
import traceback
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.auth.oauth import AuthService, SCOPE_COMPUTE
from repro.durability.journal import task_key
from repro.durability.lease import LeaseRegistry
from repro.durability.recovery import ReplayIndex
from repro.errors import (
    AdmissionRejected,
    EndpointNotFound,
    EndpointOffline,
    PayloadTooLarge,
    ReproError,
    TaskCancelled,
    TaskFailed,
    is_retryable,
)
from repro.faas.dispatch import EndpointDispatcher, PendingTask
from repro.faas.endpoint import MultiUserEndpoint, UserEndpoint
from repro.faas.functions import FunctionRegistry
from repro.faas.future import TaskFuture
from repro.faas.hedging import HedgeConfig, HedgeController
from repro.faas.overload import OverloadConfig, OverloadController
from repro.faas.pipeline import Pipeline, SubmitContext
from repro.faas.placement import EndpointPool, RouteDecision, Router
from repro.faas.task import Task, TaskState
from repro.faults.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    ResilienceStats,
    RetryPolicy,
)
from repro.telemetry import tracer_of
from repro.util.clock import SimClock
from repro.util.events import EventLog
from repro.util.ids import IdFactory
from repro.util.serialization import (
    DEFAULT_PAYLOAD_LIMIT,
    serialize_call,
    serialized_size,
)

# Default cloud-side processing overhead per task (queueing, dispatch).
# Constructor parameter ``cloud_overhead_seconds`` overrides it so the
# §7.3 overhead ablation can sweep the control-plane cost.
CLOUD_OVERHEAD_SECONDS = 0.8

Endpoint = Union[UserEndpoint, MultiUserEndpoint]


@dataclass
class BatchRequest:
    """One entry of a :meth:`FaaSService.submit_batch` submission.

    ``endpoint_id`` may be an endpoint id, a pool name, or a site name
    served by a registered pool.
    """

    endpoint_id: str
    function_id: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    template: str = "default"
    priority: int = 1


class FaaSService:
    """The hybrid cloud service endpoints register with.

    :meth:`submit` enqueues and returns a :class:`TaskFuture`;
    ``future.result()`` drives the clock on the caller's behalf, so
    synchronous-style callers behave identically.
    """

    def __init__(
        self,
        clock: SimClock,
        auth: AuthService,
        events: Optional[EventLog] = None,
        cloud_overhead_seconds: float = CLOUD_OVERHEAD_SECONDS,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        offline_policy: str = "raise",
        placement_policy: str = "pinned",
        overload: Optional[OverloadConfig] = None,
        hedge: Optional[HedgeConfig] = None,
    ) -> None:
        self.clock = clock
        self.auth = auth
        self.events = events if events is not None else EventLog()
        self.functions = FunctionRegistry()
        self.payload_limit = DEFAULT_PAYLOAD_LIMIT
        self.cloud_overhead_seconds = cloud_overhead_seconds
        # resilience knobs default to off, preserving exact fault-free behavior
        self.retry_policy = retry_policy
        self.breaker_policy = breaker
        if offline_policy not in ("raise", "queue"):
            raise ValueError(
                f"offline_policy must be raise|queue, got {offline_policy!r}"
            )
        self.offline_policy = offline_policy
        self.resilience = ResilienceStats()
        # the overload-protection and fail-slow planes are off unless
        # configured; the pipeline skips their steps while they are None
        self.overload: Optional[OverloadController] = (
            OverloadController(self, overload) if overload is not None else None
        )
        self.hedging: Optional[HedgeController] = (
            HedgeController(self, hedge) if hedge is not None else None
        )
        self.pipeline = Pipeline(self)
        self._endpoints: Dict[str, Endpoint] = {}
        # every task this service accepted, by id; each future holds its task
        self._futures: Dict[str, TaskFuture] = {}
        # live PendingTask entries by task id: what cancel() retracts
        self._entries: Dict[str, PendingTask] = {}
        self._dispatchers: Dict[str, EndpointDispatcher] = {}
        self._task_ids = IdFactory("task")
        self._idem_occurrences: Dict[str, int] = {}
        # live per-endpoint assigned-task counts feed least-loaded routing
        self.router = Router(
            queue_depth=self.load,
            admissible=self._admissible,
            weight_of=self._weight_of,
            policy=placement_policy,
        )
        self._load: Dict[str, int] = {}
        self._submit_seq = itertools.count()
        # pinned targets resolve to an immutable decision; reuse one per
        # endpoint instead of rebuilding a frozen dataclass every submit
        self._pinned_routes: Dict[str, RouteDecision] = {}

    # -- registration ------------------------------------------------------------
    def register_endpoint(self, endpoint: Endpoint) -> str:
        self._endpoints[endpoint.endpoint_id] = endpoint
        self.events.emit(
            self.clock.now, "faas", "endpoint.registered",
            endpoint_id=endpoint.endpoint_id, site=endpoint.site.name,
            endpoint_kind=type(endpoint).__name__,
        )
        self.pipeline.register(endpoint.endpoint_id)
        return endpoint.endpoint_id

    def register_function(
        self, token_value: str, fn, name: str, needs_outbound: bool = False
    ) -> str:
        token = self.auth.introspect(token_value, required_scope=SCOPE_COMPUTE)
        function_id = self.functions.register(
            fn, name=name, owner_urn=token.identity.urn,
            needs_outbound=needs_outbound,
        )
        self.events.emit(
            self.clock.now, "faas", "function.registered",
            function_id=function_id, name=name, owner=token.identity.urn,
        )
        return function_id

    def endpoint(self, endpoint_id: str) -> Endpoint:
        endpoint = self._endpoints.get(endpoint_id)
        if endpoint is None:
            raise EndpointNotFound(f"no endpoint {endpoint_id!r} registered")
        return endpoint

    def endpoints(self) -> List[str]:
        return sorted(self._endpoints)

    def _dispatcher(self, endpoint_id: str) -> EndpointDispatcher:
        dispatcher = self._dispatchers.get(endpoint_id)
        if dispatcher is None:
            dispatcher = EndpointDispatcher(self, endpoint_id)
            self._dispatchers[endpoint_id] = dispatcher
        return dispatcher

    # -- placement ---------------------------------------------------------------
    def register_pool(
        self, name: str, site: str = "", members: Iterable[str] = ()
    ) -> EndpointPool:
        """Register (or extend) a named pool of endpoints."""
        pool = self.router.pools.get(name) or EndpointPool(name=name, site=site)
        for endpoint_id in members:
            self.endpoint(endpoint_id)  # must exist
            pool.add(endpoint_id)
        return self.router.register_pool(pool)

    def resolve_route(self, target: str) -> RouteDecision:
        """Resolve a submission target once, before any task exists.

        A registered endpoint id is pinned placement (router bypassed,
        nothing recorded); pool/site targets go through the active
        policy. Callers needing route affinity across tasks resolve once
        and pass the decision to every :meth:`submit`.
        """
        if target in self._endpoints:
            decision = self._pinned_routes.get(target)
            if decision is None:
                decision = RouteDecision(endpoint_id=target)
                self._pinned_routes[target] = decision
            return decision
        return self.router.resolve(target)

    def load(self, endpoint_id: str) -> int:
        """Live queue depth: tasks assigned to the endpoint, not yet final."""
        return self._load.get(endpoint_id, 0)

    def _bind_load(self, endpoint_id: str) -> None:
        self._load[endpoint_id] = self._load.get(endpoint_id, 0) + 1

    def _unbind_load(self, endpoint_id: str) -> None:
        self._load[endpoint_id] = max(0, self._load.get(endpoint_id, 0) - 1)

    def _retarget(self, task: Task, endpoint_id: str) -> None:
        """Move a task's assignment (and its load) to another endpoint."""
        self._unbind_load(task.endpoint_id)
        task.endpoint_id = endpoint_id
        self._bind_load(endpoint_id)

    def _admissible(self, endpoint_id: str) -> bool:
        """Routable now: registered, online, and breaker not open."""
        endpoint = self._endpoints.get(endpoint_id)
        if endpoint is None or not endpoint.online:
            return False
        return not self.pipeline.breaker.is_open(endpoint_id)

    def _weight_of(self, endpoint_id: str) -> float:
        """Relative hardware speed of the endpoint's execution nodes."""
        profiles = self.endpoint(endpoint_id).site.profiles
        profile = profiles.get("compute", profiles["login"])
        return profile.cpu_speed

    def attach_health(self, scorer) -> None:
        """Let routing consult a health scorer as a tie-breaker.

        ``scorer`` is a :class:`~repro.telemetry.health.HealthScorer`;
        scores are read at route time at the clock's current virtual
        time. Purely advisory — policies that ignore health behave
        exactly as before, and detaching (``attach_health(None)``)
        restores byte-identical routing.
        """
        if scorer is None:
            self.router.health_of = None
            return
        clock = self.clock
        self.router.health_of = (
            lambda endpoint_id: scorer.score(endpoint_id, clock.now)
        )

    def attach_overload_series(self, series) -> None:
        """Let the AIMD limiter read dispatch p95 from the windowed store.

        A no-op when the overload plane is off; safe to call from
        ``World.enable_observability`` unconditionally.
        """
        if self.overload is not None:
            self.overload.series = series

    # -- resilience (thin delegation to the pipeline) ----------------------------
    def declare_fallback(self, endpoint_id: str, fallback_id: str) -> None:
        """Declare where tasks reroute when ``endpoint_id``'s breaker opens."""
        self.pipeline.failover.declare(endpoint_id, fallback_id)

    def breaker_for(self, endpoint_id: str) -> Optional[CircuitBreaker]:
        """The endpoint's circuit breaker (``None`` when breakers are off)."""
        return self.pipeline.breaker.breaker_for(endpoint_id)

    # -- durability (thin delegation to the replay and lease stages) -----------
    @property
    def replay_index(self) -> Optional[ReplayIndex]:
        return self.pipeline.replay.index

    @property
    def leases(self) -> Optional[LeaseRegistry]:
        return self.pipeline.lease.registry

    @property
    def executed_keys(self) -> Set[str]:
        """Idempotency keys whose bodies actually ran (exactly-once audit)."""
        return self.pipeline.replay.executed_keys

    @property
    def replayed_keys(self) -> Set[str]:
        """Idempotency keys served from journaled results instead."""
        return self.pipeline.replay.replayed_keys

    def attach_journal(self, journal) -> None:
        """Switch dispatch into recording mode for ``journal``.

        The journal itself is written by the checkpointer subscribed to
        the event log; the service only wraps every dispatched body with
        cost capture (the ``body_elapsed`` a later replay advances by).
        """
        self.pipeline.replay.journal = journal

    def enable_replay(self, index: ReplayIndex) -> None:
        """Recovery mode: journaled-SUCCESS results replace re-execution.

        Replayed bodies advance the clock by the recorded cost, so
        timing, spans, and events match the uninterrupted run exactly.
        Dead-lease endpoints come back offline (now and on registration).
        """
        self.pipeline.replay.index = index
        self.pipeline.lease.mark_dead(index.dead_endpoints())

    def enable_leases(self, ttl: float = 3600.0) -> LeaseRegistry:
        """Turn on heartbeat leases for endpoint liveness.

        Every endpoint (present and future) gets a TTL lease renewed by
        task activity; expiry marks it offline and fails in-flight work
        retryably, so the retry/breaker/failover path takes over.
        """
        return self.pipeline.lease.enable(ttl)

    def fail_inflight(
        self, endpoint_id: str, error: BaseException
    ) -> Optional[str]:
        """Abort the in-flight task with ``error`` via the normal
        completion path (so retry applies); task id, or ``None`` if idle."""
        dispatcher = self._dispatchers.get(endpoint_id)
        if dispatcher is None:
            return None
        entry = dispatcher.abort_inflight(error)
        return entry.task.task_id if entry is not None else None

    def kick(self, endpoint_id: str) -> None:
        """Nudge an endpoint's dispatcher (e.g. after it comes back online)."""
        dispatcher = self._dispatchers.get(endpoint_id)
        if dispatcher is not None:
            dispatcher.pump()

    def cancel(self, task_id: str) -> bool:
        """Retract a live task; ``False`` if it already finished.

        Cancellation is terminal and unconditional: the entry leaves its
        queue (or lane) via :meth:`EndpointDispatcher.withdraw`, any late
        completion callback is discarded by the abort guard, no outcome
        flows through the resilience pipeline (nothing retries a
        cancellation), and the future fails with
        :class:`~repro.errors.TaskCancelled`. The task is settled and
        its future resolved before a lane it freed starts the next
        queued task, as a deadline does: that task's body may run the
        clock past this task's own deadline. Idempotent — a second call
        on a terminal task returns ``False`` and changes nothing.
        """
        future = self._futures.get(task_id)
        if future is None or future.task.state.is_terminal:
            return False
        entry = self._entries.pop(task_id, None)
        if entry is None:
            return False
        task = entry.task
        dispatcher = self._dispatchers.get(task.endpoint_id)
        running = dispatcher is not None and dispatcher.withdraw(entry)
        task.state = TaskState.CANCELLED
        task.exception_text = f"TaskCancelled: task {task_id} was cancelled"
        self._settle(entry, "error", "TaskCancelled: cancelled")
        self.events.emit(
            self.clock.now, "faas", "task.cancelled",
            task_id=task_id, endpoint=task.endpoint_id,
            attempt=entry.attempt,
        )
        if not future.done():
            future.set_exception(
                TaskCancelled(f"task {task_id} was cancelled")
            )
        if running:
            dispatcher.pump()
        return True

    # -- task lifecycle ----------------------------------------------------------
    def submit(
        self,
        token_value: str,
        endpoint_id: str,
        function_id: str,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        template: str = "default",
        timeout: Optional[float] = None,
        route: Optional[RouteDecision] = None,
        priority: int = 1,
    ) -> TaskFuture:
        """Enqueue one task; returns its future immediately.

        ``endpoint_id`` may name an endpoint (pinned), a pool, or a site
        served by a pool; pool/site targets go through the active
        placement policy unless a pre-resolved ``route`` is supplied.
        Validation raises eagerly; offline endpoints follow
        ``offline_policy``; an open breaker reroutes to the declared
        fallback or raises :class:`CircuitOpen`; ``timeout`` bounds the
        task's total virtual-time lifetime, retries included, and must be
        a finite number of seconds >= 0 (checked before anything about
        the task is recorded); ``None`` or 0 means no deadline, as it does
        in :class:`~repro.core.inputs.CorrectInputs` and suite files.
        ``priority`` is the overload-plane shedding class (0 = critical,
        higher is cheaper to shed; ignored when the plane is off).
        """
        if timeout is not None and not (
            isinstance(timeout, (int, float)) and 0 <= timeout < math.inf
        ):
            raise ValueError(
                "timeout must be a finite number of seconds >= 0, "
                f"got {timeout!r}"
            )
        kwargs = kwargs or {}
        token = self.auth.introspect(token_value, required_scope=SCOPE_COMPUTE)
        spec = self.functions.get(function_id)
        if route is None:
            route = self.resolve_route(endpoint_id)

        sub = self.pipeline.admit(
            SubmitContext(
                requested=route.endpoint_id, endpoint_id=route.endpoint_id,
                tenant=token.identity.urn, priority=priority, pool=route.pool,
            )
        )
        endpoint_id = sub.endpoint_id
        endpoint = self.endpoint(endpoint_id)

        if not endpoint.online and self.offline_policy == "raise":
            raise EndpointOffline(f"endpoint {endpoint_id!r} is offline")
        # "queue": accept; the dispatch event re-checks liveness

        # one canonical serialization serves the size limit and the
        # idempotency key — serializing the payload is the single most
        # expensive step of submit, so it happens exactly once
        payload = serialize_call(args, kwargs)
        # UTF-8 spends at most 4 bytes per character, so payloads short
        # enough that 4x their length fits need no exact byte count
        if len(payload) * 4 > self.payload_limit:
            payload_size = len(payload.encode("utf-8"))
            if payload_size > self.payload_limit:
                raise PayloadTooLarge(
                    f"arguments serialize to {payload_size} bytes "
                    f"(limit {self.payload_limit})"
                )

        # exactly-once identity: function + canonical payload + the Nth-
        # identical-submission counter; endpoint-independent, so a failed-
        # over or re-routed task keeps its key
        first_key = task_key(spec.name, payload)
        occurrence = self._idem_occurrences.get(first_key, 0)
        self._idem_occurrences[first_key] = occurrence + 1
        idem_key = (
            first_key
            if occurrence == 0
            else task_key(spec.name, payload, occurrence)
        )

        task = Task(
            task_id=self._task_ids.uuid(),
            endpoint_id=endpoint_id,
            identity_urn=token.identity.urn,
            args=args,
            kwargs=kwargs,
            submitted_at=self.clock.now,
            idempotency_key=idem_key,
            routed_by=route.routed_by,
            pool=route.pool,
            queue_depth_at_route=route.queue_depth_at_route,
        )
        self._bind_load(endpoint_id)
        future = TaskFuture(self.clock, task)
        future.service = self  # future.cancel() routes through the service
        self._futures[task.task_id] = future
        self.events.emit(
            self.clock.now, "faas", "task.submitted",
            task_id=task.task_id, function=spec.name,
            endpoint=endpoint_id, identity=token.identity.urn,
        )
        if not route.explicit:
            self.events.emit(
                self.clock.now, "faas", "task.routed",
                task_id=task.task_id, endpoint=endpoint_id,
                policy=route.routed_by, pool=route.pool,
                queue_depth=route.queue_depth_at_route,
            )

        # the task span parents under whatever is active at the submit site;
        # the enabled guard keeps span-name/attribute building off the
        # telemetry-disabled hot path entirely
        tracer = tracer_of(self.clock)
        if tracer.enabled:
            span = tracer.start_span(
                f"task:{spec.name}", kind="task",
                task_id=task.task_id, function=spec.name,
                endpoint=endpoint_id, site=endpoint.site.name,
            )
            if not route.explicit:
                span.attributes.update(
                    routed_by=route.routed_by, pool=route.pool,
                    queue_depth_at_route=route.queue_depth_at_route,
                )
        else:
            span = tracer.start_span("task")
        future.span = span
        entry = PendingTask(
            task, future, token, spec, template,
            seq=next(self._submit_seq), span=span,
        )
        self._entries[task.task_id] = entry
        self.pipeline.submitted(entry, sub)

        if sub.rejected:
            # the overload plane refused the task: resolve the future to
            # a typed retryable error without ever scheduling a dispatch
            self._finalize(
                entry, None,
                AdmissionRejected(
                    f"submission rejected ({sub.rejected}) for tenant "
                    f"{token.identity.urn}",
                    reason=sub.rejected,
                ),
                resolve_direct=True,
            )
            return future

        self.pipeline.accepted(entry, timeout)
        self._forward(entry, endpoint_id)
        return future

    def _forward(self, entry: PendingTask, endpoint_id: str) -> None:
        """Hand ``entry`` to the endpoint's lane after the control-plane
        cost: runner -> cloud -> endpoint, as an event."""
        site = self._endpoints[endpoint_id].site
        delay = self.cloud_overhead_seconds + 2 * site.network.latency_to_cloud
        dispatcher = self._dispatcher(endpoint_id)
        self.clock.call_after(delay, lambda: dispatcher.arrive(entry))

    def submit_batch(
        self, token_value: str, requests: Sequence[BatchRequest]
    ) -> List[TaskFuture]:
        """Enqueue many tasks at once; futures come back in request order."""
        return [
            self.submit(
                token_value, request.endpoint_id, request.function_id,
                args=request.args, kwargs=request.kwargs,
                template=request.template, priority=request.priority,
            )
            for request in requests
        ]

    def _complete(
        self, entry: PendingTask, result, error: Optional[BaseException]
    ) -> None:
        """Absorb one dispatch outcome through the resilience pipeline.

        A stage that re-queues the task reports it handled and the
        future stays pending; otherwise the task finalizes here.
        """
        if self.pipeline.outcome(entry, result, error):
            return
        self._finalize(entry, result, error)

    def _finalize(
        self, entry: PendingTask, result, error: Optional[BaseException],
        resolve_direct: bool = False,
    ) -> None:
        """Record a finished dispatch and resolve its future.

        ``resolve_direct`` resolves the future with ``error`` as-is
        (preserving its concrete type, e.g. ``AdmissionRejected``)
        instead of wrapping it in :class:`TaskFailed`.
        """
        task = entry.task
        if error is None:
            try:
                result_size = serialized_size(result)
                if result_size > self.payload_limit:
                    raise PayloadTooLarge(
                        f"result serializes to {result_size} bytes "
                        f"(limit {self.payload_limit})"
                    )
            except ReproError as exc:
                error = exc
        if error is None:
            task.result = result
            task.state = TaskState.SUCCESS
        else:
            task.state = TaskState.FAILED
            task.error_retryable = is_retryable(error)
            if isinstance(error, ReproError):
                task.exception_text = f"{type(error).__name__}: {error}"
            else:
                task.exception_text = "".join(
                    traceback.format_exception(
                        type(error), error, error.__traceback__
                    )
                )
        self._settle(
            entry,
            "ok" if task.state is TaskState.SUCCESS else "error",
            "" if error is None else f"{type(error).__name__}: {error}",
        )
        self.events.emit(
            self.clock.now, "faas", "task.completed",
            task_id=task.task_id, state=task.state.value,
            endpoint=task.endpoint_id, function=entry.spec.name,
        )
        if resolve_direct and error is not None:
            entry.future.set_exception(error)
        else:
            entry.future.resolve_from_task()

    def _settle(self, entry: PendingTask, status: str, error: str) -> None:
        """Terminal bookkeeping shared by :meth:`_finalize` and
        :meth:`cancel`: stamp the completion time, release the task's
        load, live entry, overload slot and surviving hedge arm, and end
        its span with ``status`` and ``error``."""
        task = entry.task
        task.completed_at = self.clock.now
        self._unbind_load(task.endpoint_id)
        self._entries.pop(task.task_id, None)
        if self.overload is not None:
            self.overload.on_finalize(entry)
        if self.hedging is not None:
            # sweep a surviving hedge arm before the future resolves
            self.hedging.on_finalize(entry)
        tracer_of(self.clock).end_span(entry.span, status=status, error=error)

    # -- results ---------------------------------------------------------------
    def get_task(self, task_id: str) -> Task:
        return self.get_future(task_id).task

    def get_future(self, task_id: str) -> TaskFuture:
        try:
            return self._futures[task_id]
        except KeyError:
            raise TaskFailed(f"unknown task {task_id!r}") from None

    def get_result(self, task_id: str):
        """Result of a task, driven to completion in virtual time first;
        raises :class:`TaskFailed` carrying the remote error."""
        task = self.get_future(task_id).wait().task
        if task.state is TaskState.FAILED:
            raise TaskFailed(
                f"task {task_id} failed remotely",
                remote_traceback=task.exception_text,
            )
        if task.state is not TaskState.SUCCESS:
            raise TaskFailed(f"task {task_id} not complete ({task.state.value})")
        return task.result

    def tasks_for(self, identity_urn: str) -> List[Task]:
        return [
            f.task for f in self._futures.values()
            if f.task.identity_urn == identity_urn
        ]
