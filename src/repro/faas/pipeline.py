"""The resilience plane: one fixed chain of stages around bare dispatch.

Retry, circuit breaking, timeout, failover, replay substitution, and
lease touching each live in one small stage class here. The
:class:`Pipeline` builds one of each and its seven chain methods call
them in an order written once, in code. The overload
(:class:`~repro.faas.overload.OverloadController`) and fail-slow
(:class:`~repro.faas.hedging.HedgeController`) planes take their place
in the chain when the service was built with them; otherwise their
steps are skipped and default worlds are untouched.

=============  =============================================================
method         chain
=============  =============================================================
register       lease (grant, or expire an endpoint dead at the crash)
admit          overload verdict, breaker gate, failover (may retarget/raise)
submitted      overload bookkeeping, failover event
accepted       timeout (deadline scheduling)
wrap_spec      replay (journaled-result substitution or cost capture)
dispatched     lease heartbeat, hedge deadline
outcome        overload AIMD, lease, hedge, breaker, retry; ``True`` =
               handled (re-queued or absorbed) — the service must not
               finalize
=============  =============================================================

The order is semantic, not cosmetic. Four rules fix it:

1. **Overload first, breaker before failover.** At submit the overload
   plane's verdict (quota, then AIMD, then shed) comes first, then the
   breaker gate, then failover, which reroutes only what the breaker
   blocked.
2. **Lease before breaker.** A completed task is a heartbeat *first*,
   so ``lease.renewed`` precedes ``breaker.close``.
3. **Hedge before breaker.** The hedge plane settles its race before the
   breaker records: a losing hedge arm's error is suppressed before it
   could trip a breaker, and a hedge win moves ``task.endpoint_id`` to
   the winner so success credits the endpoint that produced it.
4. **Breaker before retry.** ``breaker.open`` precedes ``task.retry`` in
   the event log (the order the chaos reports and journal offsets
   depend on), and the retry sees the breaker it just tripped and fails
   over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Set

from repro.durability.lease import LeaseRegistry
from repro.durability.recovery import ReplayIndex, restorer_for
from repro.errors import (
    CircuitOpen,
    EndpointOffline,
    TaskTimeout,
    is_retryable,
)
from repro.faas.functions import FunctionSpec
from repro.faas.task import Task, TaskState
from repro.faults.resilience import CircuitBreaker
from repro.util.serialization import deserialize


@dataclass(slots=True)
class SubmitContext:
    """Mutable admission state threaded through the submit-time chain."""

    requested: str  # the endpoint the caller targeted
    endpoint_id: str  # where the task is actually going
    blocked: str = ""  # non-empty = the breaker vetoed this endpoint
    failed_over: bool = False
    # overload plane: the submitting tenant's identity URN, the task's
    # priority class, and the routed pool (the AIMD limiter key). A
    # non-empty ``rejected`` is the plane's verdict — the service
    # resolves the future to AdmissionRejected instead of dispatching.
    tenant: str = ""
    priority: int = 1
    pool: str = ""
    rejected: str = ""


class BreakerInterceptor:
    """Per-endpoint circuit breakers: gate admission, record outcomes."""

    def __init__(self, service) -> None:
        self.service = service
        self.breakers: Dict[str, CircuitBreaker] = {}

    def breaker_for(self, endpoint_id: str) -> Optional[CircuitBreaker]:
        if self.service.breaker_policy is None:
            return None
        breaker = self.breakers.get(endpoint_id)
        if breaker is None:
            breaker = CircuitBreaker(self.service.breaker_policy)
            self.breakers[endpoint_id] = breaker
        return breaker

    def is_open(self, endpoint_id: str) -> bool:
        """Read-only probe for routing-time exclusion (never transitions)."""
        breaker = self.breakers.get(endpoint_id)
        return breaker is not None and breaker.state == CircuitBreaker.OPEN

    def admit(self, sub: SubmitContext) -> None:
        breaker = self.breaker_for(sub.endpoint_id)
        if breaker is None:
            return
        now = self.service.clock.now
        before = breaker.state
        allowed = breaker.allow(now)
        if breaker.state != before:
            self.service.events.emit(
                now, "faas", "breaker.half_open", endpoint=sub.endpoint_id
            )
        if not allowed:
            sub.blocked = "breaker_open"

    def on_outcome(self, entry, error: Optional[BaseException]) -> None:
        task = entry.task
        now = self.service.clock.now
        breaker = self.breaker_for(task.endpoint_id)
        if breaker is None:
            return
        if error is None:
            before = breaker.state
            breaker.record_success(now)
            if before != breaker.state:
                self.service.events.emit(
                    now, "faas", "breaker.close", endpoint=task.endpoint_id
                )
        elif breaker.record_failure(now):
            self.service.resilience.breaker_trips += 1
            self.service.events.emit(
                now, "faas", "breaker.open",
                endpoint=task.endpoint_id,
                consecutive_failures=breaker.consecutive_failures,
                trips=breaker.trips,
            )


class FailoverInterceptor:
    """Reroute breaker-blocked work to a declared fallback endpoint."""

    def __init__(self, service) -> None:
        self.service = service
        self.fallbacks: Dict[str, str] = {}

    def declare(self, endpoint_id: str, fallback_id: str) -> None:
        self.fallbacks[endpoint_id] = fallback_id

    def healthy_fallback(self, endpoint_id: str) -> Optional[str]:
        """The declared fallback, if it exists and its breaker admits work."""
        fallback_id = self.fallbacks.get(endpoint_id)
        if not fallback_id or fallback_id == endpoint_id:
            return None
        fb_breaker = self.service.breaker_for(fallback_id)
        if fb_breaker is None or fb_breaker.allow(self.service.clock.now):
            return fallback_id
        return None

    def admit(self, sub: SubmitContext) -> None:
        if not sub.blocked:
            return
        fallback_id = self.healthy_fallback(sub.endpoint_id)
        if fallback_id is not None:
            sub.endpoint_id = fallback_id
            sub.failed_over = True
            sub.blocked = ""
        else:
            raise CircuitOpen(
                f"circuit open for endpoint {sub.requested[:8]} "
                f"and no healthy fallback declared"
            )

    def on_submitted(self, entry, sub: SubmitContext) -> None:
        if not sub.failed_over:
            return
        task = entry.task
        task.original_endpoint_id = sub.requested
        self.service.resilience.failovers += 1
        self.service.events.emit(
            self.service.clock.now, "faas", "task.failover",
            task_id=task.task_id, from_endpoint=sub.requested,
            to_endpoint=task.endpoint_id, reason="breaker_open",
        )


class TimeoutInterceptor:
    """Per-task deadlines over the whole lifetime, retries included."""

    def __init__(self, service) -> None:
        self.service = service

    def on_accepted(self, entry, timeout: Optional[float]) -> None:
        if timeout is None:
            return
        entry.deadline = self.service.clock.now + timeout
        self.service.clock.call_after(
            timeout, lambda: self._deadline_fired(entry, timeout)
        )

    def _deadline_fired(self, entry, timeout: float) -> None:
        """A per-task deadline event: fail the task if it is still alive."""
        task = entry.task
        if task.state.is_terminal:
            return
        error = TaskTimeout(
            f"task {task.task_id} exceeded its {timeout:g}s deadline "
            f"(attempt {entry.attempt})"
        )
        self.service.resilience.timeouts += 1
        self.service.events.emit(
            self.service.clock.now, "faas", "task.timeout",
            task_id=task.task_id, endpoint=task.endpoint_id,
            timeout=timeout, attempt=entry.attempt,
        )
        dispatcher = self.service._dispatchers.get(task.endpoint_id)
        if dispatcher is not None:
            if dispatcher.inflight is entry:
                dispatcher.abort_inflight(error)
                dispatcher.pump()
                return
            if entry in dispatcher.queue:
                dispatcher.queue.remove(entry)
        # waiting on its dispatch/backoff event, or queued: fail in place
        self.service._complete(entry, None, error)


class RetryInterceptor:
    """Re-queue retryable failures with deterministic backoff."""

    def __init__(self, service) -> None:
        self.service = service

    def on_outcome(self, entry, error: Optional[BaseException]) -> bool:
        if error is None:
            return False
        service = self.service
        task = entry.task
        now = service.clock.now
        policy = service.retry_policy
        if policy is not None and policy.should_retry(error, entry.attempt):
            overload = service.overload
            if overload is None or overload.allow_retry(task, now):
                delay = policy.delay(entry.attempt, task.task_id)
                entry.attempt += 1
                entry.aborted = False  # the retry's own callback must land
                task.attempts = entry.attempt
                task.state = TaskState.PENDING
                service.resilience.retries += 1
                target = task.endpoint_id
                breaker = service.breaker_for(target)
                if breaker is not None and breaker.state == CircuitBreaker.OPEN:
                    fallback_id = service.pipeline.failover.healthy_fallback(target)
                    if fallback_id is not None:
                        if not task.original_endpoint_id:
                            task.original_endpoint_id = target
                        service._retarget(task, fallback_id)
                        target = fallback_id
                        service.resilience.failovers += 1
                        service.events.emit(
                            now, "faas", "task.failover",
                            task_id=task.task_id,
                            from_endpoint=task.original_endpoint_id,
                            to_endpoint=target, reason="breaker_open",
                        )
                service.events.emit(
                    now, "faas", "task.retry",
                    task_id=task.task_id, endpoint=target,
                    attempt=entry.attempt, delay=round(delay, 6),
                    error=type(error).__name__,
                )
                dispatcher = service._dispatcher(target)
                service.clock.call_after(delay, lambda: dispatcher.arrive(entry))
                return True
            # retry budget exhausted: fall through to the give-up branch

        if policy is not None and is_retryable(error):
            task.gave_up = True
            task.last_error_kind = type(error).__name__
            service.resilience.give_ups += 1
            service.events.emit(
                now, "faas", "task.gave_up",
                task_id=task.task_id, endpoint=task.endpoint_id,
                attempts=entry.attempt, error=type(error).__name__,
            )
        return False


class LeaseInterceptor:
    """Heartbeat leases: task activity keeps an endpoint's lease alive."""

    def __init__(self, service) -> None:
        self.service = service
        self.registry: Optional[LeaseRegistry] = None
        self.dead: Set[str] = set()

    def enable(self, ttl: float) -> LeaseRegistry:
        if self.registry is None:
            self.registry = LeaseRegistry(
                self.service.clock, self.service.events, ttl=ttl,
                on_expire=self._on_expired,
            )
            for endpoint_id in sorted(self.service._endpoints):
                self.grant(endpoint_id)
        return self.registry

    def grant(self, endpoint_id: str) -> None:
        if self.registry is None or endpoint_id in self.dead:
            return
        lease = self.registry.grant(endpoint_id)
        endpoint = self.service._endpoints.get(endpoint_id)
        if endpoint is not None:
            endpoint.lease = lease

    def renew(self, endpoint_id: str) -> None:
        if self.registry is not None:
            self.registry.renew(endpoint_id)

    def mark_dead(self, endpoint_ids) -> None:
        """Recovery learned these leases were dead at the crash."""
        self.dead |= set(endpoint_ids)
        for endpoint_id in endpoint_ids:
            self.expire_recovered(endpoint_id)

    def _on_expired(self, endpoint_id: str) -> None:
        endpoint = self.service._endpoints.get(endpoint_id)
        if endpoint is not None:
            endpoint.lease = None
        if endpoint is None or not endpoint.online:
            return
        endpoint.online = False
        self.service.fail_inflight(
            endpoint_id,
            EndpointOffline(
                f"endpoint {endpoint_id[:8]} lease expired (missed heartbeats)"
            ),
        )

    def expire_recovered(self, endpoint_id: str) -> None:
        """Mark a journal-declared-dead endpoint offline in this world."""
        endpoint = self.service._endpoints.get(endpoint_id)
        if endpoint is None or not endpoint.online:
            return
        endpoint.online = False
        endpoint.lease = None
        self.service.events.emit(
            self.service.clock.now, "durability", "lease.expired",
            endpoint=endpoint_id, phase="recovery",
        )
        self.service.fail_inflight(
            endpoint_id,
            EndpointOffline(
                f"endpoint {endpoint_id[:8]} lease was dead at the crash"
            ),
        )

    def on_register(self, endpoint_id: str) -> None:
        if endpoint_id in self.dead:
            # recovery learned from the journal that this endpoint's lease
            # was already dead at the crash — never bring it up live
            self.expire_recovered(endpoint_id)
        else:
            self.grant(endpoint_id)

    def on_outcome(self, entry, error: Optional[BaseException]) -> None:
        if error is None:
            # a completed task is a heartbeat from its endpoint
            self.renew(entry.task.endpoint_id)


class ReplayInterceptor:
    """Write-ahead journal recording and journaled-result replay."""

    def __init__(self, service) -> None:
        self.service = service
        self.journal = None
        self.index: Optional[ReplayIndex] = None
        # exactly-once audit: keys whose bodies actually ran vs. keys
        # whose journaled results were replayed (disjoint by design)
        self.executed_keys: Set[str] = set()
        self.replayed_keys: Set[str] = set()

    def wrap_spec(self, entry) -> FunctionSpec:
        """The spec this dispatch should execute, possibly instrumented.

        Replay mode substitutes a journaled-SUCCESS body: the recorded
        result comes back after re-materialising remote side effects (the
        function's registered restorer) and advancing the clock by the
        journaled body cost, so every span and event the live path would
        produce still appears — at identical virtual times — without the
        body ever re-executing. Record mode wraps the body with plain
        start/end cost capture. With durability off, the spec passes
        through untouched.
        """
        task = entry.task
        spec = entry.spec
        record = None
        if self.index is not None:
            record = self.index.replay_record(task.idempotency_key)
        if record is not None:
            task.replayed = True
            self.replayed_keys.add(task.idempotency_key)
            self.service.events.emit(
                self.service.clock.now, "durability", "task.replayed",
                task_id=task.task_id, key=task.idempotency_key,
                endpoint=task.endpoint_id, function=spec.name,
            )
            return replace(spec, fn=self._replay_body(task, spec, record))
        if self.journal is None and self.index is None:
            return spec
        return replace(spec, fn=self._recording_body(task, spec))

    def _replay_body(self, task: Task, spec: FunctionSpec, record: dict):
        clock = self.service.clock

        def body(fctx, *args, **kwargs):
            result = deserialize(record.get("result", "null"))
            started = clock.now
            restorer = restorer_for(spec.name)
            if restorer is not None:
                restorer(fctx, result, *args, **kwargs)
            # whatever time the restorer consumed counts toward the
            # journaled body cost — total advance equals the original
            elapsed = float(record.get("body_elapsed") or 0.0)
            remaining = elapsed - (clock.now - started)
            if remaining > 1e-12:
                clock.advance(remaining)
            task.body_elapsed = elapsed
            return result

        return body

    def _recording_body(self, task: Task, spec: FunctionSpec):
        fn = spec.fn
        clock = self.service.clock

        def body(fctx, *args, **kwargs):
            self.executed_keys.add(task.idempotency_key)
            started = clock.now
            try:
                return fn(fctx, *args, **kwargs)
            finally:
                task.body_elapsed = clock.now - started

        return body


class Pipeline:
    """The fixed resilience chain wrapping the bare dispatch core."""

    def __init__(self, service) -> None:
        self.service = service
        self.replay = ReplayInterceptor(service)
        self.lease = LeaseInterceptor(service)
        self.breaker = BreakerInterceptor(service)
        self.failover = FailoverInterceptor(service)
        self.timeout = TimeoutInterceptor(service)
        self.retry = RetryInterceptor(service)

    # -- chain drivers -------------------------------------------------------
    def register(self, endpoint_id: str) -> None:
        self.lease.on_register(endpoint_id)

    def admit(self, sub: SubmitContext) -> SubmitContext:
        overload = self.service.overload
        if overload is not None:
            overload.admit(sub)
        self.breaker.admit(sub)
        self.failover.admit(sub)
        return sub

    def submitted(self, entry, sub: SubmitContext) -> None:
        overload = self.service.overload
        if overload is not None:
            overload.on_submitted(entry, sub)
        self.failover.on_submitted(entry, sub)

    def accepted(self, entry, timeout: Optional[float]) -> None:
        self.timeout.on_accepted(entry, timeout)

    def wrap_spec(self, entry) -> FunctionSpec:
        return self.replay.wrap_spec(entry)

    def dispatched(self, entry, endpoint_id: str) -> None:
        # dispatch is a heartbeat: the endpoint accepted work, so it lives
        self.lease.renew(endpoint_id)
        hedging = self.service.hedging
        if hedging is not None:
            hedging.on_dispatched(entry, endpoint_id)

    def outcome(self, entry, result: Any, error: Optional[BaseException]) -> bool:
        """Run the outcome chain; ``True`` means the task was re-queued (or
        a losing hedge arm absorbed) and the service must not finalize it."""
        service = self.service
        if error is not None:
            service.resilience.count_error(error)
        overload = service.overload
        if overload is not None:
            overload.on_outcome(entry, error)
        self.lease.on_outcome(entry, error)
        hedging = service.hedging
        if hedging is not None and hedging.on_outcome(entry, result, error):
            return True
        self.breaker.on_outcome(entry, error)
        return self.retry.on_outcome(entry, error)
