"""The overload-protection plane: admission, AIMD, budgets, shedding.

Shared HPC capacity behind multi-user CI endpoints fails ungracefully:
one hot tenant or one retry storm starves everyone (Gamblin & Katz).
This module turns overload into a survivable, observable, deterministic
scenario.  Four mechanisms compose, cheapest first:

1. **Admission control** — per-tenant token buckets and in-flight caps
   (policy lives in :class:`repro.hub.quotas.QuotaRegistry`); rejected
   submissions resolve their future to a typed ``AdmissionRejected``.
2. **Adaptive concurrency** — an AIMD limiter per endpoint pool that
   grows on success and halves when queue depth or the windowed
   dispatch p95 breaches a bound.
3. **Retry budgets** — global and per-tenant ratios of retries to first
   attempts over a sliding virtual-time window, consulted by the
   pipeline's retry stage so fault bursts cannot amplify into retry
   storms.
4. **Shedding with brownout** — tasks carry a priority class; brownout
   degrades span sampling first, then the shedder drops the lowest
   class at pending-depth watermarks, recovering in reverse order.

The plane is off by default (``FaaSService(overload=None)``) and every
decision reads only the virtual clock and seeded state, so protection
off is byte-identical to the pre-plane service and two same-seed
protected runs are byte-identical to each other.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.hub.quotas import QuotaRegistry, TenantQuota
from repro.telemetry.sampling import RatioSampler
from repro.telemetry.tracer import tracer_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faas.pipeline import SubmitContext
    from repro.faas.service import FaaSService, PendingTask
    from repro.faas.task import Task
    from repro.telemetry.timeseries import TimeSeriesStore

__all__ = [
    "AIMDLimiter",
    "OverloadConfig",
    "OverloadController",
    "OverloadStats",
    "PRIORITY_BATCH",
    "PRIORITY_CRITICAL",
    "PRIORITY_NORMAL",
    "RetryBudget",
    "SlidingCounter",
]

# Priority classes: lower is more important. The shedder never drops a
# class without a configured watermark, so critical work (class 0) is
# safe unless the operator explicitly lists it.
PRIORITY_CRITICAL = 0
PRIORITY_NORMAL = 1
PRIORITY_BATCH = 2


@dataclass(frozen=True)
class OverloadConfig:
    """Tuning for the whole plane; one frozen value object per service.

    Quota defaults apply to every tenant without an explicit entry in
    ``quotas`` (zero = unlimited, matching :class:`TenantQuota`).  AIMD
    bounds are in concurrent tasks per pool; ``aimd_p95_high`` is in
    virtual seconds of dispatch queue wait.  Budget ratios are retries
    per first attempt over ``budget_window`` virtual seconds.  Shed
    watermarks map a priority class to the pending depth at which that
    class (and every class below it) is dropped; ``brownout_enter``
    should sit below the lowest watermark so telemetry degrades before
    work does.
    """

    tenant_rate: float = 0.0
    tenant_burst: float = 4.0
    tenant_max_inflight: int = 0
    quotas: Optional[QuotaRegistry] = None
    aimd_initial: float = 16.0
    aimd_min: float = 2.0
    aimd_max: float = 64.0
    aimd_increase: float = 1.0
    aimd_backoff: float = 0.5
    aimd_queue_high: int = 32
    aimd_p95_high: float = 0.0
    aimd_window: float = 300.0
    aimd_cooldown: float = 30.0
    retry_budget: float = 0.25
    tenant_retry_budget: float = 0.5
    budget_window: float = 300.0
    shed_watermarks: Mapping[int, int] = field(
        default_factory=lambda: {PRIORITY_BATCH: 48, PRIORITY_NORMAL: 96}
    )
    brownout_enter: int = 0
    brownout_exit: int = 0
    brownout_sample_rate: float = 0.1
    brownout_seed: int = 0

    def build_quotas(self) -> QuotaRegistry:
        if self.quotas is not None:
            return self.quotas
        return QuotaRegistry(
            TenantQuota(
                rate=self.tenant_rate,
                burst=self.tenant_burst,
                max_inflight=self.tenant_max_inflight,
            )
        )


class SlidingCounter:
    """Bucketed sliding-window counter over virtual time.

    Coarse on purpose: ``buckets`` fixed-width bins approximate the
    window, which keeps memory O(buckets) and every query O(buckets)
    regardless of event rate — and stays exactly deterministic because
    bin edges depend only on the virtual clock.
    """

    __slots__ = ("width", "depth", "_ring")

    def __init__(self, window: float, buckets: int = 12) -> None:
        self.width = max(1e-9, window / buckets)
        self.depth = buckets
        self._ring: deque = deque()

    def add(self, now: float, amount: float = 1.0) -> None:
        index = int(now // self.width)
        if self._ring and self._ring[-1][0] == index:
            self._ring[-1][1] += amount
        else:
            self._ring.append([index, amount])
            while len(self._ring) > self.depth:
                self._ring.popleft()

    def total(self, now: float) -> float:
        first = int(now // self.width) - self.depth + 1
        return sum(amount for index, amount in self._ring if index >= first)


class RetryBudget:
    """Global + per-tenant retry-to-first-attempt ratio enforcement."""

    def __init__(
        self, ratio: float = 0.25, tenant_ratio: float = 0.5, window: float = 300.0
    ) -> None:
        self.ratio = ratio
        self.tenant_ratio = tenant_ratio
        self.window = window
        self._attempts = SlidingCounter(window)
        self._retries = SlidingCounter(window)
        self._tenant_attempts: Dict[str, SlidingCounter] = {}
        self._tenant_retries: Dict[str, SlidingCounter] = {}

    def _of(self, table: Dict[str, SlidingCounter], tenant: str) -> SlidingCounter:
        counter = table.get(tenant)
        if counter is None:
            counter = table[tenant] = SlidingCounter(self.window)
        return counter

    def record_attempt(self, tenant: str, now: float) -> None:
        self._attempts.add(now)
        self._of(self._tenant_attempts, tenant).add(now)

    def record_retry(self, tenant: str, now: float) -> None:
        self._retries.add(now)
        self._of(self._tenant_retries, tenant).add(now)

    def check(self, tenant: str, now: float) -> Optional[str]:
        """None when a retry fits the budget, else the exhausted scope."""
        if self.ratio > 0.0:
            allowed = self.ratio * max(1.0, self._attempts.total(now))
            if self._retries.total(now) + 1.0 > allowed:
                return "global"
        if self.tenant_ratio > 0.0:
            attempts = self._of(self._tenant_attempts, tenant).total(now)
            retries = self._of(self._tenant_retries, tenant).total(now)
            if retries + 1.0 > self.tenant_ratio * max(1.0, attempts):
                return "tenant"
        return None


class AIMDLimiter:
    """Additive-increase / multiplicative-decrease concurrency limit."""

    __slots__ = (
        "limit",
        "min_limit",
        "max_limit",
        "increase",
        "backoff_factor",
        "cooldown",
        "inflight",
        "_last_backoff",
        "_successes",
    )

    def __init__(
        self,
        initial: float,
        min_limit: float,
        max_limit: float,
        increase: float = 1.0,
        backoff_factor: float = 0.5,
        cooldown: float = 30.0,
    ) -> None:
        self.limit = initial
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.increase = increase
        self.backoff_factor = backoff_factor
        self.cooldown = cooldown
        self.inflight = 0
        self._last_backoff = float("-inf")
        self._successes = 0

    def try_admit(self) -> bool:
        return self.inflight < int(self.limit)

    def acquire(self) -> None:
        self.inflight += 1

    def release(self) -> None:
        if self.inflight > 0:
            self.inflight -= 1

    def on_success(self, now: float) -> None:
        self._successes += 1
        if self._successes >= max(1, int(self.limit)):
            self._successes = 0
            self.limit = min(self.max_limit, self.limit + self.increase)

    def back_off(self, now: float) -> bool:
        """Halve the limit unless still cooling down; True when applied."""
        if now - self._last_backoff < self.cooldown:
            return False
        self._last_backoff = now
        self.limit = max(self.min_limit, self.limit * self.backoff_factor)
        self._successes = 0
        return True


@dataclass
class OverloadStats:
    admitted: int = 0
    rejected: int = 0
    rejected_rate: int = 0
    rejected_inflight: int = 0
    rejected_concurrency: int = 0
    shed: int = 0
    backoffs: int = 0
    retries_allowed: int = 0
    retries_denied: int = 0
    brownouts: int = 0
    brownout_seconds: float = 0.0


class OverloadController:
    """Runtime state of the plane, owned by one :class:`FaaSService`.

    The pipeline calls :meth:`admit` first at submit, then
    :meth:`on_submitted`, and :meth:`on_outcome` at the head of every
    outcome; :meth:`allow_retry` gates each retry.
    """

    def __init__(self, service: "FaaSService", config: OverloadConfig) -> None:
        self.service = service
        self.config = config
        self.quotas = config.build_quotas()
        self.budget = RetryBudget(
            config.retry_budget, config.tenant_retry_budget, config.budget_window
        )
        self.stats = OverloadStats()
        self.series: Optional["TimeSeriesStore"] = None
        self.pending = 0
        self._limiters: Dict[str, AIMDLimiter] = {}
        self._inflight: Dict[str, Tuple[str, str]] = {}
        # shed rules checked lowest-priority-first so recovery (depth
        # falling back under a watermark) re-admits classes in reverse
        # drop order
        self._shed_rules: List[Tuple[int, int]] = sorted(
            config.shed_watermarks.items(), key=lambda item: -item[0]
        )
        self._brownout_since: Optional[float] = None
        self._saved_sampler = None
        self._degraded_sampler = RatioSampler(
            config.brownout_sample_rate, seed=config.brownout_seed
        )

    # -- admission ----------------------------------------------------

    def limiter_for(self, key: str) -> AIMDLimiter:
        limiter = self._limiters.get(key)
        if limiter is None:
            cfg = self.config
            limiter = self._limiters[key] = AIMDLimiter(
                cfg.aimd_initial,
                cfg.aimd_min,
                cfg.aimd_max,
                increase=cfg.aimd_increase,
                backoff_factor=cfg.aimd_backoff,
                cooldown=cfg.aimd_cooldown,
            )
        return limiter

    def admit(self, sub: "SubmitContext") -> None:
        """Quota, then AIMD, then shed; the first verdict wins."""
        reason = self.quotas.check(sub.tenant, self.service.clock.now)
        if reason:
            sub.rejected = reason
        elif not self.limiter_for(sub.pool or sub.endpoint_id).try_admit():
            sub.rejected = "concurrency"
        elif any(
            sub.priority >= priority and self.pending >= watermark
            for priority, watermark in self._shed_rules
        ):
            sub.rejected = "shed"

    # -- lifecycle hooks ----------------------------------------------

    def on_submitted(self, entry: "PendingTask", sub: "SubmitContext") -> None:
        task = entry.task
        now = self.service.clock.now
        if sub.rejected:
            self.stats.rejected += 1
            if sub.rejected == "shed":
                self.stats.shed += 1
            elif sub.rejected == "quota-rate":
                self.stats.rejected_rate += 1
            elif sub.rejected == "quota-inflight":
                self.stats.rejected_inflight += 1
            elif sub.rejected == "concurrency":
                self.stats.rejected_concurrency += 1
            self.service.events.emit(
                now,
                "faas",
                "task.rejected",
                task_id=task.task_id,
                tenant=sub.tenant,
                reason=sub.rejected,
                priority=sub.priority,
                endpoint=task.endpoint_id,
            )
            return
        self.stats.admitted += 1
        key = sub.pool or task.endpoint_id
        self.quotas.bind(sub.tenant)
        self.limiter_for(key).acquire()
        self._inflight[task.task_id] = (sub.tenant, key)
        self.pending += 1
        self.budget.record_attempt(sub.tenant, now)
        self._update_pressure(now)

    def on_outcome(self, entry: "PendingTask", error: Optional[BaseException]) -> None:
        now = self.service.clock.now
        info = self._inflight.get(entry.task.task_id)
        key = info[1] if info else (entry.task.pool or entry.task.endpoint_id)
        limiter = self.limiter_for(key)
        if error is None:
            limiter.on_success(now)
        reason = self._breach(limiter, now)
        if reason and limiter.back_off(now):
            self.stats.backoffs += 1
            self.service.events.emit(
                now,
                "faas",
                "overload.backoff",
                pool=key,
                reason=reason,
                limit=round(limiter.limit, 3),
                inflight=limiter.inflight,
            )

    def on_finalize(self, entry: "PendingTask") -> None:
        info = self._inflight.pop(entry.task.task_id, None)
        if info is None:
            return
        tenant, key = info
        self.quotas.release(tenant)
        self.limiter_for(key).release()
        self.pending -= 1
        self._update_pressure(self.service.clock.now)

    def allow_retry(self, task: "Task", now: float) -> bool:
        """Budget gate for the pipeline's retry stage; consumes on grant."""
        scope = self.budget.check(task.identity_urn, now)
        if scope is None:
            self.budget.record_retry(task.identity_urn, now)
            self.stats.retries_allowed += 1
            return True
        self.stats.retries_denied += 1
        self.service.events.emit(
            now,
            "faas",
            "overload.retry_denied",
            task_id=task.task_id,
            tenant=task.identity_urn,
            scope=scope,
        )
        return False

    # -- pressure: AIMD breach + brownout ------------------------------

    def _breach(self, limiter: AIMDLimiter, now: float) -> str:
        cfg = self.config
        if cfg.aimd_queue_high > 0 and self.pending > cfg.aimd_queue_high:
            return "queue-depth"
        if cfg.aimd_p95_high > 0.0 and self.series is not None:
            series = self.series.get("faas.task.queue_wait")
            if series is not None:
                p95 = series.quantile_over(95.0, now, cfg.aimd_window)
                if p95 > cfg.aimd_p95_high:
                    return "dispatch-p95"
        return ""

    def _update_pressure(self, now: float) -> None:
        cfg = self.config
        if cfg.brownout_enter <= 0:
            return
        exit_mark = cfg.brownout_exit or max(1, cfg.brownout_enter // 2)
        if self._brownout_since is None and self.pending >= cfg.brownout_enter:
            tracer = tracer_of(self.service.clock)
            if getattr(tracer, "enabled", False):
                self._saved_sampler = tracer.sampler
                tracer.sampler = self._degraded_sampler
            self._brownout_since = now
            self.stats.brownouts += 1
            self.service.events.emit(
                now, "faas", "overload.brownout", state="enter", depth=self.pending
            )
        elif self._brownout_since is not None and self.pending <= exit_mark:
            if self._saved_sampler is not None:
                tracer_of(self.service.clock).sampler = self._saved_sampler
                self._saved_sampler = None
            elapsed = now - self._brownout_since
            self.stats.brownout_seconds += elapsed
            self._brownout_since = None
            self.service.events.emit(
                now,
                "faas",
                "overload.brownout",
                state="exit",
                depth=self.pending,
                seconds=round(elapsed, 6),
            )

    def brownout_seconds(self, now: float) -> float:
        """Total degraded-telemetry time, counting an open interval."""
        total = self.stats.brownout_seconds
        if self._brownout_since is not None:
            total += now - self._brownout_since
        return total

    def snapshot(self) -> Dict[str, float]:
        stats = self.stats
        return {
            "admitted": stats.admitted,
            "rejected": stats.rejected,
            "rejected_rate": stats.rejected_rate,
            "rejected_inflight": stats.rejected_inflight,
            "rejected_concurrency": stats.rejected_concurrency,
            "shed": stats.shed,
            "backoffs": stats.backoffs,
            "retries_allowed": stats.retries_allowed,
            "retries_denied": stats.retries_denied,
            "brownouts": stats.brownouts,
            "pending": self.pending,
        }
