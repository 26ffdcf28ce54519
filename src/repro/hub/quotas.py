"""Per-tenant admission quotas: token buckets and in-flight caps.

The hub is where tenant identity lives (MEP identity mapping hands every
submission an identity URN), so the hub also owns the *policy* side of
admission control: how fast each tenant may submit and how much of the
pool it may hold at once.  The FaaS overload controller consults a
:class:`QuotaRegistry` first in its admission verdict, at the head of
the resilience chain, and turns a non-empty verdict into a typed
``AdmissionRejected`` on the task's future.

Everything here is virtual-time deterministic: token buckets refill from
the simulation clock passed in by the caller, never from wall time, so
two same-seed runs make byte-identical admission decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["QuotaRegistry", "TenantQuota"]


@dataclass(frozen=True)
class TenantQuota:
    """Admission policy for one tenant; zero means unlimited.

    ``rate`` is sustained submissions per virtual second, ``burst`` the
    bucket depth (how many submissions may land back-to-back), and
    ``max_inflight`` caps tasks admitted but not yet finalized.
    """

    rate: float = 0.0
    burst: float = 1.0
    max_inflight: int = 0


class _TokenBucket:
    """Deterministic virtual-time token bucket (no wall-clock reads)."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = max(1.0, burst)
        self.tokens = self.burst
        self.updated = 0.0

    def take(self, now: float) -> bool:
        if now > self.updated:
            self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
            self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class QuotaRegistry:
    """Tracks per-tenant quotas, buckets, and live in-flight counts.

    ``check`` returns an empty string when the tenant may submit, or the
    rejection reason (``quota-inflight`` before ``quota-rate``: an
    over-quota tenant should not also drain its rate bucket).  In-flight
    accounting is explicit — the admitting layer calls :meth:`bind` once
    a task is accepted and :meth:`release` when it finalizes.
    """

    def __init__(self, default: TenantQuota | None = None) -> None:
        self.default = default or TenantQuota()
        self._quotas: Dict[str, TenantQuota] = {}
        self._buckets: Dict[str, _TokenBucket] = {}
        self._inflight: Dict[str, int] = {}

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        self._quotas[tenant] = quota
        self._buckets.pop(tenant, None)

    def quota_for(self, tenant: str) -> TenantQuota:
        return self._quotas.get(tenant, self.default)

    def inflight(self, tenant: str) -> int:
        return self._inflight.get(tenant, 0)

    def check(self, tenant: str, now: float) -> str:
        """Admission verdict for one submission; consumes a rate token."""
        quota = self.quota_for(tenant)
        if quota.max_inflight > 0 and self.inflight(tenant) >= quota.max_inflight:
            return "quota-inflight"
        if quota.rate > 0.0:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = _TokenBucket(quota.rate, quota.burst)
            if not bucket.take(now):
                return "quota-rate"
        return ""

    def bind(self, tenant: str) -> None:
        self._inflight[tenant] = self.inflight(tenant) + 1

    def release(self, tenant: str) -> None:
        count = self.inflight(tenant)
        if count > 0:
            self._inflight[tenant] = count - 1

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Current admission state per tenant that has ever been seen."""
        tenants = set(self._quotas) | set(self._buckets) | set(self._inflight)
        return {
            tenant: {
                "rate": self.quota_for(tenant).rate,
                "max_inflight": float(self.quota_for(tenant).max_inflight),
                "inflight": float(self.inflight(tenant)),
            }
            for tenant in sorted(tenants)
        }
