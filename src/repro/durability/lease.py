"""Heartbeat leases: clock-driven endpoint liveness with TTL + renewal.

A :class:`Lease` is a promise that an endpoint was alive at
``renewed_at`` and may be presumed alive until ``renewed_at + ttl``.
The :class:`LeaseRegistry` renews leases passively on task activity
(dispatch and completion both count as heartbeats) and schedules one
cancellable expiry check per lease — no periodic heartbeat events, so an
idle simulation still drains to quiescence and deadlock detection keeps
working. Expiry fires ``on_expire`` exactly once per lease; a recovered
coordinator uses journaled grant/renewal times to decide which endpoints
were already dead at the crash (see ``ReplayIndex.dead_endpoints``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.util.clock import EventHandle, SimClock
from repro.util.events import EventLog


@dataclass
class Lease:
    """One endpoint's liveness promise."""

    endpoint_id: str
    ttl: float
    granted_at: float
    renewed_at: float

    @property
    def expires_at(self) -> float:
        return self.renewed_at + self.ttl

    def expired(self, now: float) -> bool:
        return now >= self.expires_at - 1e-9


class LeaseRegistry:
    """Grants, renews, and expires leases against the simulation clock."""

    def __init__(
        self,
        clock: SimClock,
        events: EventLog,
        ttl: float = 3600.0,
        on_expire: Optional[Callable[[str], None]] = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.clock = clock
        self.events = events
        self.ttl = ttl
        self.on_expire = on_expire
        self._leases: Dict[str, Lease] = {}
        self._checks: Dict[str, EventHandle] = {}

    def lease(self, endpoint_id: str) -> Optional[Lease]:
        return self._leases.get(endpoint_id)

    def active(self, endpoint_id: str) -> bool:
        lease = self._leases.get(endpoint_id)
        return lease is not None and not lease.expired(self.clock.now)

    def grant(self, endpoint_id: str) -> Lease:
        now = self.clock.now
        lease = Lease(
            endpoint_id=endpoint_id, ttl=self.ttl, granted_at=now, renewed_at=now
        )
        self._leases[endpoint_id] = lease
        self.events.emit(
            now, "durability", "lease.granted",
            endpoint=endpoint_id, ttl=self.ttl, expires_at=lease.expires_at,
        )
        self._schedule_check(endpoint_id)
        return lease

    def renew(self, endpoint_id: str) -> Optional[Lease]:
        """Heartbeat: push the expiry out by a full TTL.

        Returns ``None`` for unknown or already-expired leases — a dead
        endpoint must re-register (re-grant), not quietly resurrect.
        """
        lease = self._leases.get(endpoint_id)
        now = self.clock.now
        if lease is None or lease.expired(now):
            return None
        lease.renewed_at = now
        self.events.emit(
            now, "durability", "lease.renewed",
            endpoint=endpoint_id, expires_at=lease.expires_at,
        )
        self._schedule_check(endpoint_id)
        return lease

    # "heartbeat" is the wire-protocol name for the same operation.
    heartbeat = renew

    def revoke(self, endpoint_id: str) -> None:
        """Drop a lease without firing expiry (clean endpoint shutdown)."""
        handle = self._checks.pop(endpoint_id, None)
        if handle is not None:
            handle.cancel()
        self._leases.pop(endpoint_id, None)

    def _schedule_check(self, endpoint_id: str) -> None:
        handle = self._checks.get(endpoint_id)
        if handle is not None:
            handle.cancel()
        lease = self._leases[endpoint_id]
        self._checks[endpoint_id] = self.clock.call_at(
            lease.expires_at, lambda eid=endpoint_id: self._check(eid)
        )

    def _check(self, endpoint_id: str) -> None:
        lease = self._leases.get(endpoint_id)
        if lease is None:
            return
        now = self.clock.now
        if not lease.expired(now):
            # Renewed between scheduling and firing; the renewal already
            # rescheduled, but guard against a stale uncancelled check.
            return
        self._checks.pop(endpoint_id, None)
        self._leases.pop(endpoint_id, None)
        self.events.emit(
            now, "durability", "lease.expired",
            endpoint=endpoint_id,
            granted_at=lease.granted_at, renewed_at=lease.renewed_at,
        )
        if self.on_expire is not None:
            self.on_expire(endpoint_id)
