"""The resilience layer: retry policies and circuit breakers.

These absorb the faults :mod:`repro.faults.injector` throws. Both are
deliberately deterministic: backoff jitter is derived from a seed + the
task id + the attempt number through a cryptographic hash (never Python's
salted ``hash``), so two runs of the same chaos seed schedule retries at
identical virtual times — the replay-from-seed guarantee.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import is_retryable


def deterministic_fraction(*parts: object) -> float:
    """A stable float in [0, 1) derived from ``parts`` via SHA-256.

    Python's builtin ``hash`` is salted per process (PYTHONHASHSEED), so
    it must never feed anything that has to replay across runs.
    """
    digest = hashlib.sha256(
        "\x1f".join(str(p) for p in parts).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter over the error taxonomy.

    Attempt ``n`` (1-based) that fails retryably is redispatched after
    ``min(max_delay, base_delay * multiplier**(n-1)) * (1 + jitter * frac)``
    where ``frac`` is a deterministic function of ``(seed, key, n)``.
    Permanent errors (per :func:`repro.errors.is_retryable`) are never
    retried regardless of remaining attempts.
    """

    max_attempts: int = 3
    base_delay: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 300.0
    jitter: float = 0.1
    seed: int = 0

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether a failure on (1-based) ``attempt`` warrants another try."""
        return attempt < self.max_attempts and is_retryable(error)

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before the attempt *after* ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        backoff = min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )
        frac = deterministic_fraction(self.seed, key, attempt)
        return backoff * (1.0 + self.jitter * frac)


@dataclass(frozen=True)
class BreakerPolicy:
    """Parameters for per-endpoint circuit breakers.

    ``failure_threshold`` consecutive retryable failures open the
    circuit; after ``reset_timeout`` virtual seconds the breaker
    half-opens and admits one probe — success closes it, failure re-opens
    it for another window.
    """

    failure_threshold: int = 3
    reset_timeout: float = 600.0


class CircuitBreaker:
    """Classic closed → open → half-open state machine for one endpoint.

    Purely passive: callers ask :meth:`allow` before dispatching and
    report outcomes via :meth:`record_success` / :meth:`record_failure`.
    All times are virtual; the breaker holds no clock and schedules no
    events, so it adds nothing to the event queue (determinism-neutral).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, policy: BreakerPolicy) -> None:
        self.policy = policy
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.trips = 0  # times the breaker went closed/half-open -> open

    def allow(self, now: float) -> bool:
        """May a dispatch proceed at virtual time ``now``?

        An open breaker past its reset window half-opens and admits the
        caller as the probe.
        """
        if self.state == self.OPEN:
            if now - self.opened_at >= self.policy.reset_timeout:
                self.state = self.HALF_OPEN
                return True
            return False
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state != self.CLOSED:
            self.state = self.CLOSED
            self.opened_at = None

    def record_failure(self, now: float) -> bool:
        """Record one failure; returns True when this one trips the breaker."""
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN:
            # the probe failed: straight back to open, fresh window
            self.state = self.OPEN
            self.opened_at = now
            self.trips += 1
            return True
        if (
            self.state == self.CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self.state = self.OPEN
            self.opened_at = now
            self.trips += 1
            return True
        return False

    def snapshot(self) -> Dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "trips": self.trips,
        }


@dataclass
class ResilienceStats:
    """Aggregate counters a service keeps about its own recoveries."""

    retries: int = 0
    failovers: int = 0
    breaker_trips: int = 0
    timeouts: int = 0
    give_ups: int = 0  # retryable errors with attempts exhausted
    by_error: Dict[str, int] = field(default_factory=dict)

    def count_error(self, error: BaseException) -> None:
        name = type(error).__name__
        self.by_error[name] = self.by_error.get(name, 0) + 1

    def summary(self) -> Dict:
        return {
            "retries": self.retries,
            "failovers": self.failovers,
            "breaker_trips": self.breaker_trips,
            "timeouts": self.timeouts,
            "give_ups": self.give_ups,
            "by_error": dict(sorted(self.by_error.items())),
        }
