"""Unit tests: fault plans, chaos profiles, and the resilience primitives."""

import pytest

from repro.errors import (
    EndpointOffline,
    InvalidCredentials,
    NetworkPartitioned,
    TaskFailed,
    TaskTimeout,
    WalltimeExceeded,
    is_retryable,
)
from repro.faults.injector import (
    NULL_INJECTOR,
    InjectedPermanentError,
    InjectedTransientError,
    injector_of,
)
from repro.faults.plan import EndpointOutage, FaultPlan, TaskError
from repro.faults.profiles import PROFILES, build_profile
from repro.faults.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    ResilienceStats,
    RetryPolicy,
    deterministic_fraction,
)
from repro.util.clock import SimClock


class TestErrorTaxonomy:
    def test_transient_errors_are_retryable(self):
        for exc in (
            EndpointOffline("down"),
            WalltimeExceeded("killed"),
            NetworkPartitioned("unreachable"),
            InjectedTransientError("flake"),
        ):
            assert is_retryable(exc), exc

    def test_permanent_and_unclassified_are_not(self):
        for exc in (
            TaskTimeout("deadline"),
            InvalidCredentials("bad secret"),
            InjectedPermanentError("broken"),
            ValueError("unclassified"),
        ):
            assert not is_retryable(exc), exc

    def test_task_failed_defers_to_its_flag(self):
        assert is_retryable(TaskFailed("x", retryable=True))
        assert not is_retryable(TaskFailed("x", retryable=False))


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay(2, "task-a") == policy.delay(2, "task-a")
        # different task or attempt → different jitter
        assert policy.delay(2, "task-a") != policy.delay(2, "task-b")

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            base_delay=10.0, multiplier=2.0, max_delay=35.0, jitter=0.0
        )
        assert policy.delay(1) == pytest.approx(10.0)
        assert policy.delay(2) == pytest.approx(20.0)
        assert policy.delay(3) == pytest.approx(35.0)  # capped, not 40
        with pytest.raises(ValueError):
            policy.delay(0)

    def test_jitter_bounded_by_factor(self):
        policy = RetryPolicy(base_delay=10.0, jitter=0.5, seed=3)
        for attempt in range(1, 5):
            delay = policy.delay(attempt, "t")
            backoff = min(300.0, 10.0 * 2.0 ** (attempt - 1))
            assert backoff <= delay < backoff * 1.5

    def test_should_retry_consults_taxonomy_and_budget(self):
        policy = RetryPolicy(max_attempts=3)
        flake = EndpointOffline("down")
        assert policy.should_retry(flake, 1)
        assert policy.should_retry(flake, 2)
        assert not policy.should_retry(flake, 3)  # budget exhausted
        assert not policy.should_retry(InvalidCredentials("no"), 1)

    def test_deterministic_fraction_is_stable(self):
        a = deterministic_fraction(1, "key", 2)
        assert a == deterministic_fraction(1, "key", 2)
        assert 0.0 <= a < 1.0
        assert a != deterministic_fraction(1, "key", 3)


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3))
        assert not breaker.record_failure(1.0)
        assert not breaker.record_failure(2.0)
        assert breaker.record_failure(3.0)  # the tripping failure
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.snapshot()["state"] == "open"
        assert breaker.trips == 1
        assert not breaker.allow(4.0)

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2))
        breaker.record_failure(1.0)
        breaker.record_success()
        assert not breaker.record_failure(3.0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_closes_or_reopens(self):
        policy = BreakerPolicy(failure_threshold=1, reset_timeout=100.0)
        breaker = CircuitBreaker(policy)
        breaker.record_failure(0.0)
        assert not breaker.allow(50.0)  # window still open
        assert breaker.allow(100.0)  # admitted as the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        # and the failing-probe path re-opens with a fresh window
        breaker.record_failure(102.0)
        assert breaker.allow(202.0)
        assert breaker.record_failure(203.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 3


class TestResilienceStats:
    def test_summary_sorts_error_names(self):
        stats = ResilienceStats()
        stats.count_error(WalltimeExceeded("x"))
        stats.count_error(EndpointOffline("y"))
        stats.count_error(EndpointOffline("z"))
        assert stats.summary()["by_error"] == {
            "EndpointOffline": 2, "WalltimeExceeded": 1
        }


class TestNullInjector:
    def test_injector_of_defaults_to_null(self):
        clock = SimClock()
        assert injector_of(clock) is NULL_INJECTOR
        assert not NULL_INJECTOR.active

    def test_every_hook_is_a_no_op(self):
        assert NULL_INJECTOR.check_dispatch("anywhere") is None
        assert NULL_INJECTOR.task_error_for("site", "fn") is None
        assert NULL_INJECTOR.provision_error_for("site") is None
        assert NULL_INJECTOR.test_error_for("suite", "test") is None


class TestPlansAndProfiles:
    def test_plan_describes_itself(self):
        plan = FaultPlan(seed=5, profile="demo")
        plan.add(EndpointOutage(at=1.0, site="faster", duration=30.0))
        plan.add(TaskError(at=0.0, site="faster", count=2))
        desc = plan.describe()
        assert desc["seed"] == 5
        assert [f["kind"] for f in desc["faults"]] == [
            "EndpointOutage", "TaskError"
        ]
        assert len(plan.by_kind(EndpointOutage)) == 1

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_profiles_are_seed_deterministic(self, name):
        assert (
            build_profile(name, 7).describe()
            == build_profile(name, 7).describe()
        )
        assert (
            build_profile(name, 7).describe()
            != build_profile(name, 8).describe()
        )

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            build_profile("meteor-strike", 1)

    @pytest.mark.parametrize("name", ["", "none", "off"])
    def test_fault_free_names_build_no_plan(self, name):
        assert build_profile(name, 7) is None
