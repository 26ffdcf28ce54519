"""Deterministic fault injection over the discrete-event engine.

The :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into scheduled clock events and armed interception points. It registers
itself on the shared :class:`~repro.util.clock.SimClock` (like the
tracer), so hot paths reach it ambiently via :func:`injector_of` without
every constructor growing a parameter. With no injector installed,
:func:`injector_of` returns the no-op :data:`NULL_INJECTOR` and every
hook is a cheap attribute access returning ``None`` — outputs stay
byte-identical to a fault-free world.

Interception points (all consulted by existing subsystems):

* ``check_dispatch(site)`` — raises ``NetworkPartitioned`` during a
  partition window (FaaS dispatcher).
* ``task_error_for(site, function)`` — armed :class:`TaskError` faults
  (FaaS dispatcher, before the endpoint executes).
* ``provision_error_for(site)`` — armed :class:`ProvisionFlake` faults
  (block providers).
* ``test_error_for(suite, test)`` — armed :class:`TestFailure` faults
  (simulated test suites, the Fig. 5 ``--inject-failure`` path).

Timed faults (outages, walltime kills, preemptions, network windows) are
scheduled when :meth:`arm` is called; every injection and recovery emits
a ``fault/*`` event so telemetry and chaos reports can account for them.
"""

from __future__ import annotations

import builtins
import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    EndpointOffline,
    NetworkPartitioned,
    PermanentError,
    ProvisionFailed,
    ReproError,
    TransientError,
)
from repro.faults.plan import (
    CoordinatorCrash,
    EndpointOutage,
    FaultPlan,
    NetworkDelay,
    NetworkPartition,
    NodePreemption,
    PerfDegradation,
    ProvisionFlake,
    TaskError,
    TestFailure,
    WalltimeKill,
)

class InjectedTransientError(ReproError, TransientError):
    """An injected fault the resilience layer is allowed to retry."""


class InjectedPermanentError(ReproError, PermanentError):
    """An injected fault that must not be retried."""


class NullInjector:
    """No-op injector: the default when no fault plan is installed."""

    active = False

    def check_dispatch(self, site: str) -> None:
        return None

    def task_error_for(self, site: str, function: str):
        return None

    def provision_error_for(self, site: str):
        return None

    def test_error_for(self, suite: str, test: str):
        return None

    def service_multiplier(self, endpoint_id: str) -> float:
        return 1.0


NULL_INJECTOR = NullInjector()


def injector_of(clock) -> "FaultInjector | NullInjector":
    """The injector ambiently registered on ``clock`` (never ``None``)."""
    injector = getattr(clock, "fault_injector", None)
    return injector if injector is not None else NULL_INJECTOR


class FaultInjector:
    """Arms a :class:`FaultPlan` against a world's clock and services."""

    active = True

    def __init__(self, world, plan: FaultPlan) -> None:
        self.world = world
        self.plan = plan
        self.clock = world.clock
        self.events = world.events
        self.armed_at: Optional[float] = None
        # armed interception state
        self._task_errors: List[Dict] = []  # {site, function, left, exc}
        self._provision_flakes: List[Dict] = []  # {site, left}
        self._test_failures: List[TestFailure] = []
        self._partitioned: Dict[str, int] = {}  # site -> open window count
        self._saved_networks: Dict[str, object] = {}
        self._degraded: Dict[str, float] = {}  # endpoint -> multiplier

    # -- lifecycle ---------------------------------------------------------
    def arm(self) -> None:
        """Register ambiently and schedule every fault relative to now."""
        self.armed_at = self.clock.now
        self.clock.fault_injector = self
        self.events.emit(
            self.clock.now, "fault", "plan.armed",
            seed=self.plan.seed, profile=self.plan.profile,
            faults=len(self.plan),
        )
        for fault in self.plan.faults:
            if isinstance(fault, EndpointOutage):
                self.clock.call_after(
                    fault.at, lambda f=fault: self._begin_outage(f)
                )
            elif isinstance(fault, TaskError):
                self.clock.call_after(
                    fault.at, lambda f=fault: self._arm_task_error(f)
                )
            elif isinstance(fault, TestFailure):
                # consulted whenever the suite runs; no timing component
                self._test_failures.append(fault)
            elif isinstance(fault, NetworkDelay):
                self.clock.call_after(
                    fault.at, lambda f=fault: self._begin_delay(f)
                )
            elif isinstance(fault, NetworkPartition):
                self.clock.call_after(
                    fault.at, lambda f=fault: self._begin_partition(f)
                )
            elif isinstance(fault, WalltimeKill):
                self.clock.call_after(
                    fault.at, lambda f=fault: self._kill_pilots(f)
                )
            elif isinstance(fault, NodePreemption):
                self.clock.call_after(
                    fault.at, lambda f=fault: self._preempt(f)
                )
            elif isinstance(fault, ProvisionFlake):
                self.clock.call_after(
                    fault.at, lambda f=fault: self._arm_provision_flake(f)
                )
            elif isinstance(fault, PerfDegradation):
                self.clock.call_after(
                    fault.at, lambda f=fault: self._begin_degradation(f)
                )
            elif isinstance(fault, CoordinatorCrash):
                # journal-offset positioned, not time positioned: armed
                # immediately against the checkpointer, which raises
                # CoordinatorCrashed once record at_event_seq lands
                checkpointer = getattr(self.world, "checkpointer", None)
                if checkpointer is None:
                    raise ValueError(
                        "CoordinatorCrash requires a journal: call "
                        "World.attach_journal() before arming the plan"
                    )
                checkpointer.arm_crash(fault.at_event_seq)
                self._record(
                    "coordinator_crash.armed", at_record=fault.at_event_seq
                )
            else:
                raise TypeError(f"unknown fault type {type(fault).__name__}")

    def _record(self, kind: str, **data) -> None:
        self.events.emit(self.clock.now, "fault", kind, **data)

    # -- endpoint outages --------------------------------------------------
    def _endpoints_at(self, site: str) -> List[Tuple[str, object]]:
        faas = self.world.faas
        return [
            (eid, ep)
            for eid, ep in sorted(faas._endpoints.items())
            if ep.site.name == site
        ]

    def _begin_outage(self, fault: EndpointOutage) -> None:
        hit = self._endpoints_at(fault.site)
        self._record(
            "endpoint.offline", site=fault.site,
            endpoints=[eid for eid, _ in hit], duration=fault.duration,
        )
        for eid, endpoint in hit:
            endpoint.online = False
            # tasks already on the wire fail typed + retryable, rather
            # than silently completing against a dead endpoint
            self.world.faas.fail_inflight(
                eid,
                EndpointOffline(
                    f"endpoint {eid[:8]} at {fault.site} went offline mid-task"
                ),
            )
        if fault.duration != float("inf"):
            self.clock.call_after(
                fault.duration, lambda: self._end_outage(fault)
            )

    def _end_outage(self, fault: EndpointOutage) -> None:
        hit = self._endpoints_at(fault.site)
        self._record(
            "endpoint.online", site=fault.site,
            endpoints=[eid for eid, _ in hit],
        )
        for eid, endpoint in hit:
            endpoint.online = True
            self.world.faas.kick(eid)

    # -- task errors -------------------------------------------------------
    def _arm_task_error(self, fault: TaskError) -> None:
        exc_type = (
            InjectedTransientError if fault.transient
            else InjectedPermanentError
        )
        self._task_errors.append(
            {
                "site": fault.site,
                "function": fault.function,
                "left": fault.count,
                "exc_type": exc_type,
                "message": fault.message,
            }
        )
        self._record(
            "task_error.armed", site=fault.site, function=fault.function,
            count=fault.count, transient=fault.transient,
        )

    def task_error_for(self, site: str, function: str):
        for armed in self._task_errors:
            if armed["left"] <= 0:
                continue
            if armed["site"] and armed["site"] != site:
                continue
            if armed["function"] and armed["function"] != function:
                continue
            armed["left"] -= 1
            self._record(
                "task_error.injected", site=site, function=function,
                remaining=armed["left"],
            )
            return armed["exc_type"](armed["message"])
        return None

    # -- test failures -----------------------------------------------------
    def test_error_for(self, suite: str, test: str):
        for fault in self._test_failures:
            if fault.suite and fault.suite != suite:
                continue
            if fault.test_name and fault.test_name != test:
                continue
            self._record(
                "test_failure.injected", suite=suite, test=test,
                exception=fault.exception_type,
            )
            # resolve builtin exception types by name (AttributeError...)
            exc_cls = getattr(builtins, fault.exception_type, RuntimeError)
            if not (
                isinstance(exc_cls, type)
                and issubclass(exc_cls, BaseException)
            ):
                exc_cls = RuntimeError
            return exc_cls(fault.message)
        return None

    # -- network windows ---------------------------------------------------
    def _begin_delay(self, fault: NetworkDelay) -> None:
        site = self.world.sites.get(fault.site)
        if site is None:
            return
        self._saved_networks[fault.site] = site.network
        site.network = dataclasses.replace(
            site.network,
            latency_to_cloud=site.network.latency_to_cloud
            + fault.extra_latency,
        )
        self._record(
            "network.delay", site=fault.site,
            extra_latency=fault.extra_latency, duration=fault.duration,
        )
        self.clock.call_after(fault.duration, lambda: self._end_delay(fault))

    def _end_delay(self, fault: NetworkDelay) -> None:
        site = self.world.sites.get(fault.site)
        saved = self._saved_networks.pop(fault.site, None)
        if site is not None and saved is not None:
            site.network = saved
        self._record("network.restored", site=fault.site)

    def _begin_partition(self, fault: NetworkPartition) -> None:
        self._partitioned[fault.site] = (
            self._partitioned.get(fault.site, 0) + 1
        )
        self._record(
            "network.partition", site=fault.site, duration=fault.duration
        )
        self.clock.call_after(
            fault.duration, lambda: self._end_partition(fault)
        )

    def _end_partition(self, fault: NetworkPartition) -> None:
        count = self._partitioned.get(fault.site, 0) - 1
        if count <= 0:
            self._partitioned.pop(fault.site, None)
        else:
            self._partitioned[fault.site] = count
        self._record("network.healed", site=fault.site)
        # retries scheduled during the window fire on their own events;
        # kick dispatchers so queued work does not wait for one
        for eid, _ in self._endpoints_at(fault.site):
            self.world.faas.kick(eid)

    def check_dispatch(self, site: str) -> None:
        if self._partitioned.get(site):
            raise NetworkPartitioned(
                f"network partition: cloud cannot reach site {site}"
            )

    # -- fail-slow windows -------------------------------------------------
    def _begin_degradation(self, fault: PerfDegradation) -> None:
        hit = self._endpoints_at(fault.site)
        if not hit:
            return
        if fault.member >= 0:
            hit = [hit[min(fault.member, len(hit) - 1)]]
        for eid, _ in hit:
            self._degraded[eid] = fault.multiplier
            self._record(
                "perf.degraded", site=fault.site, endpoint=eid,
                multiplier=fault.multiplier, duration=fault.duration,
            )
        ids = [eid for eid, _ in hit]
        self.clock.call_after(
            fault.duration, lambda: self._end_degradation(fault, ids)
        )

    def _end_degradation(
        self, fault: PerfDegradation, endpoint_ids: List[str]
    ) -> None:
        for eid in endpoint_ids:
            if self._degraded.pop(eid, None) is not None:
                self._record(
                    "perf.restored", site=fault.site, endpoint=eid
                )

    def service_multiplier(self, endpoint_id: str) -> float:
        """Current fail-slow stretch for an endpoint (1.0 = full speed).

        Sampled by the dispatcher at dispatch time: the whole execution
        runs under the multiplier in effect when it started, which keeps
        hedged reproductions deterministic (a window opening mid-task
        does not retroactively slow it).
        """
        return self._degraded.get(endpoint_id, 1.0)

    # -- scheduler faults --------------------------------------------------
    def _running_pilots(self, site_name: str, user: str) -> List[object]:
        site = self.world.sites.get(site_name)
        if site is None or not site.has_scheduler:
            return []
        from repro.scheduler.jobs import JobState

        return [
            job
            for job in site.scheduler.queue()
            if job.state is JobState.RUNNING
            and job.name.startswith("pilot-")
            and (not user or job.user == user)
        ]

    def _kill_pilots(self, fault: WalltimeKill) -> None:
        for job in self._running_pilots(fault.site, fault.user):
            site = self.world.sites[fault.site]
            site.scheduler.force_timeout(job.job_id)
            self._record(
                "walltime.killed", site=fault.site, job_id=job.job_id,
                user=job.user,
            )

    def _preempt(self, fault: NodePreemption) -> None:
        for job in self._running_pilots(fault.site, fault.user):
            site = self.world.sites[fault.site]
            site.scheduler.preempt(job.job_id)
            self._record(
                "node.preempted", site=fault.site, job_id=job.job_id,
                user=job.user,
            )

    # -- provision flakes --------------------------------------------------
    def _arm_provision_flake(self, fault: ProvisionFlake) -> None:
        self._provision_flakes.append(
            {"site": fault.site, "left": fault.count}
        )
        self._record(
            "provision_flake.armed", site=fault.site, count=fault.count
        )

    def provision_error_for(self, site: str):
        for armed in self._provision_flakes:
            if armed["left"] <= 0:
                continue
            if armed["site"] and armed["site"] != site:
                continue
            armed["left"] -= 1
            self._record(
                "provision.failed", site=site, remaining=armed["left"]
            )
            return ProvisionFailed(
                f"injected provision failure at {site} "
                f"({armed['left']} more armed)"
            )
        return None
