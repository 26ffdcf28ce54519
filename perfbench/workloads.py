"""The four benchmark workloads: seeded inputs, set-up, timed work, summary.

Every workload drives only the library's public API (``World``,
``ComputeClient``, the plane configs, ``FaultPlan`` and the fault types,
``Journal``/``JsonlJournalStore`` and ``repro.suites.run_suite``) and
imports nothing from ``repro.experiments`` or ``repro.cli``, so changes
there cannot silently change what is measured.

A workload's op set for a seed is split into ``parts`` of equal shape,
each with its own derived seed. One *round* runs one part:
:meth:`prepare` builds its worlds (set-up, untimed), :meth:`run` does the
timed work, :meth:`summarize` checks the outputs and distils the
virtual-time figures (untimed). The runner cycles through the parts, so a
run gets many timing samples while the virtual figures always pool the
same op set. Parts are small, a round's timed phase lasting 0.06-0.5 s,
so that the reference slices the runner times on either side of a round
see the same host speed as the round itself. A repeated part must
reproduce its virtual figures exactly; the runner treats a difference as
a correctness violation.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from checks import check_futures, percentile

from repro.durability import Journal, JsonlJournalStore
from repro.errors import AdmissionRejected, CoordinatorCrashed
from repro.faas.client import ComputeClient
from repro.faas.hedging import HedgeConfig
from repro.faas.overload import (
    PRIORITY_BATCH,
    PRIORITY_CRITICAL,
    PRIORITY_NORMAL,
    OverloadConfig,
)
from repro.faults.plan import (
    CoordinatorCrash,
    FaultPlan,
    PerfDegradation,
    TaskError,
)
from repro.faults.resilience import RetryPolicy
from repro.world import World

SITE = "chameleon"
POOL_SIZE = 8


def part_seed(seed: int, part: int) -> int:
    return seed * 101 + part


@dataclass
class Summary:
    """One part's checked outcome, in virtual time and op counts."""

    ops: int
    succeeded: int
    makespan: float
    latencies: List[float]
    # hedging: duplicate and useful virtual compute seconds
    wasted_s: float = 0.0
    useful_s: float = 0.0
    # ops whose outcome the checks found wrong
    bad: int = 0
    # per-layer figures read from program state: numbers add up across
    # parts, lists concatenate
    layer: Dict[str, Any] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    def virtual(self) -> Dict[str, float]:
        """The deterministic end-to-end figures.

        ``success_share`` is 1 - failed share and ``useful_compute_share``
        is 1 - ``HedgeStats.wasted_ratio()``: the complements stay above 0
        where nothing fails and nothing is hedged.
        """
        compute = self.useful_s + self.wasted_s
        return {
            "ops": self.ops,
            "success_share": self.succeeded / self.ops if self.ops else 0.0,
            "virtual_makespan_s": self.makespan,
            "virtual_latency_p50_s": percentile(self.latencies, 50.0),
            "virtual_latency_p99_s": percentile(self.latencies, 99.0),
            "useful_compute_share": self.useful_s / compute if compute else 1.0,
        }

    @staticmethod
    def pooled(parts: Sequence["Summary"]) -> "Summary":
        """The whole op set: parts side by side, makespans summed."""
        layer: Dict[str, Any] = {}
        for part in parts:
            for key, value in part.layer.items():
                layer[key] = layer.get(key, [] if isinstance(value, list) else 0) + value
        return Summary(
            ops=sum(p.ops for p in parts),
            succeeded=sum(p.succeeded for p in parts),
            makespan=sum(p.makespan for p in parts),
            latencies=[x for p in parts for x in p.latencies],
            wasted_s=sum(p.wasted_s for p in parts),
            useful_s=sum(p.useful_s for p in parts),
            bad=sum(p.bad for p in parts),
            layer=layer,
            violations=[v for p in parts for v in p.violations],
        )


def _echo(fctx, index: int, seconds: float) -> List[Any]:
    """The synthetic task body: burn ``seconds`` of virtual compute and
    hand back the input, so every result can be checked against it."""
    fctx.handle.compute(seconds)
    return [index, seconds]


def _task_inputs(seed: int, count: int) -> List[List[Any]]:
    """``[index, virtual seconds]`` payloads, durations uniform in [1, 3]."""
    rng = random.Random(seed)
    return [[i, round(1.0 + 2.0 * rng.random(), 6)] for i in range(count)]


def _client(world: World, login: str) -> Tuple[ComputeClient, str]:
    user = world.register_user(login, {SITE: f"x-{login}"})
    client = ComputeClient(world.faas, user.client_id, user.client_secret)
    return client, client.register_function(_echo, f"echo-{login}")


def _pinned_api(world: World, login: str) -> Dict[str, Any]:
    """One client and its function over a freshly deployed pool."""
    client, function_id = _client(world, login)
    pool = world.deploy_mep_pool(SITE, POOL_SIZE)
    return {
        "client": client,
        "function_id": function_id,
        "members": [mep.endpoint_id for mep in pool],
    }


def _task_summary(futures, events, inputs) -> Summary:
    """Check a drained FaaS world and measure its tasks in virtual time.

    Latency runs from submit to the terminal outcome and covers every
    admitted task; a refusal at admission has no queueing latency and
    is counted by the success share instead.
    """
    violations, bad = check_futures(futures, events, inputs)
    latencies: List[float] = []
    first, last, succeeded = float("inf"), 0.0, 0
    for future in futures:
        task = future.task
        first = min(first, task.submitted_at)
        if task.completed_at is not None:
            last = max(last, task.completed_at)
        if not future.done():
            continue
        error = future.exception()
        if error is None:
            succeeded += 1
        elif isinstance(error, AdmissionRejected):
            continue
        if task.completed_at is not None:
            latencies.append(task.completed_at - task.submitted_at)
    return Summary(
        ops=len(futures),
        succeeded=succeeded,
        makespan=last - first if futures else 0.0,
        latencies=latencies,
        bad=bad,
        violations=violations,
        layer={
            "queue_waits": [
                f.task.queue_latency for f in futures
                if f.task.queue_latency is not None
            ],
        },
    )


def _submit_all(api: Dict[str, Any], inputs: List[List[Any]]) -> list:
    """Burst-submit every payload round-robin over the pinned members."""
    submit, function_id = api["client"].submit, api["function_id"]
    members = api["members"]
    return [
        submit(members[index % POOL_SIZE], function_id, index, seconds)
        for index, seconds in inputs
    ]


class Workload:
    """What the runner needs: ``inputs`` per part, and the three steps."""

    name = ""
    parts = 1
    inputs: List[Any]

    def warm_up(self, root: str) -> List[str]:
        """Once-per-process set-up after input generation; violations found."""
        return []

    def prepare(self, part: int) -> Dict[str, Any]:
        raise NotImplementedError

    def run(self, state: Dict[str, Any]) -> None:
        raise NotImplementedError

    def summarize(self, state: Dict[str, Any]) -> Summary:
        raise NotImplementedError


class Spine(Workload):
    """Burst-submitted synthetic tasks over a pinned pool; every plane off.

    The bare per-task path (submit, route, enqueue, pump, pilot, resolve)
    does all the work, so a spine change shows here and a change to
    telemetry, the journal or a plane must not move it.
    """

    name = "spine"
    parts = 10
    tasks = 1_000

    def __init__(self, seed: int, scratch: str) -> None:
        self.inputs = [
            _task_inputs(part_seed(seed, p), self.tasks) for p in range(self.parts)
        ]

    def prepare(self, part: int) -> Dict[str, Any]:
        world = World(telemetry=False)
        return {"part": part, "world": world, "api": _pinned_api(world, "spine")}

    def run(self, state: Dict[str, Any]) -> None:
        state["futures"] = _submit_all(state["api"], self.inputs[state["part"]])
        state["world"].clock.run_until_idle()

    def summarize(self, state: Dict[str, Any]) -> Summary:
        return _task_summary(
            state["futures"], state["world"].events, self.inputs[state["part"]]
        )


class Durable(Workload):
    """The spine generator with telemetry on and an on-disk journal,
    crashed at about half-way and resumed in a fresh world.

    The first world journals to JSONL with batched flushes until a
    ``CoordinatorCrash`` fires at the record where about half the tasks
    have completed. A fresh world reopens and verifies the journal from
    disk, resumes from it, re-submits the same tasks and finishes:
    journaled successes replay, the rest execute. An op is a task,
    counted once across the crash and the resume.
    """

    name = "durable"
    parts = 16
    tasks = 125
    batch = 64

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.inputs = [
            _task_inputs(part_seed(seed, p), self.tasks) for p in range(self.parts)
        ]
        # records before the first completion: one registration per pool
        # member, one submission per task; after it, each task adds a
        # dispatch and a completion record and each member one block
        self.crash_record = 2 * self.tasks + 2 * POOL_SIZE
        self._rounds = 0

    def _world(self, path: str) -> Tuple[World, Dict[str, Any]]:
        world = World(telemetry=True, streaming_metrics=True)
        world.attach_journal(Journal(JsonlJournalStore(path), batch_size=self.batch))
        return world, _pinned_api(world, "durable")

    def prepare(self, part: int) -> Dict[str, Any]:
        self._rounds += 1
        directory = os.path.join(self.scratch, f"durable-{self._rounds}")
        os.makedirs(directory, exist_ok=True)
        state: Dict[str, Any] = {
            "part": part,
            "directory": directory,
            "crash_path": os.path.join(directory, "crashed.jsonl"),
            "resume_path": os.path.join(directory, "resumed.jsonl"),
        }
        state["crashed"], state["crashed_api"] = self._world(state["crash_path"])
        state["crashed"].install_faults(
            FaultPlan(seed=self.seed, profile="perfbench-durable").add(
                CoordinatorCrash(at_event_seq=self.crash_record)
            )
        )
        state["resumed"], state["resumed_api"] = self._world(state["resume_path"])
        return state

    def run(self, state: Dict[str, Any]) -> None:
        inputs = self.inputs[state["part"]]
        crashed = state["crashed"]
        crashed.arm_faults()
        _submit_all(state["crashed_api"], inputs)
        state["crash_fired"] = False
        try:
            crashed.clock.run_until_idle()
        except CoordinatorCrashed:
            state["crash_fired"] = True
        started = perf_counter()
        journal = Journal.open(state["crash_path"])
        state["load_verify_s"] = perf_counter() - started
        resumed = state["resumed"]
        state["index"] = resumed.resume_from(journal)
        state["futures"] = _submit_all(state["resumed_api"], inputs)
        resumed.clock.run_until_idle()
        resumed.journal.flush()

    def summarize(self, state: Dict[str, Any]) -> Summary:
        resumed = state["resumed"]
        summary = _task_summary(
            state["futures"], resumed.events, self.inputs[state["part"]]
        )
        if not state["crash_fired"]:
            summary.violations.append(
                f"durable: the crash at record {self.crash_record} never fired"
            )
        faas = resumed.faas
        replayed = len(faas.replayed_keys)
        if replayed == 0:
            summary.violations.append("durable: no task replayed on resume")
        double = set(state["index"].completed_success()) & faas.executed_keys
        if double:
            summary.violations.append(
                f"durable: {len(double)} journaled-complete tasks executed again"
            )
        # the resumed run's journal must verify from disk as well
        Journal.open(state["resume_path"]).verify()
        summary.layer.update(
            journal_bytes=sum(
                os.path.getsize(state[key]) for key in ("crash_path", "resume_path")
            ),
            load_verify_s=[state["load_verify_s"]],
            replayed=replayed,
        )
        shutil.rmtree(state["directory"], ignore_errors=True)
        return summary


@dataclass(frozen=True)
class Arrival:
    at: float
    tenant: int
    seconds: float
    priority: int


class Planes(Workload):
    """Four tenants, one hot at 8x fair share, offered at about twice the
    capacity of an 8-member least-loaded pool, with every plane on.

    Seeded Poisson arrivals with bursts are scheduled in virtual time (an
    open loop: nothing waits for a reply, and each submission happens at
    its due time). Overload protection, retries, hedging and the
    observability plane with health routing are all on, and a generated
    fault plan repeats fail-slow windows on one member and transient error
    bursts across the whole horizon. Tasks carry no per-task deadline.
    """

    name = "planes"
    parts = 12
    tenants = 4
    hot_factor = 8.0
    horizon = 600.0
    min_seconds, max_seconds = 4.0, 20.0
    offered_utilization = 2.0
    # a burst adds 2-4 tasks (3 on average) to 20% of arrivals
    burst_gain = 1.0 + 0.2 * 3.0

    def __init__(self, seed: int, scratch: str, horizon: Optional[float] = None,
                 deadline: Optional[float] = None, protection: bool = True) -> None:
        # horizon, deadline and protection are for the self-check's
        # reproducer of the deadline double-resolution bug
        self.seed = seed
        if horizon is not None:
            self.horizon = horizon
        self.deadline = deadline
        self.protection = protection
        self.arrivals = [
            self._arrivals(part_seed(seed, p)) for p in range(self.parts)
        ]
        self.inputs = [
            [[i, a.seconds] for i, a in enumerate(arrivals)]
            for arrivals in self.arrivals
        ]

    @property
    def capacity(self) -> float:
        """Pool service rate, tasks per virtual second."""
        return POOL_SIZE / ((self.min_seconds + self.max_seconds) / 2.0)

    @property
    def fair_rate(self) -> float:
        weights = self.hot_factor + (self.tenants - 1)
        base = self.capacity * self.offered_utilization / self.burst_gain
        return base / weights

    def _arrivals(self, seed: int) -> List[Arrival]:
        arrivals: List[Arrival] = []
        for tenant in range(self.tenants):
            rng = random.Random(seed * 1_000_003 + tenant)
            rate = self.fair_rate * (self.hot_factor if tenant == 0 else 1.0)

            def draw(at: float) -> Arrival:
                seconds = round(rng.uniform(self.min_seconds, self.max_seconds), 6)
                pick = rng.random()
                priority = (
                    PRIORITY_CRITICAL if pick < 0.10
                    else PRIORITY_NORMAL if pick < 0.70
                    else PRIORITY_BATCH
                )
                return Arrival(round(at, 6), tenant, seconds, priority)

            t = rng.expovariate(rate)
            while t < self.horizon:
                arrivals.append(draw(t))
                if rng.random() < 0.2:
                    for _ in range(rng.randint(2, 4)):
                        offset = t + rng.uniform(0.1, 3.0)
                        if offset < self.horizon:
                            arrivals.append(draw(offset))
                t += rng.expovariate(rate)
        arrivals.sort(key=lambda a: (a.at, a.tenant))
        return arrivals

    def _faults(self, seed: int) -> FaultPlan:
        """Fail-slow windows on member 1 and transient error bursts that
        repeat until the horizon ends.

        Windows and bursts recur on a fixed cadence and only their phase
        is seeded: a seed that drew fewer or milder windows would move
        the tail latency by more than any bound a change could be held to.
        """
        rng = random.Random(seed * 7_919 + 1)
        plan = FaultPlan(seed=seed, profile="perfbench-planes")
        start = rng.uniform(20.0, 120.0)
        while start < self.horizon:
            plan.add(PerfDegradation(
                at=start, site=SITE, duration=400.0, multiplier=4.0, member=1,
            ))
            start += 600.0
        start = rng.uniform(30.0, 130.0)
        while start < self.horizon:
            plan.add(TaskError(
                at=start, site=SITE, count=8, transient=True,
                message="injected transient executor fault",
            ))
            start += 250.0
        return plan

    def overload(self, seed: int) -> OverloadConfig:
        depth = 2 * POOL_SIZE
        return OverloadConfig(
            tenant_rate=5.0 * self.fair_rate,
            tenant_burst=8.0,
            tenant_max_inflight=(3 * POOL_SIZE) // 2,
            aimd_initial=float(2 * POOL_SIZE),
            aimd_min=1.5 * POOL_SIZE,
            aimd_max=float(3 * POOL_SIZE),
            aimd_queue_high=depth + 2,
            aimd_p95_high=1.5 * self.max_seconds,
            aimd_cooldown=30.0,
            retry_budget=0.25,
            tenant_retry_budget=0.5,
            budget_window=300.0,
            shed_watermarks={PRIORITY_BATCH: depth + 4, PRIORITY_NORMAL: 3 * depth},
            brownout_enter=depth + 2,
            brownout_exit=depth // 2,
            brownout_sample_rate=0.1,
            brownout_seed=seed,
        )

    def hedge(self) -> HedgeConfig:
        # the deadline floor sits above the longest healthy task, so only
        # fail-slow-stretched dispatches can cross it
        return HedgeConfig(
            quantile=95.0, factor=1.5, min_samples=20,
            min_deadline=1.25 * self.max_seconds, window=600.0,
            detector_window=600.0, flag_ratio=2.0, detector_min_samples=5,
        )

    def prepare(self, part: int) -> Dict[str, Any]:
        seed = part_seed(self.seed, part)
        world = World(
            telemetry=True,
            streaming_metrics=True,
            faults=self._faults(seed),
            retry_policy=RetryPolicy(
                max_attempts=4, base_delay=4.0, multiplier=2.0,
                max_delay=60.0, jitter=0.1, seed=seed,
            ),
            offline_policy="queue",
            placement_policy="least-loaded",
            overload=self.overload(seed) if self.protection else None,
            hedge=self.hedge(),
        )
        world.enable_observability(health_routing=True)
        tenants = [_client(world, f"tenant-{i}") for i in range(self.tenants)]
        world.deploy_mep_pool(SITE, POOL_SIZE)
        return {"part": part, "world": world, "tenants": tenants}

    def run(self, state: Dict[str, Any]) -> None:
        world = state["world"]
        tenants = state["tenants"]
        deadline = self.deadline
        arrivals = self.arrivals[state["part"]]
        futures: list = [None] * len(arrivals)
        state["futures"] = futures

        def submit(index: int, arrival: Arrival) -> None:
            client, function_id = tenants[arrival.tenant]
            futures[index] = client.submit(
                SITE, function_id, index, arrival.seconds,
                priority=arrival.priority, timeout=deadline,
            )

        call_after = world.clock.call_after
        for index, arrival in enumerate(arrivals):
            call_after(arrival.at, lambda i=index, a=arrival: submit(i, a))
        world.arm_faults()
        world.clock.run_until_idle()

    def summarize(self, state: Dict[str, Any]) -> Summary:
        world = state["world"]
        futures = state["futures"]
        missing = sum(1 for f in futures if f is None)
        if missing:
            return Summary(
                ops=len(futures), succeeded=0, makespan=0.0, latencies=[],
                bad=missing,
                violations=[f"planes: {missing} arrivals never submitted"],
            )
        summary = _task_summary(futures, world.events, self.inputs[state["part"]])
        hedging = world.faas.hedging.stats
        summary.wasted_s = hedging.wasted_seconds
        summary.useful_s = hedging.useful_seconds
        overload = world.faas.overload
        summary.layer.update(
            retries=world.faas.resilience.retries,
            admitted=overload.stats.admitted if overload else len(futures),
            shed=overload.stats.shed if overload else 0,
            backoffs=overload.stats.backoffs if overload else 0,
            hedges_launched=hedging.hedges_launched,
            hedges_won=hedging.hedges_won,
        )
        return summary


# the paper's own suites and their expected verdicts: fig5 fails with
# the §6.2 upstream bug, everything else passes (fig4-sweep skips one
# instance by its skip_if rule)
CI_SUITES = ("fig4", "fig5", "exp63", "fig4-sweep")
CI_EXPECTED = {
    "fig4": {"ok": 3, "failed": 0, "skipped": 0, "status": "success"},
    "fig5": {"ok": 0, "failed": 1, "skipped": 0, "status": "failure"},
    "exp63": {"ok": 4, "failed": 0, "skipped": 0, "status": "success"},
    "fig4-sweep": {"ok": 14, "failed": 0, "skipped": 1, "status": "success"},
}


class CI(Workload):
    """A seed-shuffled closed loop of CORRECT CI runs of the shipped suites.

    One user starts the next run after the previous verdict. Each run
    builds its world, pushes the workflow, approves the gated
    environments and collects artifacts. Each run is triggered at a
    seeded phase of the sites' production-queue cycle, so the pilots'
    Slurm queue waits differ from run to run. An op is one suite test
    instance.
    """

    name = "ci"
    parts = 44
    runs_per_suite = 1  # per part: 44 parts x (3 + 1 + 4 + 15) = 1,012 instances
    max_phase = 600.0

    def __init__(self, seed: int, scratch: str) -> None:
        self.inputs = []
        for part in range(self.parts):
            rng = random.Random(part_seed(seed, part))
            sequence = [s for s in CI_SUITES for _ in range(self.runs_per_suite)]
            rng.shuffle(sequence)
            self.inputs.append(
                [(s, round(rng.uniform(0.0, self.max_phase), 3)) for s in sequence]
            )
        self.fig4_pinned = ""
        self.specs: Dict[str, Any] = {}
        self.sites: Dict[str, List[str]] = {}

    def warm_up(self, root: str) -> List[str]:
        """One untimed run per suite at phase 0, which a process pays
        once; fig4's figure text must equal the pinned baseline."""
        from repro.suites import load_suite, materialize

        pinned = os.path.join(root, "benchmarks", "baselines", "fig4-pinned.txt")
        with open(pinned, encoding="utf-8") as fh:
            self.fig4_pinned = fh.read().rstrip("\n")
        for name in CI_SUITES:
            self.specs[name] = load_suite(name)
            self.sites[name] = list(materialize(self.specs[name]).sites())
        violations: List[str] = []
        for name in CI_SUITES:
            violations += self._check(name, self._run_one(name, 0.0), full_figure=True)
        return violations

    def prepare(self, part: int) -> Dict[str, Any]:
        return {"part": part, "runs": []}

    def _run_one(self, name: str, phase: float):
        from repro.suites import run_suite

        sites = self.sites[name]

        def trigger_at_phase(world: World) -> None:
            for site in sites:
                world.site(site)
            if phase:
                world.clock.advance(phase)

        return run_suite(self.specs[name], world_setup=trigger_at_phase)

    def run(self, state: Dict[str, Any]) -> None:
        runs = state["runs"]
        for name, phase in self.inputs[state["part"]]:
            runs.append((name, self._run_one(name, phase)))

    @staticmethod
    def _distil(suite_run) -> Dict[str, Any]:
        """The figures of one run the summary pools."""
        events = suite_run.world.events
        created = events.query("actions", "run.created")
        trigger = created[0].time if created else 0.0
        finished = {
            e.data["job"]: e.time for e in events.query("actions", "job.finished")
        }
        counts = {"ok": 0, "failed": 0, "skipped": 0}
        latencies = []
        for result in suite_run.results:
            counts[result.status] += 1
            done = finished.get(result.instance.job_id)
            if result.status != "skipped" and done is not None:
                latencies.append(done - trigger)
        # virtual Slurm queue wait of the CI's own pilot jobs
        users = {
            e.data["job_id"]: e.data.get("user")
            for e in events.query(kind="job.submitted")
        }
        waits = [
            e.data["queue_wait"]
            for e in events.query(kind="job.started")
            if users.get(e.data["job_id"], "background") != "background"
        ]
        return {
            "counts": counts,
            "latencies": latencies,
            "makespan": suite_run.makespan,
            "slurm_waits": waits,
        }

    def _figure(self, suite_run) -> str:
        """The Fig. 4 text as ``python -m repro fig4`` prints it."""
        from repro.analysis.tables import format_grouped_bars

        durations: Dict[str, Dict[str, float]] = {}
        for result in suite_run.results:
            site = str(result.instance.variables["site"])
            durations[site] = {
                test: seconds for test, (_, seconds) in result.parsed.items()
            }
        tests = list(next(iter(durations.values())))
        groups = {
            test: {site: durations[site][test] for site in durations}
            for test in tests
        }
        waits = {site: 0.0 for site in durations}
        for event in suite_run.world.events.query("executor", "block.provisioned"):
            site = event.data.get("site")
            if site in waits and event.data.get("node_class") != "login":
                waits[site] += event.data.get("queue_wait", 0.0)
        return (
            "Fig. 4 — ParslDock test runtimes on different machines\n\n"
            + format_grouped_bars(groups)
            + "\n\npilot queue waits: "
            + str({site: round(wait, 1) for site, wait in waits.items()})
        )

    def _check(self, name: str, suite_run, full_figure: bool = False) -> List[str]:
        expected = CI_EXPECTED[name]
        got = {"ok": 0, "failed": 0, "skipped": 0, "status": suite_run.status}
        for result in suite_run.results:
            got[result.status] += 1
        if got != expected:
            return [f"ci: suite {name} verdict {got} != {expected}"]
        if name != "fig4":
            return []
        figure, pinned = self._figure(suite_run), self.fig4_pinned
        if not full_figure:
            # a phase-shifted trigger moves only the queue-wait line
            figure, pinned = figure.rsplit("\n", 1)[0], pinned.rsplit("\n", 1)[0]
        if figure != pinned:
            return ["ci: fig4 figure text differs from the pinned baseline"]
        return []

    def summarize(self, state: Dict[str, Any]) -> Summary:
        summary = Summary(ops=0, succeeded=0, makespan=0.0, latencies=[])
        summary.layer["slurm_waits"] = []
        for name, suite_run in state["runs"]:
            distilled = self._distil(suite_run)
            violations = self._check(name, suite_run)
            counts = distilled["counts"]
            summary.ops += sum(counts.values())
            summary.succeeded += counts["ok"]
            if violations:
                summary.bad += sum(counts.values())
                summary.violations += violations
            summary.latencies += distilled["latencies"]
            summary.layer["slurm_waits"] += distilled["slurm_waits"]
            summary.makespan += distilled["makespan"]
        return summary


WORKLOADS = {cls.name: cls for cls in (Spine, Durable, Planes, CI)}
