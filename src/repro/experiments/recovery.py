"""Crash/recovery experiment: Fig. 4 under coordinator crashes.

``run_fig4_recovery`` executes the §6.1 ParslDock run with a write-ahead
journal attached and heartbeat leases on, kills the coordinator at a
chosen journal offset (:class:`~repro.faults.plan.CoordinatorCrash`),
then boots a **fresh** world that resumes from the crashed journal. The
claim under test is exact recovery: the resumed run's rendered outputs —
run status, per-site pytest artifacts, the summarize wave, the run log,
and normalized provenance — are byte-identical to an uninterrupted run,
and no journaled-complete task body ever executes twice (the idempotency
-key audit).

Crash points are *journal offsets*, not virtual times, so the same named
point means the same lifecycle moment in every run:

* ``mid-dispatch``  — the first ``task.dispatched`` record just landed;
* ``mid-execute``   — the first ``task.completed`` record just landed;
* ``between-waves`` — the last per-site job finished, the summarize wave
  has not started;
* ``after-last``    — the last ``task.completed`` record just landed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.reporting import parse_pytest_stdout
from repro.experiments.fig4_parsldock import FIG4_SITES
from repro.faults.plan import CoordinatorCrash, FaultPlan
from repro.suites import PreparedSuite, execute_suite, prepare_suite

RECOVERY_SUITE = "fig4"
# generous TTL: leases are on to prove the machinery coexists with
# recovery, but no lease may expire mid-run and perturb byte-identity
LEASE_TTL = 100000.0
CRASH_POINT_NAMES: Tuple[str, ...] = (
    "mid-dispatch", "mid-execute", "between-waves", "after-last"
)


class CrashPointError(ValueError):
    """A ``crash_at`` that names no point of the baseline journal."""


def _prepare(telemetry: bool) -> PreparedSuite:
    """The recovery suite, ready to run and not yet journaled.

    The suite's per-site jobs are augmented with a dependent
    ``summarize`` job that needs every test job, so with concurrent jobs
    it forms a second wave — which is what makes the ``between-waves``
    crash point meaningful.
    """
    prepared = prepare_suite(
        RECOVERY_SUITE,
        telemetry=telemetry,
        concurrent_jobs=True,
        gated=False,
        name_override="ParslDock crash-safe CI",
    )
    prepared.builder.add_job(
        "summarize",
        steps=[{"name": "Summarize", "run": "echo all sites done"}],
        needs=list(prepared.mat.jobs),
    )
    return prepared


def _execute(
    crash_at: Optional[int] = None,
    resume_journal=None,
    telemetry: bool = True,
    seed: int = 0,
):
    """One journaled suite run; returns (world, run, journal, crashed).

    ``crash_at`` arms a :class:`CoordinatorCrash` at that journal record;
    ``resume_journal`` boots the world in recovery mode from a crashed
    run's journal. Setup (users, sites, endpoints) is identical in every
    mode, so journal offsets line up across baseline, crash, and resume.
    """
    prepared = _prepare(telemetry)
    world = prepared.world
    journal = world.attach_journal()
    world.faas.enable_leases(ttl=LEASE_TTL)
    if resume_journal is not None:
        world.resume_from(resume_journal)
    if crash_at is not None:
        plan = FaultPlan(seed=seed, profile="coordinator-crash").add(
            CoordinatorCrash(at_event_seq=crash_at)
        )
        world.install_faults(plan)
        world.arm_faults()

    suite_run = execute_suite(prepared, crash_ok=True)
    return world, suite_run.run, journal, suite_run.crashed


def crash_points_of(journal) -> Dict[str, int]:
    """Map each named crash point to its 1-based journal record offset.

    The first wave holds one test job per recovery site.
    """
    job_count = len(FIG4_SITES)
    dispatched: List[int] = []
    completed: List[int] = []
    jobs_finished: List[int] = []
    for i, record in enumerate(journal.records, start=1):
        if record.kind == "task.dispatched":
            dispatched.append(i)
        elif record.kind == "task.completed":
            completed.append(i)
        elif record.kind == "job.finished":
            jobs_finished.append(i)
    if not dispatched or not completed or len(jobs_finished) < job_count:
        raise ValueError(
            "baseline journal is missing lifecycle records; "
            f"have {len(journal)} records"
        )
    return {
        "mid-dispatch": dispatched[0],
        "mid-execute": completed[0],
        "between-waves": jobs_finished[job_count - 1],
        "after-last": completed[-1],
    }


def _render_outputs(world, run) -> str:
    """Deterministic text rendering of everything a run produced.

    This is the byte-identity surface: run status, per-job status, the
    per-site pytest artifacts (raw + parsed), the full run log, and every
    provenance record with ``task_replayed`` normalized out (it is the
    one field that *should* differ between a live and a resumed run).
    """
    lines = [f"run: {run.run_id} status={run.status} sha={run.sha}"]
    for job_run in run.jobs.values():
        lines.append(f"job: {job_run.job_id} status={job_run.status}")
        lines.extend(
            f"  step status={outcome.status} "
            f"outputs={json.dumps(outcome.outputs, sort_keys=True)}"
            for outcome in job_run.step_outcomes
        )
    for site_name in FIG4_SITES:
        artifact = world.hub.artifacts.download(
            run.run_id, f"correct-{site_name}-stdout"
        )
        parsed = parse_pytest_stdout(artifact.content)
        lines.append(f"artifact: {artifact.name}")
        lines.append(artifact.content)
        lines.extend(
            f"  {test_name}: {outcome} {duration:.6f}"
            for test_name, (outcome, duration) in sorted(parsed.items())
        )
    lines.append("log:")
    lines.extend(run.log)
    lines.append("provenance:")
    for record in world.provenance.all():
        data = asdict(record)
        data["task_replayed"] = False
        lines.append(json.dumps(data, sort_keys=True))
    return "\n".join(lines)


@dataclass
class Fig4RecoveryResult:
    """One crash-then-resume cycle measured against the baseline."""

    crash_label: str
    crash_record: int
    journal_records: int  # records in the crashed journal
    baseline_output: str
    resumed_output: str
    run_status: str
    replayed_tasks: int
    replayed_steps: int
    double_executed: List[str] = field(default_factory=list)
    resumed_world: object = None

    @property
    def identical(self) -> bool:
        return self.baseline_output == self.resumed_output

    @property
    def ok(self) -> bool:
        return (
            self.identical
            and not self.double_executed
            and self.run_status == "success"
        )


def run_fig4_recovery(
    crash_at="mid-execute", seed: int = 0, telemetry: bool = True
) -> Fig4RecoveryResult:
    """Crash Fig. 4 at one point, resume it, compare against the baseline.

    ``crash_at`` is a named point (see :data:`CRASH_POINT_NAMES`) or a
    raw 1-based journal record offset.
    """
    world_base, run_base, baseline_journal, _ = _execute(
        telemetry=telemetry, seed=seed
    )
    baseline_output = _render_outputs(world_base, run_base)
    return _recover_one(
        crash_at, baseline_journal, baseline_output,
        seed=seed, telemetry=telemetry,
    )


def _recover_one(
    crash_at,
    baseline_journal,
    baseline_output: str,
    seed: int,
    telemetry: bool,
) -> Fig4RecoveryResult:
    """Crash + resume for one point, given the baseline journal.

    An unknown point name or a record number outside the baseline
    journal raises :class:`CrashPointError` before the crash run starts.
    """
    points = crash_points_of(baseline_journal)
    if isinstance(crash_at, str) and not crash_at.isdigit():
        if crash_at not in points:
            raise CrashPointError(
                f"unknown crash point {crash_at!r}; "
                f"choices: {list(points)} or a record number"
            )
        label, crash_record = crash_at, points[crash_at]
    else:
        crash_record = int(crash_at)
        label = f"record-{crash_record}"
        if not 1 <= crash_record <= len(baseline_journal):
            raise CrashPointError(
                f"crash record {crash_record} is outside the baseline "
                f"journal (records 1..{len(baseline_journal)})"
            )

    _, _, crash_journal, crashed = _execute(
        crash_at=crash_record, telemetry=telemetry, seed=seed
    )
    if not crashed:
        raise RuntimeError(
            f"crash at record {crash_record} never fired "
            f"(journal has {len(crash_journal)} records)"
        )

    resumed_world, resumed_run, _, _ = _execute(
        resume_journal=crash_journal, telemetry=telemetry, seed=seed
    )
    resumed_output = _render_outputs(resumed_world, resumed_run)

    # the idempotency-key audit: no journaled-complete task re-executed
    completed = set(resumed_world.faas.replay_index.completed_success())
    double = sorted(completed & resumed_world.faas.executed_keys)

    return Fig4RecoveryResult(
        crash_label=label,
        crash_record=crash_record,
        journal_records=len(crash_journal),
        baseline_output=baseline_output,
        resumed_output=resumed_output,
        run_status=resumed_run.status if resumed_run else "missing",
        replayed_tasks=len(resumed_world.faas.replayed_keys),
        replayed_steps=len(
            resumed_world.events.query("actions", "step.replayed")
        ),
        double_executed=double,
        resumed_world=resumed_world,
    )


def run_fig4_recovery_sweep(
    seed: int = 0, telemetry: bool = True
) -> List[Fig4RecoveryResult]:
    """Crash + resume at every named point, sharing one baseline run."""
    world_base, run_base, baseline_journal, _ = _execute(
        telemetry=telemetry, seed=seed
    )
    baseline_output = _render_outputs(world_base, run_base)
    return [
        _recover_one(
            name, baseline_journal, baseline_output,
            seed=seed, telemetry=telemetry,
        )
        for name in CRASH_POINT_NAMES
    ]


def format_recovery_report(results: List[Fig4RecoveryResult]) -> str:
    """Deterministic plain-text report over one or more crash points."""
    lines = [
        "Fig. 4 crash/recovery — write-ahead journal + resume",
        f"crash points tested: {len(results)}",
        "",
    ]
    for r in results:
        verdict = "IDENTICAL" if r.identical else "DIVERGED"
        audit = (
            "clean" if not r.double_executed
            else f"{len(r.double_executed)} double-executed"
        )
        lines.append(
            f"  {r.crash_label:<14} crash@{r.crash_record:<4} "
            f"journal={r.journal_records:<4} status={r.run_status:<8} "
            f"replayed tasks={r.replayed_tasks} steps={r.replayed_steps}  "
            f"{verdict}  audit={audit}"
        )
    all_ok = all(r.ok for r in results)
    lines += [
        "",
        f"resumed outputs byte-identical to baseline: "
        f"{'yes' if all_ok else 'NO'}",
    ]
    return "\n".join(lines)
