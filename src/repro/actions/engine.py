"""The workflow engine: triggering, approval gates, job/step execution."""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.actions.expressions import evaluate, interpolate
from repro.actions.runner import Runner, RunnerPool
from repro.actions.workflow import (
    StepDef,
    Workflow,
    WORKFLOW_DIR,
    parse_workflow,
)
from repro.auth.oauth import AuthService
from repro.errors import (
    ApprovalRequired,
    PermissionDenied,
    ReproError,
    WorkflowParseError,
)
from repro.faas.future import Future
from repro.faas.service import FaaSService
from repro.hub.models import HostedRepo
from repro.hub.secrets import resolve_secrets
from repro.hub.service import HubService
from repro.shellsim.session import ShellServices
from repro.telemetry import tracer_of
from repro.util.events import EventLog
from repro.util.ids import IdFactory


@dataclass
class EngineServices:
    """External services steps may use (CORRECT needs the FaaS + auth).

    ``provenance`` is an optional :class:`repro.provenance.ProvenanceStore`
    CORRECT writes execution records into.
    """

    faas: Optional[FaaSService] = None
    auth: Optional[AuthService] = None
    image_commands: Dict[str, Callable] = field(default_factory=dict)
    provenance: Optional[object] = None
    # a PermanentArchive for the archive-results builtin action (§7.4)
    archive: Optional[object] = None


@dataclass
class StepOutcome:
    """Result of one executed (or skipped) step."""

    status: str  # "success" | "failure" | "skipped"
    outputs: Dict[str, str] = field(default_factory=dict)
    log: str = ""
    error: str = ""


@dataclass
class StepContext:
    """Everything a marketplace action implementation receives."""

    engine: "Engine"
    run: "WorkflowRun"
    job_run: "JobRun"
    step: StepDef
    inputs: Dict[str, Any]
    env: Dict[str, str]
    secrets: Dict[str, str]
    runner: Runner
    services: EngineServices

    def shell_services(self) -> ShellServices:
        return ShellServices(
            hub=self.engine.hub,
            image_commands=dict(self.services.image_commands),
        )


@dataclass
class JobRun:
    """One job *instance*'s execution state within a run.

    A plain job has one instance whose ``job_id`` equals its definition
    id; a matrix job has one instance per combination, with the values in
    ``matrix`` and a ``job_id`` like ``test (site=faster)``.
    """

    job_id: str
    def_id: str = ""
    matrix: Dict[str, Any] = field(default_factory=dict)
    status: str = "queued"  # queued|waiting|running|success|failure|skipped
    approval_state: str = ""  # ""|pending|approved|rejected
    approved_by: str = ""
    resolved_environment: str = ""
    step_outcomes: List[StepOutcome] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.def_id:
            self.def_id = self.job_id

    @property
    def finished(self) -> bool:
        return self.status in ("success", "failure", "skipped")


class WorkflowRun:
    """One triggered execution of a workflow."""

    def __init__(
        self,
        run_id: str,
        workflow: Workflow,
        repo_slug: str,
        event: str,
        payload: Dict[str, Any],
        sha: str,
        branch: str,
        actor: str,
    ) -> None:
        self.run_id = run_id
        self.workflow = workflow
        self.repo_slug = repo_slug
        self.event = event
        self.payload = payload
        self.sha = sha
        self.branch = branch
        self.actor = actor
        self.jobs: Dict[str, JobRun] = {}
        for job_id, job_def in workflow.jobs.items():
            combinations = job_def.matrix_combinations()
            for combo in combinations:
                if combo:
                    label = ", ".join(f"{k}={v}" for k, v in sorted(combo.items()))
                    instance_id = f"{job_id} ({label})"
                else:
                    instance_id = job_id
                self.jobs[instance_id] = JobRun(
                    job_id=instance_id, def_id=job_id, matrix=dict(combo)
                )
        self.log: List[str] = []
        # telemetry root span for this run's trace (set by the engine)
        self.span = None

    @property
    def status(self) -> str:
        states = {j.status for j in self.jobs.values()}
        if "waiting" in states:
            return "waiting"
        if "queued" in states or "running" in states:
            return "in_progress"
        if "failure" in states:
            return "failure"
        return "success"

    def append_log(self, line: str) -> None:
        self.log.append(line)

    def job(self, job_id: str) -> JobRun:
        return self.jobs[job_id]

    def pending_approvals(self) -> List[str]:
        return [
            j.job_id
            for j in self.jobs.values()
            if j.approval_state == "pending"
        ]


class Engine:
    """Drives workflows for a hub instance."""

    def __init__(
        self,
        hub: HubService,
        runner_pool: RunnerPool,
        services: Optional[EngineServices] = None,
        events: Optional[EventLog] = None,
        concurrent_jobs: bool = False,
    ) -> None:
        self.hub = hub
        self.pool = runner_pool
        self.services = services or EngineServices()
        self.events = events if events is not None else hub.events
        self.concurrent_jobs = concurrent_jobs
        self.runs: List[WorkflowRun] = []
        self._run_ids = IdFactory("run")
        # recovery: (run_id, job_id, step index) -> journaled outcome of a
        # finished plain `run:` step, loaded by resume_run; None = no resume
        self._step_ledger: Optional[Dict[tuple, Dict[str, Any]]] = None
        self._register_builtin_actions()
        hub.subscribe(self.handle_event)

    @property
    def clock(self):
        return self.hub.clock

    # -- builtin marketplace actions -----------------------------------------
    def _register_builtin_actions(self) -> None:
        from repro.actions import builtin_actions

        for reference, impl in builtin_actions.BUILTIN_ACTIONS.items():
            if reference not in self.hub.marketplace.listings():
                self.hub.marketplace.publish(reference, impl)

    # -- triggering ---------------------------------------------------------------
    def handle_event(self, event: str, payload: Dict[str, Any]) -> List[WorkflowRun]:
        """Webhook entry point: match workflows and execute runs."""
        runs: List[WorkflowRun] = []
        slugs = [payload["slug"]] if "slug" in payload else self.hub.repos()
        for slug in slugs:
            hosted = self.hub.repo(slug)
            if hosted.repository.is_empty():
                continue
            branch = payload.get("branch", hosted.repository.default_branch)
            try:
                sha = payload.get("sha") or hosted.repository.head(branch)
            except ReproError:
                continue
            for workflow in self._load_workflows(hosted, sha):
                if workflow.matches(event, payload):
                    run = self._create_run(
                        hosted, workflow, event, payload, sha, branch
                    )
                    runs.append(run)
                    self.process(run)
        return runs

    def _load_workflows(self, hosted: HostedRepo, ref: str) -> List[Workflow]:
        try:
            files = hosted.repository.files_at(ref)
        except ReproError:
            return []
        workflows: List[Workflow] = []
        for path, content in sorted(files.items()):
            if not path.startswith(WORKFLOW_DIR + "/"):
                continue
            if not path.endswith((".yml", ".yaml")):
                continue
            try:
                workflows.append(parse_workflow(content, path=path))
            except WorkflowParseError as exc:
                self.events.emit(
                    self.clock.now, "actions", "workflow.parse_error",
                    slug=hosted.slug, path=path, error=str(exc),
                )
        return workflows

    def _create_run(
        self,
        hosted: HostedRepo,
        workflow: Workflow,
        event: str,
        payload: Dict[str, Any],
        sha: str,
        branch: str,
    ) -> WorkflowRun:
        run = WorkflowRun(
            run_id=self._run_ids.next_id(),
            workflow=workflow,
            repo_slug=hosted.slug,
            event=event,
            payload=payload,
            sha=sha,
            branch=branch,
            actor=str(payload.get("actor") or payload.get("pusher") or ""),
        )
        self.runs.append(run)
        # each run roots its own trace; everything it causes — jobs,
        # steps, remote tasks, pilot batch jobs — hangs off this span
        run.span = tracer_of(self.clock).start_span(
            f"run:{workflow.name}", parent=None, kind="workflow",
            run_id=run.run_id, repo=hosted.slug, event=event, sha=sha,
        )
        self.events.emit(
            self.clock.now, "actions", "run.created",
            run_id=run.run_id, slug=hosted.slug,
            workflow=workflow.name, event=event,
        )
        return run

    def _seal_run_span(self, run: WorkflowRun) -> None:
        """Close the run's root span once its status is terminal."""
        span = run.span
        if span is None or not getattr(span, "is_open", False):
            return
        status = run.status
        if status in ("success", "failure"):
            tracer_of(self.clock).end_span(
                span, status="ok" if status == "success" else "error",
            )
            span.attributes["run_status"] = status

    # -- approvals ------------------------------------------------------------------
    def approve(self, run: WorkflowRun, job_id: str, reviewer: str) -> None:
        """Approve a waiting job instance; resumes the run.

        Only a user listed in the environment's required reviewers may
        approve — the identity-vouching core of §5.2.
        """
        job_run = run.job(job_id)
        if job_run.approval_state != "pending":
            raise ApprovalRequired(f"job {job_id} is not awaiting approval")
        hosted = self.hub.repo(run.repo_slug)
        env = hosted.environment(job_run.resolved_environment)
        if not env.protection.can_review(reviewer):
            raise PermissionDenied(
                f"{reviewer} is not a required reviewer for "
                f"environment {env.name!r}"
            )
        job_run.approval_state = "approved"
        job_run.approved_by = reviewer
        self.events.emit(
            self.clock.now, "actions", "job.approved",
            run_id=run.run_id, job=job_id, reviewer=reviewer,
        )
        if env.protection.wait_timer > 0:
            self.clock.advance(env.protection.wait_timer)
        self.process(run)

    def reject(self, run: WorkflowRun, job_id: str, reviewer: str) -> None:
        job_run = run.job(job_id)
        if job_run.approval_state != "pending":
            raise ApprovalRequired(f"job {job_id} is not awaiting approval")
        hosted = self.hub.repo(run.repo_slug)
        env = hosted.environment(job_run.resolved_environment)
        if not env.protection.can_review(reviewer):
            raise PermissionDenied(
                f"{reviewer} is not a required reviewer for "
                f"environment {env.name!r}"
            )
        job_run.approval_state = "rejected"
        job_run.status = "failure"
        run.append_log(f"[{job_id}] deployment rejected by {reviewer}")
        self.events.emit(
            self.clock.now, "actions", "job.rejected",
            run_id=run.run_id, job=job_id, reviewer=reviewer,
        )
        self._seal_run_span(run)

    # -- execution ---------------------------------------------------------------
    def _instances(self, run: WorkflowRun, def_id: str) -> List[JobRun]:
        return [jr for jr in run.jobs.values() if jr.def_id == def_id]

    def process(self, run: WorkflowRun) -> WorkflowRun:
        """Execute runnable job instances in order; stop at approval gates.

        Each pass collects a *wave*: the runnable instances, scanning
        jobs in dependency order and stopping at the first unfinished
        dependency or approval gate. With ``concurrent_jobs`` the wave's
        instances share one wait and interleave step by step in virtual
        time; otherwise each runs to completion as a one-job wave, in
        order.
        """
        hosted = self.hub.repo(run.repo_slug)
        while True:
            wave: List[tuple] = []
            gated = False
            for def_id in run.workflow.job_order():
                job_def = run.workflow.jobs[def_id]
                dep_instances = [
                    jr
                    for dep in job_def.needs
                    for jr in self._instances(run, dep)
                ]
                failed_dep = any(
                    jr.status in ("failure", "skipped") for jr in dep_instances
                )
                unfinished_dep = any(not jr.finished for jr in dep_instances)
                if failed_dep:
                    for job_run in self._instances(run, def_id):
                        if not job_run.finished:
                            job_run.status = "skipped"
                            run.append_log(
                                f"[{job_run.job_id}] skipped (dependency failed)"
                            )
                    continue
                if unfinished_dep:
                    break  # an earlier gate or this pass's wave is blocking
                for job_run in self._instances(run, def_id):
                    if job_run.finished:
                        continue
                    # environment protection (name may reference matrix values)
                    if job_def.environment:
                        env_name = job_def.environment
                        if "${{" in env_name:
                            env_name = str(
                                interpolate(
                                    env_name,
                                    {
                                        "matrix": job_run.matrix,
                                        "github": {"ref_name": run.branch},
                                    },
                                )
                            )
                        job_run.resolved_environment = env_name
                        env = hosted.environment(env_name)
                        if not env.protection.branch_allowed(run.branch):
                            job_run.status = "failure"
                            run.append_log(
                                f"[{job_run.job_id}] branch {run.branch!r} not "
                                f"allowed for environment {env.name!r}"
                            )
                            continue
                        if (
                            env.protection.needs_approval
                            and job_run.approval_state != "approved"
                        ):
                            if wave:
                                # run the jobs ahead of the gate first;
                                # the rescan re-encounters the gate alone
                                gated = True
                                break
                            if job_run.approval_state != "pending":
                                job_run.approval_state = "pending"
                                job_run.status = "waiting"
                                self.events.emit(
                                    self.clock.now, "actions",
                                    "job.waiting_approval",
                                    run_id=run.run_id, job=job_run.job_id,
                                    reviewers=list(
                                        env.protection.required_reviewers
                                    ),
                                )
                            return run
                    wave.append((job_run, job_def))
                if gated:
                    break
            if not wave:
                self._seal_run_span(run)
                return run
            if self.concurrent_jobs:
                self._execute_wave(run, wave, hosted)
            else:
                for job in wave:
                    self._execute_wave(run, [job], hosted)

    def _job_stepper(self, run, job_run, job_def, hosted):
        """Generator executing one job instance's steps in order.

        Yields a :class:`Future` for every step whose implementation
        supports deferred execution, and expects the resolved
        :class:`StepOutcome` to be sent back. All bookkeeping — outputs,
        logs, and the §5.3 failure-propagation contract (a failed step
        fails the job but ``if: always()`` steps still run) — lives here,
        identically for sequential and concurrent execution.
        """
        job_run.status = "running"
        runner = self.pool.acquire(job_def.runs_on)
        secrets = resolve_secrets(
            hosted.secret_scopes(job_run.resolved_environment or None)
        )
        run.append_log(
            f"[{job_run.job_id}] started on runner {runner.runner_id}"
        )
        tracer = tracer_of(self.clock)
        job_span = tracer.start_span(
            f"job:{job_run.job_id}",
            parent=run.span.context if run.span is not None else None,
            kind="job", run_id=run.run_id, job=job_run.job_id,
            runner=runner.runner_id,
        )
        job_failed = False
        step_results: Dict[str, Dict[str, Any]] = {}
        for index, step in enumerate(job_def.steps):
            label = step.name or step.id or step.uses or step.run.split("\n")[0]
            self.events.emit(
                self.clock.now, "actions", "step.started",
                run_id=run.run_id, job=job_run.job_id,
                index=index, label=label,
            )
            step_span = tracer.start_span(
                f"step:{label}", parent=job_span.context, kind="step",
                run_id=run.run_id, job=job_run.job_id,
            )
            replayed = self._journaled_step(run, job_run, step, index)
            if replayed is not None:
                # journaled-complete step: the recorded outcome resolves
                # at the journaled finish time; the span still opens and
                # closes so trace shape and id sequences are unchanged
                outcome = yield replayed
            else:
                # activate while the step body runs: any task it submits —
                # synchronously or through the CORRECT future chain —
                # inherits this step as its trace parent
                with tracer.activate(step_span.context):
                    outcome = self._execute_step(
                        run, job_run, job_def, step, runner, secrets,
                        step_results, job_failed,
                    )
                if isinstance(outcome, Future):
                    outcome = yield outcome
            tracer.end_span(
                step_span,
                status="error" if outcome.status == "failure" else "ok",
                error=outcome.error,
            )
            step_span.attributes["step_status"] = outcome.status
            self.events.emit(
                self.clock.now, "actions", "step.finished",
                run_id=run.run_id, job=job_run.job_id,
                index=index, label=label, status=outcome.status,
                outputs=dict(outcome.outputs), log=outcome.log,
                error=outcome.error,
                step_kind="run" if step.run else "uses",
            )
            job_run.step_outcomes.append(outcome)
            if step.id:
                step_results[step.id] = {
                    "outputs": outcome.outputs,
                    "outcome": outcome.status,
                    "conclusion": outcome.status,
                }
            run.append_log(f"[{job_run.job_id}] step {label!r}: {outcome.status}")
            if outcome.log:
                run.append_log(outcome.log)
            if outcome.error:
                run.append_log(f"Error: {outcome.error}")
            if outcome.status == "failure" and not step.continue_on_error:
                job_failed = True
        job_run.status = "failure" if job_failed else "success"
        tracer.end_span(
            job_span, status="error" if job_failed else "ok",
        )
        self.events.emit(
            self.clock.now, "actions", "job.finished",
            run_id=run.run_id, job=job_run.job_id, status=job_run.status,
        )

    # -- durability ----------------------------------------------------------
    def resume_run(self, records: Iterable[Any]) -> Dict[str, int]:
        """Load finished plain ``run:`` steps from verified journal records
        (a :class:`~repro.durability.recovery.ReplayIndex`'s ``records``)
        so re-execution skips their bodies.

        Only ``run:`` steps are replayed: ``uses:`` steps (notably CORRECT)
        must re-execute live so their task submissions flow through the FaaS
        replay layer, keeping task/span id allocation sequences identical to
        the uninterrupted run.
        """
        ledger: Dict[tuple, Dict[str, Any]] = {}
        for record in records:
            if record.kind != "step.finished":
                continue
            data = record.data
            if data.get("step_kind") != "run":
                continue
            ledger[(data["run_id"], data["job"], data["index"])] = {
                "status": data["status"],
                "outputs": dict(data.get("outputs", {})),
                "log": data.get("log", ""),
                "error": data.get("error", ""),
                "finished_at": record.time,
            }
        self._step_ledger = ledger
        return {"steps": len(ledger)}

    def _journaled_step(self, run, job_run, step, index) -> Optional[Future]:
        """A future resolving to the journaled outcome of this step, or None
        if the step must execute live (no resume, or not journaled-complete).
        """
        if self._step_ledger is None or not step.run:
            return None
        entry = self._step_ledger.get((run.run_id, job_run.job_id, index))
        if entry is None:
            return None
        outcome = StepOutcome(
            status=entry["status"],
            outputs=dict(entry["outputs"]),
            log=entry["log"],
            error=entry["error"],
        )
        self.events.emit(
            self.clock.now, "actions", "step.replayed",
            run_id=run.run_id, job=job_run.job_id, index=index,
        )
        future: Future = Future(self.clock)
        # resolve no earlier than the journaled finish time, so wave
        # interleaving and downstream timestamps match the original run
        self.clock.call_at(
            max(self.clock.now, entry["finished_at"]),
            lambda: future.set_result(outcome),
        )
        return future

    def _step_outcome_of(self, future: Future) -> StepOutcome:
        """Resolve a step future, mapping exceptions like _execute_step."""
        try:
            return future.result()
        except ReproError as exc:
            return StepOutcome(
                status="failure", error=f"{type(exc).__name__}: {exc}"
            )
        except Exception:  # noqa: BLE001 - step isolation
            return StepOutcome(status="failure", error=traceback.format_exc())

    def _execute_wave(self, run, wave, hosted) -> None:
        """Run job instances to completion, interleaving their steps in
        virtual time; a one-job wave is a sequential job.

        Each stepper advances until it yields a step future. One
        :meth:`SimClock.wait_until` blocks until any live future resolves,
        and every stepper whose future has resolved resumes, in wave
        order. Pilot queue waits and remote task bodies on different
        endpoints therefore occupy overlapping virtual intervals — the
        run's makespan approaches the slowest job rather than the sum.
        When no event is left to resolve any pending step, the first
        stalled job's step fails through :meth:`_step_outcome_of` exactly
        as a sequential job's does, and its remaining steps run under §5.3.
        """
        live: List[Dict[str, Any]] = []
        for job_run, job_def in wave:
            stepper = self._job_stepper(run, job_run, job_def, hosted)
            try:
                live.append({"stepper": stepper, "future": next(stepper)})
            except StopIteration:
                pass  # all-sync job finished during spin-up
        while live:
            # every live step pending and no event left: the first job's
            # step fails as a deadlock, and its job goes on under §5.3
            stalled = not self.clock.wait_until(
                lambda: any(state["future"].done() for state in live)
            )
            for state in list(live):
                while stalled or state["future"].done():
                    stalled = False
                    outcome = self._step_outcome_of(state["future"])
                    try:
                        state["future"] = state["stepper"].send(outcome)
                    except StopIteration:
                        live.remove(state)
                        break

    def _expression_context(
        self,
        run: WorkflowRun,
        job_def,
        step_env: Dict[str, str],
        secrets: Dict[str, str],
        step_results: Dict[str, Dict[str, Any]],
        job_failed: bool,
        matrix: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        return {
            "matrix": dict(matrix or {}),
            "github": {
                "repository": run.repo_slug,
                "sha": run.sha,
                "ref_name": run.branch,
                "event_name": run.event,
                "actor": run.actor,
                "run_id": run.run_id,
            },
            "env": step_env,
            "secrets": secrets,
            "steps": step_results,
            "inputs": dict(run.payload.get("inputs", {})),
            "job": {"status": "failure" if job_failed else "success"},
            "__functions__": {
                "always": lambda: True,
                "success": lambda: not job_failed,
                "failure": lambda: job_failed,
                "cancelled": lambda: False,
            },
        }

    def _execute_step(
        self,
        run: WorkflowRun,
        job_run: JobRun,
        job_def,
        step: StepDef,
        runner: Runner,
        secrets: Dict[str, str],
        step_results: Dict[str, Dict[str, Any]],
        job_failed: bool,
    ) -> StepOutcome:
        env = dict(job_def.env)
        env.update(step.env)
        context = self._expression_context(
            run, job_def, env, secrets, step_results, job_failed,
            matrix=job_run.matrix,
        )
        try:
            env = {k: str(interpolate(v, context)) for k, v in env.items()}
            context["env"] = env
            # `if:` accepts both bare expressions and ${{ }}-wrapped ones
            condition = step.if_ or "success()"
            if "${{" in condition:
                condition_value = interpolate(condition, context)
            else:
                condition_value = evaluate(condition, context)
            if not _truthy(condition_value):
                return StepOutcome(status="skipped")
            if step.run:
                command = str(interpolate(step.run, context))
                services = ShellServices(
                    hub=self.hub,
                    image_commands=dict(self.services.image_commands),
                )
                session = runner.shell(services=services, env=env)
                result = session.run(command)
                return StepOutcome(
                    status="success" if result.ok else "failure",
                    outputs={
                        "stdout": result.stdout,
                        "exit_code": str(result.exit_code),
                    },
                    log=result.combined_output(),
                    error="" if result.ok else (
                        result.stderr or f"exit code {result.exit_code}"
                    ),
                )
            # marketplace action
            impl = self.hub.marketplace.resolve(step.uses)
            inputs = interpolate(dict(step.with_), context)
            step_context = StepContext(
                engine=self,
                run=run,
                job_run=job_run,
                step=step,
                inputs=inputs,
                env=env,
                secrets=secrets,
                runner=runner,
                services=self.services,
            )
            if hasattr(impl, "run_async"):
                # deferred: the stepper awaits the returned future
                return impl.run_async(step_context)
            return impl.run(step_context)
        except ReproError as exc:
            return StepOutcome(status="failure", error=f"{type(exc).__name__}: {exc}")
        except Exception:  # noqa: BLE001 - step isolation
            return StepOutcome(status="failure", error=traceback.format_exc())


def _truthy(value: Any) -> bool:
    return bool(value) and value != ""
