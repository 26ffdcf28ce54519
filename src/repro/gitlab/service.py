"""The GitLab-like service: projects, variables, triggers, pipelines."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.actions.runner import RunnerPool
from repro.errors import (
    HubError,
    PermissionDenied,
    ReproError,
)
from repro.gitlab.models import (
    CIVariable,
    GitLabJobDef,
    PIPELINE_FILENAME,
    parse_pipeline,
)
from repro.shellsim.session import ShellServices
from repro.util.clock import SimClock
from repro.util.events import EventLog
from repro.util.ids import IdFactory, deterministic_uuid
from repro.vcs.repository import Repository


@dataclass
class TriggerToken:
    """A pipeline trigger token usable in REST calls (§4.2)."""

    token: str
    description: str = ""
    revoked: bool = False


@dataclass
class JobResult:
    name: str
    status: str  # "success" | "failed" | "skipped"
    log: str = ""
    allow_failure: bool = False


class PipelineRun:
    """One executed pipeline."""

    def __init__(self, run_id: str, project: str, branch: str, source: str) -> None:
        self.run_id = run_id
        self.project = project
        self.branch = branch
        self.source = source  # "push" | "trigger" | "schedule" | "web"
        self.jobs: List[JobResult] = []

    @property
    def status(self) -> str:
        if any(j.status == "failed" and not j.allow_failure for j in self.jobs):
            return "failed"
        return "success" if self.jobs else "skipped"


class Project:
    """A GitLab project: repository + CI configuration."""

    def __init__(self, path: str, owner: str, default_branch: str = "main") -> None:
        self.path = path
        self.owner = owner
        self.repository = Repository(path, default_branch=default_branch)
        self.variables: Dict[str, CIVariable] = {}
        self.protected_branches: List[str] = [default_branch]
        self.trigger_tokens: Dict[str, TriggerToken] = {}
        self.schedules: List[str] = []  # branches with scheduled pipelines
        self.members: List[str] = [owner]

    def set_variable(
        self, key: str, value: str, masked: bool = False, protected: bool = False
    ) -> None:
        self.variables[key] = CIVariable(key, value, masked, protected)

    def visible_variables(self, branch: str) -> Dict[str, str]:
        """Variables a pipeline on ``branch`` receives — protected ones
        only on protected branches (§4.2)."""
        out: Dict[str, str] = {}
        for var in self.variables.values():
            if var.protected and branch not in self.protected_branches:
                continue
            out[var.key] = var.value
        return out


class GitLabService:
    """A self-hostable GitLab instance: projects, components, pipelines.

    Components are GitLab's marketplace-equivalent (§4.2): objects with a
    ``run(job_context) -> JobResult``-style callable registered in the
    CI/CD catalog.
    """

    def __init__(
        self,
        clock: SimClock,
        runner_pool: RunnerPool,
        shell_services: Optional[ShellServices] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self.clock = clock
        self.pool = runner_pool
        self.shell_services = shell_services or ShellServices()
        self.events = events if events is not None else EventLog()
        self.projects: Dict[str, Project] = {}
        self.components: Dict[str, object] = {}
        self.pipelines: List[PipelineRun] = []
        self._run_ids = IdFactory("pipeline")
        self._token_ids = IdFactory("glptt")

    # -- projects ----------------------------------------------------------------
    def create_project(self, path: str, owner: str) -> Project:
        if path in self.projects:
            raise HubError(f"project {path!r} already exists")
        project = Project(path, owner)
        self.projects[path] = project
        return project

    def project(self, path: str) -> Project:
        try:
            return self.projects[path]
        except KeyError:
            raise HubError(f"no project {path!r}") from None

    def repo(self, slug: str) -> Project:
        """Hub-compatible lookup so ``git clone`` (and CORRECT's remote
        clone function) can target GitLab-hosted projects too."""
        return self.project(slug)

    def commit(
        self,
        path: str,
        author: str,
        message: str,
        files: Optional[Dict[str, str]] = None,
        patch: Optional[Dict[str, Optional[str]]] = None,
        branch: Optional[str] = None,
    ) -> str:
        """Commit and run the push-triggered pipeline, like a git push."""
        project = self.project(path)
        if author not in project.members:
            raise PermissionDenied(f"{author} is not a member of {path}")
        branch = branch or project.repository.default_branch
        sha = project.repository.commit(
            files=files, patch=patch, message=message,
            author=author, branch=branch, timestamp=self.clock.now,
        )
        self.run_pipeline(path, branch=branch, source="push")
        return sha

    # -- components --------------------------------------------------------------
    def register_component(self, name: str, implementation: object) -> None:
        if not hasattr(implementation, "run"):
            raise TypeError("component must define run(job_context)")
        self.components[name] = implementation

    # -- triggers ---------------------------------------------------------------
    def create_trigger_token(self, path: str, description: str = "") -> TriggerToken:
        project = self.project(path)
        token = TriggerToken(
            token=deterministic_uuid("glptt", path, self._token_ids.next_id()),
            description=description,
        )
        project.trigger_tokens[token.token] = token
        return token

    def trigger_via_api(self, path: str, token: str, branch: str = "") -> PipelineRun:
        """REST-style trigger: POST /projects/:id/trigger/pipeline."""
        project = self.project(path)
        registered = project.trigger_tokens.get(token)
        if registered is None or registered.revoked:
            raise PermissionDenied("invalid or revoked trigger token")
        return self.run_pipeline(
            path, branch=branch or project.repository.default_branch,
            source="trigger",
        )

    def schedule_pipeline(self, path: str, branch: str = "") -> None:
        project = self.project(path)
        project.schedules.append(branch or project.repository.default_branch)

    def scheduled_tick(self) -> List[PipelineRun]:
        return [
            self.run_pipeline(path, branch, source="schedule")
            for path, project in self.projects.items()
            for branch in project.schedules
        ]

    # -- execution ---------------------------------------------------------------
    def run_pipeline(self, path: str, branch: str, source: str) -> PipelineRun:
        project = self.project(path)
        run = PipelineRun(self._run_ids.next_id(), path, branch, source)
        self.pipelines.append(run)
        try:
            text = project.repository.read_file(branch, PIPELINE_FILENAME)
            pipeline = parse_pipeline(text)
        except ReproError as exc:
            run.jobs.append(
                JobResult(name="(config)", status="failed", log=str(exc))
            )
            return run
        variables = project.visible_variables(branch)
        stage_failed: Dict[str, bool] = {}
        for job in pipeline.jobs_in_order():
            earlier = [
                s for s in pipeline.stages
                if pipeline.stages.index(s) < pipeline.stages.index(job.stage)
            ]
            if any(stage_failed.get(s) for s in earlier):
                run.jobs.append(JobResult(job.name, "skipped"))
                continue
            if job.only_protected and branch not in project.protected_branches:
                run.jobs.append(
                    JobResult(job.name, "skipped",
                              log="rule: protected branches only")
                )
                continue
            result = self._run_job(project, run, job, variables)
            run.jobs.append(result)
            if result.status == "failed" and not job.allow_failure:
                stage_failed[job.stage] = True
        self.events.emit(
            self.clock.now, "gitlab", "pipeline.finished",
            run_id=run.run_id, project=path, status=run.status,
        )
        return run

    def _run_job(
        self,
        project: Project,
        run: PipelineRun,
        job: GitLabJobDef,
        variables: Dict[str, str],
    ) -> JobResult:
        merged = dict(variables)
        merged.update(job.variables)
        if job.component:
            impl = self.components.get(job.component)
            if impl is None:
                return JobResult(
                    job.name, "failed",
                    log=f"component {job.component!r} not in the catalog",
                    allow_failure=job.allow_failure,
                )
            context = GitLabJobContext(
                service=self, project=project, run=run, job=job,
                variables=merged,
            )
            try:
                return impl.run(context)
            except ReproError as exc:
                return JobResult(
                    job.name, "failed", log=f"{type(exc).__name__}: {exc}",
                    allow_failure=job.allow_failure,
                )
        # script job: runs on a hosted runner VM
        runner = self.pool.acquire("ubuntu-latest")
        session = runner.shell(services=self.shell_services, env=merged)
        logs: List[str] = []
        for line in job.script:
            result = session.run(self._expand(line, merged))
            logs.append(f"$ {line}")
            if result.stdout:
                logs.append(self._mask(result.stdout, project))
            if not result.ok:
                logs.append(result.stderr)
                return JobResult(
                    job.name, "failed", log="\n".join(logs),
                    allow_failure=job.allow_failure,
                )
        return JobResult(
            job.name, "success", log="\n".join(logs),
            allow_failure=job.allow_failure,
        )

    @staticmethod
    def _expand(line: str, variables: Dict[str, str]) -> str:
        for key, value in variables.items():
            line = line.replace(f"${{{key}}}", value).replace(f"${key}", value)
        return line

    @staticmethod
    def _mask(text: str, project: Project) -> str:
        for var in project.variables.values():
            if var.masked and var.value:
                text = text.replace(var.value, "[MASKED]")
        return text


@dataclass
class GitLabJobContext:
    """What a component receives when its job runs."""

    service: GitLabService
    project: Project
    run: PipelineRun
    job: GitLabJobDef
    variables: Dict[str, str]
