"""Suite runner: materialized instances -> one CI workflow run.

The runner replays the exact world-operation order of the legacy
hard-coded apps — World construction, user registration, container
publication, per-site provisioning and MEP deployment, repository
creation, push — so that a suite file describing Fig. 4 produces a
byte-identical virtual-time trace (``tests/test_pinned_reports.py``
compares the rendered report with the pinned baseline).

Split into two phases so experiments can interpose between setup and
trigger (the recovery experiment attaches a journal and arms a crash
plan there):

* :func:`prepare_suite` — build the world, deploy endpoints, render the
  workflow; returns a :class:`PreparedSuite`.
* :func:`execute_suite` — create the repo, push, (optionally) approve
  gates, collect per-instance results; returns a :class:`SuiteRun`.

Imports of :mod:`repro.experiments.common` are deliberately lazy so
``import repro.suites`` never pulls in the experiments package (the
experiment modules import *us* at module level).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.suites.parsers import make_parser
from repro.suites.resolver import (
    Materialized,
    TestInstance,
    build_workflow_builder,
    materialize,
)
from repro.suites.spec import SuiteError, SuiteSpec, load_suite


@dataclass
class PreparedSuite:
    """A suite world, fully set up but not yet triggered."""

    spec: SuiteSpec
    mat: Materialized
    world: Any
    user: Any
    endpoints: Dict[str, str]  # site name -> endpoint id (pool member 0)
    builder: Any  # WorkflowBuilder, rendered at push time
    files: Dict[str, str]  # repo files (workflow file added at push)
    gated: bool = True


@dataclass
class InstanceResult:
    """One test instance's outcome after the run."""

    instance: TestInstance
    status: str  # "ok" | "failed" | "skipped"
    reason: str = ""
    stdout: str = ""
    stderr: str = ""
    parsed: Any = None

    @property
    def key(self) -> str:
        return self.instance.key


@dataclass
class SuiteRun:
    """A completed suite execution plus collected results."""

    spec: SuiteSpec
    mat: Materialized
    world: Any
    user: Any
    run: Any  # WorkflowRun (None when the coordinator crashed pre-run)
    endpoints: Dict[str, str]
    results: List[InstanceResult] = field(default_factory=list)
    makespan: float = 0.0
    crashed: bool = False

    @property
    def status(self) -> str:
        return self.run.status if self.run is not None else "crashed"

    @property
    def ok(self) -> bool:
        return all(r.status != "failed" for r in self.results)


def _suite_files(spec: SuiteSpec, files_kwargs: Optional[Dict] = None) -> Dict[str, str]:
    factory = spec.resolve_ref(spec.repo_files)
    files = factory(**(files_kwargs or {}))
    if not isinstance(files, dict):
        raise SuiteError(
            f"repo files factory {spec.repo_files!r} returned "
            f"{type(files).__name__}, expected dict"
        )
    return dict(files)


def prepare_suite(
    spec,
    overrides: Optional[Dict[str, Any]] = None,
    world_setup: Optional[Callable] = None,
    arm_faults: str = "none",  # "none" | "at-start" | "after-setup"
    pool_size: int = 1,
    fallbacks: Optional[Dict[str, str]] = None,
    name_override: str = "",
    gated: bool = True,
    files_kwargs: Optional[Dict] = None,
    **world: Any,
) -> PreparedSuite:
    """Set up the suite's world in the legacy apps' exact operation order.

    Order: World -> ``world_setup`` hook -> arm at-start faults ->
    register user -> publish containers -> per site (provision stack if
    declared, deploy a pool of ``pool_size`` MEPs) -> declare fallbacks ->
    arm after-setup faults -> render workflow. Fault times with
    ``after-setup`` mean "virtual seconds into the CI run", matching the
    chaos experiments. Every other keyword (``telemetry``, ``faults``,
    ``retry_policy``, ...) goes to :class:`~repro.world.World` as is.
    """
    from repro.experiments import common
    from repro.world import World

    spec = load_suite(spec)
    mat = materialize(spec, overrides)
    if arm_faults not in ("none", "at-start", "after-setup"):
        raise SuiteError(f"bad arm_faults {arm_faults!r}")

    world = World(**world)
    if world_setup is not None:
        world_setup(world)
    if world.fault_injector is not None and arm_faults == "at-start":
        world.arm_faults()

    sites = mat.sites()
    accounts = {site: spec.user_account for site in sites}
    user = world.register_user(spec.user_login, accounts)

    if spec.containers_image:
        image_factory = spec.resolve_ref(spec.containers_image)
        world.container_registry.push(image_factory())
    if spec.containers_commands:
        registrar = spec.resolve_ref(spec.containers_commands)
        registrar(world.services.image_commands)

    endpoints: Dict[str, str] = {}
    for site_name in sites:
        if spec.stack_packages:
            common.provision_user_site(
                world, user, site_name, accounts[site_name],
                conda_env=spec.stack_env, stack=spec.stack_packages,
            )
        site_conf = spec.sites.get(site_name)
        login_only = site_conf.login_only if site_conf else False
        walltime = site_conf.walltime if site_conf else 7200.0
        nodes = site_conf.nodes if site_conf else 1
        # a pool even of one, so ``route: pool`` jobs can name the site
        pool = common.deploy_site_mep_pool(
            world, site_name, pool_size,
            login_only=login_only, walltime=walltime, nodes=nodes,
        )
        endpoints[site_name] = pool[0].endpoint_id

    for from_site, to_site in (fallbacks or {}).items():
        if from_site in endpoints and to_site in endpoints:
            world.faas.declare_fallback(
                endpoints[from_site], endpoints[to_site]
            )

    if world.fault_injector is not None and arm_faults == "after-setup":
        world.arm_faults()

    builder = build_workflow_builder(
        mat, endpoints, name_override=name_override, gated=gated
    )
    files = _suite_files(spec, files_kwargs)
    return PreparedSuite(
        spec=spec, mat=mat, world=world, user=user,
        endpoints=endpoints, builder=builder, files=files, gated=gated,
    )


def _collect(prepared: PreparedSuite, run) -> List[InstanceResult]:
    """Per-instance results, in expansion order; skipped ones included."""
    from repro.errors import ReproError

    world = prepared.world
    results: List[InstanceResult] = []
    for instance in prepared.mat.instances:
        if instance.skipped:
            results.append(
                InstanceResult(
                    instance=instance, status="skipped",
                    reason=instance.skip_reason,
                )
            )
            continue
        job = run.jobs.get(instance.job_id)
        if job is None:  # a crashed coordinator may never start the job
            results.append(
                InstanceResult(
                    instance=instance, status="failed",
                    reason="job never started",
                )
            )
            continue
        stdout = stderr = ""
        # artifact reads never advance the clock, so collecting them for
        # failed jobs too (Fig. 5 keeps its outputs on failure) cannot
        # perturb determinism
        try:
            stdout = world.hub.artifacts.download(
                run.run_id, f"{instance.artifact_prefix}-stdout"
            ).content
        except ReproError:
            pass
        try:
            stderr = world.hub.artifacts.download(
                run.run_id, f"{instance.artifact_prefix}-stderr"
            ).content
        except ReproError:
            pass
        if job.status == "success":
            parser = make_parser(instance.parse)
            results.append(
                InstanceResult(
                    instance=instance, status="ok",
                    stdout=stdout, stderr=stderr,
                    parsed=parser.parse(stdout),
                )
            )
        else:
            errors = [
                o.error for o in job.step_outcomes if o.status == "failure"
            ]
            reason = errors[0] if errors else f"job ended {job.status}"
            parsed = None
            if stdout:
                try:
                    parsed = make_parser(instance.parse).parse(stdout)
                except ReproError:
                    parsed = None
            results.append(
                InstanceResult(
                    instance=instance, status="failed", reason=reason,
                    stdout=stdout, stderr=stderr, parsed=parsed,
                )
            )
    return results


def execute_suite(
    prepared: PreparedSuite,
    strict: bool = False,
    crash_ok: bool = False,
) -> SuiteRun:
    """Trigger the prepared suite's CI run and collect its results.

    Gated suites (any job carries an ``environment:``) create protected
    environments holding the FaaS credentials and approve every gate as
    the owner; ungated suites store the credentials as repo-level
    secrets, so the push alone starts execution. ``strict`` raises on a
    non-success run *before* collection, like the legacy Fig. 4 path;
    ``crash_ok`` absorbs a :class:`CoordinatorCrashed` push (the
    recovery experiment's crash-inject runs).
    """
    from repro.errors import CoordinatorCrashed
    from repro.experiments import common

    spec, mat, world, user = (
        prepared.spec, prepared.mat, prepared.world, prepared.user
    )
    world.provenance.set_suite_context(
        {
            instance.stdout_artifact: (
                instance.suite, instance.series, instance.permutation
            )
            for instance in mat.active
        }
    )
    workflow_text = prepared.builder.render()
    crashed = False
    environments = (
        {
            env_name: {
                "GLOBUS_ID": user.client_id,
                "GLOBUS_SECRET": user.client_secret,
            }
            for env_name in mat.environments()
        }
        if prepared.gated
        else {}
    )
    if prepared.gated and environments:
        started_at = world.clock.now
        common.create_repo_with_workflow(
            world,
            spec.repo_slug,
            owner=user,
            files=prepared.files,
            workflow_path=spec.workflow_path,
            workflow_text=workflow_text,
            environments=environments,
        )
        run = world.engine.runs[-1]
        common.approve_all(world, run, user.login)
    else:
        hosted = world.hub.create_repo(spec.repo_slug, owner=user.login)
        hosted.secrets.set("GLOBUS_ID", user.client_id, set_by=user.login)
        hosted.secrets.set(
            "GLOBUS_SECRET", user.client_secret, set_by=user.login
        )
        all_files = dict(prepared.files)
        all_files[spec.workflow_path] = workflow_text
        started_at = world.clock.now
        try:
            world.hub.push_commit(
                spec.repo_slug, author=user.login,
                message="Initial commit with CI", files=all_files,
            )
        except CoordinatorCrashed:
            if not crash_ok:
                raise
            crashed = True
        run = world.engine.runs[-1] if world.engine.runs else None

    makespan = world.clock.now - started_at
    if run is None:
        return SuiteRun(
            spec=spec, mat=mat, world=world, user=user, run=None,
            endpoints=prepared.endpoints, results=[],
            makespan=makespan, crashed=crashed,
        )
    if strict and run.status != "success":
        raise RuntimeError(
            f"suite {spec.name!r} run ended {run.status}; log:\n"
            + "\n".join(run.log)
        )
    results = _collect(prepared, run)
    return SuiteRun(
        spec=spec, mat=mat, world=world, user=user, run=run,
        endpoints=prepared.endpoints, results=results,
        makespan=makespan, crashed=crashed,
    )


def run_suite(
    spec,
    overrides: Optional[Dict[str, Any]] = None,
    strict: bool = False,
    crash_ok: bool = False,
    **prepare_kwargs,
) -> SuiteRun:
    """Prepare and execute a suite in one call (the common path)."""
    prepared = prepare_suite(spec, overrides=overrides, **prepare_kwargs)
    return execute_suite(prepared, strict=strict, crash_ok=crash_ok)


def format_suite_report(suite_run: SuiteRun) -> str:
    """Deterministic plain-text report of one engine-backed suite run."""
    spec = suite_run.spec
    counts = {"ok": 0, "failed": 0, "skipped": 0}
    for result in suite_run.results:
        counts[result.status] = counts.get(result.status, 0) + 1
    lines = [
        f"Suite {spec.name} — {spec.workflow_name}",
        f"run status: {suite_run.status}   "
        f"makespan: {suite_run.makespan:.2f}s",
        "",
    ]
    for result in suite_run.results:
        instance = result.instance
        detail = ""
        if result.status != "ok" and result.reason:
            detail = result.reason.splitlines()[0][:80]
        lines.append(
            f"  {instance.instance_id}  {instance.series}"
            f"[{instance.permutation}]"
            f"  {result.status:<7} {detail}".rstrip()
        )
    lines += [
        "",
        f"{counts['ok']} ok, {counts['failed']} failed, "
        f"{counts['skipped']} skipped",
    ]
    return "\n".join(lines)
