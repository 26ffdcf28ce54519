"""Ablations of the design choices DESIGN.md calls out.

* :func:`overhead_ablation` — §7.3: pilot-job reuse vs per-task batch
  allocations, quantifying the amortization CORRECT inherits from the
  FaaS substrate.
* :func:`security_ablation` — §5.2: each security mechanism exercised in
  both the blocked and allowed direction.
* :func:`cron_vs_correct` — §6.2: PSI/J's cron CI baseline vs CORRECT on
  result freshness and review gating.
* :func:`retention_ablation` — §7.4: the 90-day artifact window vs
  committing outputs to the repository.
* :func:`cloud_overhead_sweep` — §7.3: task round-trip latency as a
  function of the cloud-service overhead, isolating the fixed FaaS cost
  from site-side execution time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.apps.psij import suite as psij_suite
from repro.apps.psij.cron import BranchPolicy, CronCI
from repro.apps.psij.dashboard import Dashboard
from repro.core.security import correct_function_ids
from repro.errors import (
    ArtifactExpired,
    FunctionNotAllowed,
    IdentityMappingError,
    PermissionDenied,
    TaskFailed,
    TokenExpired,
)
from repro.executor.pilot import PilotExecutor
from repro.executor.providers import SlurmProvider
from repro.experiments import common
from repro.faas.client import ComputeClient
from repro.faas.endpoint import EndpointTemplate
from repro.world import World


# ---------------------------------------------------------------------------
# §7.3 overhead
# ---------------------------------------------------------------------------


@dataclass
class OverheadResult:
    pilot_latencies: List[float]
    per_task_latencies: List[float]

    @property
    def amortization_factor(self) -> float:
        """How much cheaper the pilot's steady-state tasks are."""
        steady = self.pilot_latencies[1:] or self.pilot_latencies
        steady_mean = sum(steady) / len(steady)
        per_task_mean = sum(self.per_task_latencies) / len(
            self.per_task_latencies
        )
        return per_task_mean / steady_mean if steady_mean > 0 else float("inf")


def overhead_ablation(n_tasks: int = 6) -> OverheadResult:
    """Run the same stream of 5 s tasks on FASTER, on a reused pilot and
    on per-task blocks."""
    world = World()
    world.register_user("ops", {"faster": "x-ops"})
    site = world.site("faster")
    partition = site.scheduler.default_partition.name

    def run_task(executor: PilotExecutor) -> float:
        start = world.clock.now
        executor.submit(lambda handle: handle.compute(5.0))
        return world.clock.now - start

    # (a) one pilot, N tasks
    pilot = PilotExecutor(
        SlurmProvider(site, "x-ops", partition=partition, walltime=7200.0)
    )
    pilot_latencies = [run_task(pilot) for _ in range(n_tasks)]
    pilot.shutdown()

    # (b) a fresh allocation per task
    per_task_latencies: List[float] = []
    for _ in range(n_tasks):
        executor = PilotExecutor(
            SlurmProvider(site, "x-ops", partition=partition, walltime=7200.0)
        )
        per_task_latencies.append(run_task(executor))
        executor.shutdown()
    return OverheadResult(pilot_latencies, per_task_latencies)


@dataclass
class CloudOverheadResult:
    """Round-trip latency per cloud-overhead setting (§7.3)."""

    latencies: Dict[float, float]  # overhead seconds -> round-trip seconds

    @property
    def marginal_cost(self) -> float:
        """Seconds of round-trip added per second of cloud overhead."""
        settings = sorted(self.latencies)
        lo, hi = settings[0], settings[-1]
        if hi == lo:
            return 0.0
        return (self.latencies[hi] - self.latencies[lo]) / (hi - lo)


def cloud_overhead_sweep() -> CloudOverheadResult:
    """Measure task round-trip time under different FaaS overheads.

    Rebuilds the world's cloud with each ``cloud_overhead_seconds``
    setting from 0 to 3.2 s and times a trivial task on Chameleon, an
    unscheduled site, so the measured latency isolates the dispatch
    path: cloud overhead plus two network traversals plus (constant)
    execution.
    """
    from repro.faas.service import FaaSService

    latencies: Dict[float, float] = {}
    for overhead in (0.0, 0.4, 0.8, 1.6, 3.2):
        world = World()
        world.faas = FaaSService(
            world.clock,
            world.auth,
            events=world.events,
            cloud_overhead_seconds=overhead,
        )
        world.services.faas = world.faas
        user = world.register_user("ops", {"chameleon": "x-ops"})
        mep = common.deploy_site_mep(world, "chameleon")
        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        fid = client.register_function(lambda fctx: 0, name="noop")
        start = world.clock.now
        task_id = client.run(mep.endpoint_id, fid)
        client.get_result(task_id)
        latencies[overhead] = world.clock.now - start
    return CloudOverheadResult(latencies)


# ---------------------------------------------------------------------------
# §5.2 security
# ---------------------------------------------------------------------------


def security_ablation() -> Dict[str, bool]:
    """Exercise each mechanism both ways; True = behaved as designed."""
    results: Dict[str, bool] = {}
    world = World()
    owner = world.register_user("owner", {"faster": "x-owner"})
    intruder = world.register_user("intruder", {})

    # --- reviewer gate ---------------------------------------------------
    from repro.core.security import sole_reviewer_rules
    from repro.core.workflow_builder import WorkflowBuilder

    mep = common.deploy_site_mep(world, "faster", login_only=True)
    step = WorkflowBuilder.correct_step(
        name="gated", shell_cmd="hostname", clone="false"
    )
    builder = WorkflowBuilder("gated").on_push()
    builder.add_job(
        "remote", steps=[step], environment="hpc",
        env={"ENDPOINT_UUID": mep.endpoint_id},
    )
    common.create_repo_with_workflow(
        world, "owner/gated-repo", owner=owner, files={"README.md": "x\n"},
        workflow_path=".github/workflows/ci.yml",
        workflow_text=builder.render(),
        environments={
            "hpc": {
                "GLOBUS_ID": owner.client_id,
                "GLOBUS_SECRET": owner.client_secret,
            }
        },
    )
    run = world.engine.runs[-1]
    results["gate_blocks_until_approval"] = run.status == "waiting"
    try:
        world.engine.approve(run, "remote", "intruder")
        results["gate_rejects_non_reviewer"] = False
    except PermissionDenied:
        results["gate_rejects_non_reviewer"] = True
    world.engine.approve(run, "remote", "owner")
    results["gate_allows_sole_reviewer"] = run.status == "success"

    # --- function allow-list ------------------------------------------------
    allowed = set(correct_function_ids(owner.identity.urn).values())
    template = EndpointTemplate(name="locked", allowed_functions=allowed)
    locked = world.deploy_mep(
        "expanse", templates={"default": template}
    )
    world.map_user_to_site(owner, "expanse", "x-owner")
    client = ComputeClient(world.faas, owner.client_id, owner.client_secret)
    rogue_id = client.register_function(
        lambda fctx: fctx.shell().run("rm -rf /scratch").exit_code,
        name="rogue.wipe",
    )
    try:
        task = client.run(locked.endpoint_id, rogue_id)
        client.get_result(task)
        results["allowlist_blocks_unapproved_function"] = False
    except TaskFailed as exc:
        results["allowlist_blocks_unapproved_function"] = (
            "FunctionNotAllowed" in exc.remote_traceback
        )
    from repro.core.remote import FN_RUN_SHELL, run_shell_command

    shell_id = client.register_function(run_shell_command, name=FN_RUN_SHELL)
    task = client.run(locked.endpoint_id, shell_id, "hostname", cwd="")
    results["allowlist_admits_correct_helpers"] = (
        client.get_result(task)["exit_code"] == 0
    )

    # --- identity mapping ------------------------------------------------------
    intruder_client = ComputeClient(
        world.faas, intruder.client_id, intruder.client_secret
    )
    probe_id = intruder_client.register_function(
        lambda fctx: "in", name="probe"
    )
    try:
        task = intruder_client.run(mep.endpoint_id, probe_id)
        intruder_client.get_result(task)
        results["unmapped_identity_rejected"] = False
    except TaskFailed as exc:
        results["unmapped_identity_rejected"] = (
            "IdentityMappingError" in exc.remote_traceback
        )

    # --- token expiry -----------------------------------------------------------
    short_token = world.auth.client_credentials_grant(
        owner.client_id, owner.client_secret, lifetime=10.0
    )
    world.clock.advance(11.0)
    try:
        world.auth.introspect(short_token.value)
        results["expired_token_rejected"] = False
    except TokenExpired:
        results["expired_token_rejected"] = True

    # --- branch filter -----------------------------------------------------------
    hosted = world.hub.repo("owner/gated-repo")
    hosted.environment("hpc").protection.allowed_branches.append("main")
    world.hub.push_commit(
        "owner/gated-repo", author="owner", message="feature work",
        patch={"feature.txt": "wip\n"}, branch="feature",
    )
    feature_runs = [
        r for r in world.engine.runs
        if r.repo_slug == "owner/gated-repo" and r.branch == "feature"
    ]
    results["branch_filter_blocks_other_branches"] = bool(feature_runs) and (
        feature_runs[-1].status == "failure"
    )
    return results


# ---------------------------------------------------------------------------
# §6.2 cron vs CORRECT
# ---------------------------------------------------------------------------


@dataclass
class CronVsCorrectResult:
    cron_staleness_after_push: float
    correct_staleness_after_push: float
    cron_requires_review: bool
    correct_requires_review: bool
    cron_maps_author_to_account: bool
    both_catch_failure: bool


def cron_vs_correct() -> CronVsCorrectResult:
    """Same repo, same site: PSI/J's cron CI vs a CORRECT workflow."""
    world = World()
    user = world.register_user("vhayot", {"anvil": "x-vhayot"})
    common.provision_user_site(
        world, user, "anvil", "x-vhayot", "psij", common.PSIJ_STACK
    )
    hosted = world.hub.create_repo("exaworks/psij-python", owner=user.login)
    world.hub.push_commit(
        "exaworks/psij-python", author=user.login, message="init",
        files=psij_suite.repo_files(),
    )

    # cron deployment in the user's account, daily interval
    dashboard = Dashboard()
    handle = world.site("anvil").login_handle("x-vhayot")
    cron = CronCI(
        handle, world.hub, "exaworks/psij-python", dashboard,
        policy=BranchPolicy.MAIN_ONLY, interval=24 * 3600.0, conda_env="psij",
    )
    cron.tick()  # overnight run reflects the current code

    # a push lands mid-day: cron results are now stale until the next tick
    world.clock.advance(6 * 3600.0)
    world.hub.push_commit(
        "exaworks/psij-python", author=user.login, message="fix docs",
        patch={"README.md": "# PSI/J (updated)\n"},
    )
    cron_staleness = world.clock.now - (cron.last_tick or 0.0)

    # CORRECT: triggering is push-driven, so staleness is just run latency
    mep = common.deploy_site_mep(world, "anvil", login_only=True)
    from repro.core.workflow_builder import WorkflowBuilder

    step = WorkflowBuilder.correct_step(
        name="tests", shell_cmd="pytest", conda_env="psij",
        artifact_prefix="psij-ci",
    )
    builder = WorkflowBuilder("psij-correct").on_push()
    builder.add_job(
        "anvil", steps=[step], environment="hpc",
        env={"ENDPOINT_UUID": mep.endpoint_id},
    )
    env = hosted.create_environment(
        user.login, "hpc",
        protection=__import__(
            "repro.core.security", fromlist=["sole_reviewer_rules"]
        ).sole_reviewer_rules(user.login),
    )
    env.secrets.set("GLOBUS_ID", user.client_id, set_by=user.login)
    env.secrets.set("GLOBUS_SECRET", user.client_secret, set_by=user.login)
    push_time = world.clock.now
    world.hub.push_commit(
        "exaworks/psij-python", author=user.login, message="add CORRECT CI",
        patch={".github/workflows/ci.yml": builder.render()},
    )
    run = world.engine.runs[-1]
    common.approve_all(world, run, user.login)
    correct_staleness = world.clock.now - push_time

    # both must surface the v0.9.9 failure
    cron_failed = any(
        r.report is not None and r.report.failed > 0 for r in cron.runs
    )
    correct_failed = run.status == "failure"

    return CronVsCorrectResult(
        cron_staleness_after_push=cron_staleness,
        correct_staleness_after_push=correct_staleness,
        cron_requires_review=cron.requires_review_before_execution,
        correct_requires_review=True,  # environment reviewer gate
        cron_maps_author_to_account=cron.maps_author_to_account,
        both_catch_failure=cron_failed and correct_failed,
    )


# ---------------------------------------------------------------------------
# §7.4 artifact retention
# ---------------------------------------------------------------------------


def retention_ablation() -> Dict[str, bool]:
    """Artifacts expire at 90 days; repository commits persist."""
    world = World()
    user = world.register_user("curator", {})
    world.hub.create_repo("curator/results", owner=user.login)
    world.hub.push_commit(
        "curator/results", author=user.login, message="init",
        files={"README.md": "results\n"},
    )
    world.hub.artifacts.upload("run-000001", "stdout", "42\n")
    world.hub.push_commit(
        "curator/results", author=user.login, message="persist outputs",
        patch={"outputs/stdout.txt": "42\n"},
    )
    results = {
        "artifact_available_before_expiry": bool(
            world.hub.artifacts.download("run-000001", "stdout")
        )
    }
    world.clock.advance(91 * 24 * 3600.0)
    try:
        world.hub.artifacts.download("run-000001", "stdout")
        results["artifact_expired_after_90_days"] = False
    except ArtifactExpired:
        results["artifact_expired_after_90_days"] = True
    repo = world.hub.repo("curator/results").repository
    results["committed_output_persists"] = (
        repo.read_file("main", "outputs/stdout.txt") == "42\n"
    )
    return results
