"""Shared experiment setup: users, sites, conda stacks, MEP templates,
plus the open-loop driver and report table the plane experiments share."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.security import sole_reviewer_rules
from repro.faas.endpoint import EndpointTemplate, MultiUserEndpoint
from repro.world import World, WorldUser

# §6.1's docking stack, installed via Conda on every site
DOCKING_STACK: Dict[str, str] = {
    "parsldock": "*",
    "pytest": ">=8",
}

# §6.2's PSI/J stack (versions from Fig. 5)
PSIJ_STACK: Dict[str, str] = {
    "psij-python": "==0.9.9",
    "pytest": ">=7",
}

def virtual_work(fctx, seconds: float) -> float:
    """Synthetic task body: burn ``seconds`` of virtual compute."""
    fctx.handle.compute(seconds)
    return seconds


def run_open_loop(world: World, arrivals: Iterable, submit: Callable) -> float:
    """Drive an open-loop workload to idle; returns the start time.

    ``submit(arrival)`` runs at virtual time ``arrival.at`` after now,
    whatever the service is doing, and starts its own trace: an arrival
    that fires inside another task's measured body must not parent its
    task span under that body's node span. The world's installed fault
    plan is armed after every arrival is scheduled, and the SLO engine's
    last (partial) bucket is evaluated once the clock drains.
    """
    started_at = world.clock.now
    tracer = world.tracer

    def arrive(arrival) -> None:
        with tracer.activate(None):
            submit(arrival)

    for arrival in arrivals:
        world.clock.call_after(arrival.at, lambda a=arrival: arrive(a))
    if world.fault_injector is not None:
        world.arm_faults()
    world.clock.run_until_idle()
    world.slo.finish(world.clock.now)
    return started_at


def comparison_table(
    left: str, right: str, rows: Sequence[Tuple[str, str, str]]
) -> List[str]:
    """Report lines for two same-seed runs: a header, then one row per
    ``(label, left value, right value)``."""
    return [f"{'':28}{left:>16}{right:>16}"] + [
        f"{label:28}{a:>16}{b:>16}" for label, a, b in rows
    ]


def provision_user_site(
    world: World,
    user: WorldUser,
    site_name: str,
    account: str,
    conda_env: str,
    stack: Dict[str, str],
) -> None:
    """Create the account, the conda environment, and install the stack.

    The install is charged to the clock through a login-node handle, like
    a human preparing the site before wiring up CI.
    """
    if site_name not in user.site_accounts:
        world.map_user_to_site(user, site_name, account)
    site = world.site(site_name)
    handle = site.login_handle(account)
    manager = handle.conda()
    if conda_env not in manager.environments():
        manager.create(conda_env)
    downloaded = manager.install(conda_env, dict(stack))
    handle.io(downloaded)


def _site_templates(
    world: World, site_name: str, login_only: bool, walltime: float, nodes: int
) -> Dict[str, EndpointTemplate]:
    """The paper's per-site MEP template, keyed as ``"default"``: tests
    run in the site's default Slurm partition, or on the login node
    where it has no scheduler or ``login_only`` asks for it."""
    scheduler = world.site(site_name).scheduler
    partition = (
        None if login_only or scheduler is None
        else scheduler.default_partition.name
    )
    return {"default": EndpointTemplate(
        name="default",
        compute_partition=partition,
        nodes_per_block=nodes,
        walltime=walltime,
    )}


def deploy_site_mep(
    world: World,
    site_name: str,
    login_only: bool = False,
    walltime: float = 7200.0,
    nodes: int = 1,
) -> MultiUserEndpoint:
    """Deploy a MEP with the per-site template the paper's setup used.

    Restricted sites get a template whose tests run on compute nodes via
    a SLURM pilot while outbound-needing functions (clones) run on the
    login node; ``login_only=True`` reproduces the Anvil configuration
    where tests themselves must run on the login node (§6.2).
    ``walltime``/``nodes`` are the scheduler requirements a declarative
    suite may override per site.
    """
    return world.deploy_mep(
        site_name,
        templates=_site_templates(world, site_name, login_only, walltime, nodes),
    )


def deploy_site_mep_pool(
    world: World,
    site_name: str,
    size: int,
    login_only: bool = False,
    walltime: float = 7200.0,
    nodes: int = 1,
) -> List[MultiUserEndpoint]:
    """Deploy ``size`` MEPs with the site's paper template as one pool.

    Member 0 keeps the site's historical singleton endpoint id, so a
    pool of one is indistinguishable from :func:`deploy_site_mep`.
    Submissions targeting the site name route through the placement
    policy of ``world.faas``.
    """
    return world.deploy_mep_pool(
        site_name, size,
        templates=_site_templates(world, site_name, login_only, walltime, nodes),
    )


def create_repo_with_workflow(
    world: World,
    slug: str,
    owner: WorldUser,
    files: Dict[str, str],
    workflow_path: str,
    workflow_text: str,
    environments: Optional[Dict[str, Dict[str, str]]] = None,
) -> None:
    """Create a hosted repo, its protected environments, and first commit.

    ``environments`` maps environment name → secrets; each environment is
    protected with the owner as sole reviewer (the §5.2 recommendation).
    The workflow file is part of the first commit, so pushing it triggers
    the CI run.
    """
    hosted = world.hub.create_repo(slug, owner=owner.login)
    for env_name, secrets in (environments or {}).items():
        env = hosted.create_environment(
            owner.login, env_name, protection=sole_reviewer_rules(owner.login)
        )
        for name, value in secrets.items():
            env.secrets.set(name, value, set_by=owner.login)
    all_files = dict(files)
    all_files[workflow_path] = workflow_text
    world.hub.push_commit(
        slug, author=owner.login, message="Initial commit with CI", files=all_files
    )


def approve_all(world: World, run, reviewer: str) -> None:
    """Approve every environment gate in a run as ``reviewer``."""
    while run.status == "waiting":
        pending = run.pending_approvals()
        if not pending:
            break
        for job_id in pending:
            world.engine.approve(run, job_id, reviewer)
