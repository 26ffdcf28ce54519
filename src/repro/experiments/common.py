"""Shared experiment setup: users, sites, conda stacks, MEP templates."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.security import sole_reviewer_rules
from repro.faas.endpoint import EndpointTemplate, MultiUserEndpoint
from repro.world import World, WorldUser

# the compute partition name for each batch site in the catalog
SITE_PARTITIONS: Dict[str, Optional[str]] = {
    "chameleon": None,  # cloud VM: no scheduler
    "faster": "normal",
    "expanse": "compute",
    "anvil": "shared",
}

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
    partition = None if login_only else SITE_PARTITIONS[site_name]
    template = EndpointTemplate(
        name="default",
        compute_partition=partition,
        nodes_per_block=nodes,
        walltime=walltime,
    )
    return world.deploy_mep(site_name, templates={"default": template})


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
    partition = None if login_only else SITE_PARTITIONS[site_name]
    template = EndpointTemplate(
        name="default",
        compute_partition=partition,
        nodes_per_block=nodes,
        walltime=walltime,
    )
    return world.deploy_mep_pool(
        site_name, size, templates={"default": template}
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
