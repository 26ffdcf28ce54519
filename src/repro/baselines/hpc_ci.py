"""HPC CI framework adapters (Table 4), each with executable probes.

The probes use the simulated substrate to demonstrate the property each
descriptor claims: identity-checked runners on login nodes (Jacamar),
Docker→Singularity conversion with a cloud-side runner (Tapis), local
Jenkins building Singularity images (RMACC), install-script + webhook +
ReFrame tests (OSC), unprivileged GitLab runner submitting to SLURM
(Stanford), and CORRECT itself (no runner on the HPC site at all).
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.base import CIFrameworkAdapter, CIFrameworkDescriptor
from repro.containers.image import ImageRecipe
from repro.errors import IdentityMappingError, PrivilegeError
from repro.scheduler.jobs import Job, JobState
from repro.shellsim.session import ShellServices, ShellSession


class JacamarAdapter(CIFrameworkAdapter):
    """Jacamar CI: GitLab runner on the login node with identity mapping."""

    descriptor = CIFrameworkDescriptor(
        name="Jacamar CI",
        ci_platform="GitLab",
        authentication="Site-specific auth.",
        site_specific_execution=True,
        containerization=("Apptainer", "Podman", "CharlieCloud"),
    )

    def probe(self, world) -> Dict[str, bool]:
        site = world.site("faster")
        user = world.users.get("alice") or world.register_user(
            "alice", {"faster": "x-alice"}
        )
        if "faster" not in user.site_accounts:
            world.map_user_to_site(user, "faster", "x-alice")
        # (i) identity used to run code matches the invoking user
        account = site.identity_map.resolve(user.identity)
        runs_as_invoker = account == user.site_accounts["faster"]
        # unmapped identities are rejected before any execution
        stranger = world.idp.register("jacamar-stranger")
        try:
            site.identity_map.resolve(stranger)
            rejects_unmapped = False
        except IdentityMappingError:
            rejects_unmapped = True
        # runner executes on the login node, submitting to the scheduler
        site.login_handle(account)
        job = Job(user=account, partition="normal", num_nodes=1,
                  walltime=120.0, duration=5.0, name="jacamar-ci")
        job_id = site.scheduler.submit(job)
        site.scheduler.wait_for(job_id)
        site_specific = site.scheduler.job(job_id).state is JobState.COMPLETED
        return {
            "runs_as_invoking_user": runs_as_invoker,
            "rejects_unmapped_identity": rejects_unmapped,
            "site_specific_execution": site_specific,
            "needs_runner_on_hpc": True,
        }


class TapisAdapter(CIFrameworkAdapter):
    """TACC's Tapis CI: GitHub Actions + self-hosted runner + Singularity."""

    descriptor = CIFrameworkDescriptor(
        name="TACC",
        ci_platform="GitHub",
        authentication="Tapis Security Kernel",
        site_specific_execution=False,
        containerization=("Singularity",),
    )

    def probe(self, world) -> Dict[str, bool]:
        # Docker images are converted to Singularity so HPC can run them
        from repro.containers.runtime import ApptainerRuntime, DockerRuntime

        recipe = ImageRecipe(
            name="tapis-app", base="ubuntu", commands=("app-test",), size_mb=100.0
        )
        docker_image = recipe.build("docker.io/tacc/app:latest")
        apptainer = ApptainerRuntime([])
        sif = apptainer.convert_from_docker(docker_image)
        conversion_ok = (
            sif.commands == docker_image.commands and sif.reference.endswith(".sif")
        )
        # the runner is cloud-side (Jetstream), not on the HPC site itself
        runner = world.runner_pool.acquire("ubuntu-latest")
        runner_offsite = runner.handle.site.name == "github-cloud"
        # Docker itself is refused on the HPC site (no privileged daemon)
        site = world.site("faster")
        docker = DockerRuntime([])
        try:
            docker.start(docker_image, user="x-tacc",
                         privileged_daemon_allowed=site.allow_privileged_daemon)
            docker_refused = False
        except PrivilegeError:
            docker_refused = True
        return {
            "docker_to_singularity_conversion": conversion_ok,
            "runner_offsite": runner_offsite,
            "docker_refused_on_hpc": docker_refused,
            "needs_runner_on_hpc": False,
        }


class RMACCSummitAdapter(CIFrameworkAdapter):
    """RMACC Summit: local Jenkins building Singularity images."""

    descriptor = CIFrameworkDescriptor(
        name="RMACC Summit",
        ci_platform="Jenkins",
        authentication="Site-specific auth.",
        site_specific_execution=True,
        containerization=("Singularity",),
    )

    def probe(self, world) -> Dict[str, bool]:
        site = world.site("expanse")
        site.add_account("jenkins-svc")
        # repositories carry a Singularity recipe next to the source
        recipe = ImageRecipe(
            name="summit-app", base="centos",
            commands=("run-tests",), size_mb=300.0,
        )
        image = recipe.build("registry.local/summit-app:ci")
        # Jenkins builds the image and publishes to a self-hosted registry
        from repro.containers.registry import ContainerRegistry

        local_registry = ContainerRegistry("self-hosted-sregistry")
        digest = local_registry.push(image)
        rebuilt = recipe.build("registry.local/summit-app:ci")
        deterministic_build = rebuilt.digest == image.digest
        return {
            "builds_singularity_from_recipe": bool(digest),
            "publishes_to_local_registry": local_registry.has(image.reference),
            "deterministic_image_builds": deterministic_build,
            "needs_runner_on_hpc": True,
        }


class OSCAdapter(CIFrameworkAdapter):
    """OSC: install script + webhook-triggered ReFrame tests, no containers."""

    descriptor = CIFrameworkDescriptor(
        name="OSC",
        ci_platform="Reframe",
        authentication="Site-specific auth.",
        site_specific_execution=True,
        containerization=(),
    )

    def probe(self, world) -> Dict[str, bool]:
        site = world.site("anvil")
        site.add_account("osc-admin")
        handle = site.login_handle("osc-admin")
        shell = ShellSession(handle, services=ShellServices(hub=world.hub))
        # install script builds software and generates a module file
        modules_dir = f"{handle.home()}/modules"
        shell.run(f"mkdir -p {modules_dir}")
        handle.fs_write(f"{modules_dir}/fftw-3.3.10.lua", "-- module file\n")
        module_generated = handle.fs_exists(f"{modules_dir}/fftw-3.3.10.lua")
        # webhook on commit triggers the test run
        fired = []
        world.hub.subscribe(lambda event, payload: fired.append(event))
        if "osc/modules" not in world.hub.repos():
            world.hub.create_user("osc-bot")
            world.hub.create_repo("osc/modules", owner="osc-bot")
        world.hub.push_commit(
            "osc/modules", author="osc-bot", message="module update",
            files={"README.md": "modules\n"},
        )
        webhook_fired = "push" in fired
        # ReFrame-style test: run the module's smoke command as the admin
        result = shell.run("module load fftw-3.3.10 && true")
        return {
            "install_script_generates_module": module_generated,
            "webhook_triggers_ci": webhook_fired,
            "reframe_tests_run_on_site": result.ok,
            "admin_driven_single_site": True,
            "needs_runner_on_hpc": True,
        }


class StanfordHPCCAdapter(CIFrameworkAdapter):
    """Stanford HPCC: unprivileged GitLab runner submitting to SLURM."""

    descriptor = CIFrameworkDescriptor(
        name="Stanford HPCC",
        ci_platform="GitLab",
        authentication="Site-specific auth.",
        site_specific_execution=True,
        containerization=("Unknown",),
    )

    def probe(self, world) -> Dict[str, bool]:
        site = world.site("faster")
        site.add_account("htr-runner")
        handle = site.login_handle("htr-runner")
        # the runner service lives in an unprivileged user account
        unprivileged = not site.allow_privileged_daemon
        # it listens to the public hub and submits batch jobs
        runner = world.runner_pool.register_self_hosted(
            handle, labels=["hpcc-sherlock"]
        )
        job = Job(user="htr-runner", partition="normal", num_nodes=1,
                  walltime=300.0, duration=10.0, name="htr-ci")
        job_id = site.scheduler.submit(job)
        site.scheduler.wait_for(job_id)
        submits_to_slurm = site.scheduler.job(job_id).state is JobState.COMPLETED
        return {
            "runner_in_user_account": runner.self_hosted and unprivileged,
            "submits_to_slurm": submits_to_slurm,
            "needs_runner_on_hpc": True,
        }


class CorrectAdapter(CIFrameworkAdapter):
    """CORRECT itself, for the extended comparison row."""

    descriptor = CIFrameworkDescriptor(
        name="CORRECT",
        ci_platform="GitHub",
        authentication="Federated OAuth + env. reviewers",
        site_specific_execution=True,
        containerization=("Apptainer", "Docker (cloud)"),
    )

    def probe(self, world) -> Dict[str, bool]:
        # no runner process on the HPC site: only an endpoint with
        # outbound-only connections
        site = world.site("faster")
        mep = world.deploy_mep("faster")
        endpoint_outbound_only = mep.online and site.network.allows_outbound("login")
        return {
            "multi_site_single_workflow": True,
            "endpoint_outbound_only": endpoint_outbound_only,
            "needs_runner_on_hpc": False,
        }


HPC_CI_ADAPTERS = [
    JacamarAdapter(),
    TapisAdapter(),
    RMACCSummitAdapter(),
    OSCAdapter(),
    StanfordHPCCAdapter(),
]
