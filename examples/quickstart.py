#!/usr/bin/env python
"""Quickstart: run your first CORRECT workflow end to end.

Builds a simulated world (hub + FaaS cloud + the FASTER cluster), registers
a user with a site account, deploys a multi-user endpoint, publishes a
repository whose workflow calls ``globus-labs/correct@v1``, pushes a
commit, approves the environment-gated job, and inspects the results:
remote stdout, stored artifacts, and the provenance record.

Run:  python examples/quickstart.py
"""

from repro.core import WorkflowBuilder, audit_environment
from repro.experiments import common
from repro.world import World


def main() -> None:
    # 1. the world: shared virtual clock, hub, auth, FaaS cloud, runners
    world = World()

    # 2. a researcher with an account at TAMU FASTER and FaaS credentials
    alice = world.register_user("alice", {"faster": "x-alice"})
    print(f"registered {alice.login}: identity {alice.identity.urn}")
    print(f"client credentials: {alice.client_id[:13]}... / ********")

    # 3. prepare the site: a conda env with the test tooling
    common.provision_user_site(
        world, alice, "faster", "x-alice",
        conda_env="ci", stack={"pytest": ">=8"},
    )

    # 4. deploy a multi-user endpoint (clones on the login node, tests on
    #    compute nodes through a SLURM pilot — FASTER's compute nodes have
    #    no outbound internet, so the endpoint routes clones automatically)
    mep = common.deploy_site_mep(world, "faster")
    print(f"endpoint on faster: {mep.endpoint_id}")

    # 5. a repository whose test suite is the ParslDock tutorial's
    from repro.apps.parsldock import suite as parsldock_suite

    step = WorkflowBuilder.correct_step(
        name="Run pytest remotely",
        step_id="pytest",
        shell_cmd="pytest",
        conda_env="ci",
    )
    workflow = (
        WorkflowBuilder("Quickstart CI")
        .on_push()
        .add_job(
            "remote-tests",
            steps=[step],
            environment="hpc-faster",
            env={"ENDPOINT_UUID": mep.endpoint_id},
        )
        .render()
    )
    common.create_repo_with_workflow(
        world,
        "alice/quickstart",
        owner=alice,
        files=parsldock_suite.repo_files(),
        workflow_path=".github/workflows/correct.yml",
        workflow_text=workflow,
        environments={
            "hpc-faster": {
                "GLOBUS_ID": alice.client_id,
                "GLOBUS_SECRET": alice.client_secret,
            }
        },
    )

    # 6. the push triggered a run; it is waiting on the sole reviewer
    run = world.engine.runs[-1]
    print(f"\nworkflow run {run.run_id}: status={run.status}")
    print("environment audit:", audit_environment(
        world.hub.repo("alice/quickstart"), "hpc-faster"
    ) or "clean")
    world.engine.approve(run, "remote-tests", "alice")
    print(f"after approval: status={run.status}")

    # 7. results: step outputs, artifacts, provenance
    outcome = run.job("remote-tests").step_outcomes[0]
    print("\n--- remote stdout (tail) ---")
    print("\n".join(outcome.outputs["stdout"].splitlines()[-4:]))

    artifact = world.hub.artifacts.download(run.run_id, "correct-stdout")
    print(f"\nstored artifact 'correct-stdout': {artifact.size_bytes} bytes, "
          f"retained until t={artifact.expires_at():.0f}s")

    record = world.provenance.latest("alice/quickstart")
    print("\n--- provenance record ---")
    print(f"site={record.site} node={record.environment.node_name} "
          f"identity={record.identity_urn}")
    print(f"command={record.command!r} exit={record.exit_code} "
          f"duration={record.duration:.1f}s (virtual)")
    print("packages:", ", ".join(record.environment.packages))
    print(f"\ntotal virtual time elapsed: {world.clock.now:.1f}s")


if __name__ == "__main__":
    main()
