"""Integration tests for the CORRECT action itself: the full §5.3 flow."""

import pytest

from repro.core.remote import FN_RUN_SHELL
from repro.core.security import (
    audit_environment,
    correct_function_ids,
    restrict_template_to_correct,
    sole_reviewer_rules,
)
from repro.core.workflow_builder import WorkflowBuilder
from repro.experiments import common
from repro.faas.endpoint import EndpointTemplate
from repro.world import World


@pytest.fixture
def rig():
    """World + user + MEP on FASTER + a hosted repo with a shell suite."""
    world = World()
    user = world.register_user("vhayot", {"faster": "x-vhayot"})
    common.provision_user_site(
        world, user, "faster", "x-vhayot", "docking", common.DOCKING_STACK
    )
    mep = common.deploy_site_mep(world, "faster")
    return world, user, mep


def _launch(world, user, mep, shell_cmd="pytest", conda_env="docking",
            extra_step_kwargs=None, files=None, approve=True):
    from repro.apps.parsldock import suite as parsldock_suite

    step = WorkflowBuilder.correct_step(
        name="remote", step_id="remote", shell_cmd=shell_cmd,
        conda_env=conda_env, **(extra_step_kwargs or {}),
    )
    builder = WorkflowBuilder("ci").on_push()
    builder.add_job(
        "job", steps=[step], environment="hpc",
        env={"ENDPOINT_UUID": mep.endpoint_id},
    )
    common.create_repo_with_workflow(
        world, f"{user.login}/app-{len(world.engine.runs)}", owner=user,
        files=files if files is not None else parsldock_suite.repo_files(),
        workflow_path=".github/workflows/ci.yml",
        workflow_text=builder.render(),
        environments={
            "hpc": {
                "GLOBUS_ID": user.client_id,
                "GLOBUS_SECRET": user.client_secret,
            }
        },
    )
    run = world.engine.runs[-1]
    if approve:
        common.approve_all(world, run, user.login)
    return run


class TestHappyPath:
    def test_full_flow_success(self, rig):
        world, user, mep = rig
        run = _launch(world, user, mep)
        assert run.status == "success"
        outcome = run.job("job").step_outcomes[0]
        assert outcome.outputs["exit_code"] == "0"
        assert "10 passed" in outcome.outputs["stdout"]
        assert outcome.outputs["sha"]  # clone resolved a commit

    def test_artifacts_stored(self, rig):
        world, user, mep = rig
        run = _launch(world, user, mep)
        stdout = world.hub.artifacts.download(run.run_id, "correct-stdout")
        assert "test_dock_single PASSED" in stdout.content

    def test_provenance_record_written(self, rig):
        world, user, mep = rig
        _launch(world, user, mep)
        records = world.provenance.for_repo(f"{user.login}/app-0")
        assert len(records) == 1
        record = records[0]
        assert record.site == "faster"
        assert record.exit_code == 0
        assert record.identity_urn == user.identity.urn
        assert record.environment is not None
        assert any(
            line.startswith("parsldock==") for line in record.environment.packages
        )

    def test_clone_lands_in_scratch(self, rig):
        world, user, mep = rig
        _launch(world, user, mep)
        site = world.site("faster")
        fs, path = site.mounts.resolve(
            "/scratch/x-vhayot/gc-action-temp", "login"
        )
        assert fs.isdir(path)

    def test_environment_snapshot_masks_secrets(self, rig):
        world, user, mep = rig
        _launch(
            world, user, mep,
            extra_step_kwargs={"artifact_prefix": "snap"},
        )
        record = world.provenance.all()[-1]
        for key, value in record.environment.env_vars.items():
            if "SECRET" in key.upper():
                assert value == "***"


class TestFailurePaths:
    def test_failing_command_fails_step_but_keeps_artifacts(self, rig):
        world, user, mep = rig
        run = _launch(world, user, mep, shell_cmd="false", conda_env="")
        assert run.status == "failure"
        # evidence still stored (the Fig. 5 property)
        assert world.hub.artifacts.download(run.run_id, "correct-stdout")
        record = world.provenance.all()[-1]
        assert record.exit_code != 0

    def test_bad_credentials_fail_step(self, rig):
        world, user, mep = rig
        step = WorkflowBuilder.correct_step(
            name="remote", shell_cmd="pytest",
            client_id_expr="bogus-id", client_secret_expr="bogus-secret",
        )
        builder = WorkflowBuilder("ci").on_push()
        builder.add_job("job", steps=[step], env={"ENDPOINT_UUID": mep.endpoint_id})
        common.create_repo_with_workflow(
            world, "vhayot/badcreds", owner=user, files={"README.md": "x\n"},
            workflow_path=".github/workflows/ci.yml",
            workflow_text=builder.render(),
        )
        run = world.engine.runs[-1]
        assert run.status == "failure"
        assert "id/secret mismatch" in run.job("job").step_outcomes[0].error

    def test_unknown_endpoint_fails_step(self, rig):
        world, user, mep = rig
        run = _launch(
            world, user, mep,
            extra_step_kwargs={"endpoint_expr": "no-such-endpoint"},
        )
        assert run.status == "failure"

    def test_missing_input_fails_step(self, rig):
        world, user, mep = rig
        builder = WorkflowBuilder("ci").on_push()
        builder.add_job(
            "job",
            steps=[{
                "name": "bad", "uses": "globus-labs/correct@v1",
                "with": {"client_id": "x"},
            }],
        )
        common.create_repo_with_workflow(
            world, "vhayot/badinputs", owner=user, files={"README.md": "x\n"},
            workflow_path=".github/workflows/ci.yml",
            workflow_text=builder.render(),
        )
        run = world.engine.runs[-1]
        assert run.status == "failure"
        assert "missing required" in run.job("job").step_outcomes[0].error

    def test_clone_failure_fails_step(self, rig):
        world, user, mep = rig
        run = _launch(
            world, user, mep,
            extra_step_kwargs={"repository": "ghost/none"},
        )
        assert run.status == "failure"
        assert any("clone failed" in line for line in run.log)


class TestFunctionUuidPath:
    def test_preregistered_function_execution(self, rig):
        world, user, mep = rig
        from repro.faas.client import ComputeClient

        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        fid = client.register_function(
            lambda fctx, a, b: a + b, "adder"
        )
        step = WorkflowBuilder.correct_step(
            name="fn", step_id="fn", function_uuid=fid,
        )
        step["with"]["clone"] = "false"
        step["with"]["function_args"] = [20, 22]
        builder = WorkflowBuilder("fn-ci").on_push()
        builder.add_job(
            "job", steps=[step], environment="hpc",
            env={"ENDPOINT_UUID": mep.endpoint_id},
        )
        common.create_repo_with_workflow(
            world, "vhayot/fnrepo", owner=user, files={"README.md": "x\n"},
            workflow_path=".github/workflows/ci.yml",
            workflow_text=builder.render(),
            environments={
                "hpc": {
                    "GLOBUS_ID": user.client_id,
                    "GLOBUS_SECRET": user.client_secret,
                }
            },
        )
        run = world.engine.runs[-1]
        common.approve_all(world, run, user.login)
        assert run.status == "success"
        assert run.job("job").step_outcomes[0].outputs["stdout"] == "42"


class TestSecurityHelpers:
    def test_correct_function_ids_match_registration(self, rig):
        world, user, mep = rig
        from repro.faas.client import ComputeClient
        from repro.core.remote import run_shell_command

        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        registered = client.register_function(run_shell_command, FN_RUN_SHELL)
        predicted = correct_function_ids(user.identity.urn)[FN_RUN_SHELL]
        assert registered == predicted

    def test_restrict_template(self, rig):
        world, user, mep = rig
        template = EndpointTemplate()
        restrict_template_to_correct(template, [user.identity.urn])
        assert template.allowed_functions is not None
        assert len(template.allowed_functions) == 4

    def test_allowlisted_endpoint_runs_correct(self, rig):
        world, user, mep = rig
        template = restrict_template_to_correct(
            EndpointTemplate(), [user.identity.urn]
        )
        locked = world.deploy_mep("faster", templates={"default": template})
        run = _launch(
            world, user, locked,
            shell_cmd="echo locked-ok", conda_env="",
        )
        assert run.status == "success"

    def test_audit_flags_misconfiguration(self, rig):
        world, user, mep = rig
        hosted = world.hub.create_repo("vhayot/audit", owner=user.login)
        hosted.create_environment(user.login, "open-env")
        warnings = audit_environment(hosted, "open-env")
        assert any("no required reviewers" in w for w in warnings)

    def test_audit_clean_configuration(self, rig):
        world, user, mep = rig
        hosted = world.hub.create_repo("vhayot/clean", owner=user.login)
        env = hosted.create_environment(
            user.login, "hpc",
            protection=sole_reviewer_rules(user.login, allowed_branches=["main"]),
        )
        env.secrets.set("GLOBUS_ID", user.client_id, set_by=user.login)
        assert audit_environment(hosted, "hpc") == []

    def test_audit_flags_multiple_reviewers(self, rig):
        world, user, mep = rig
        hosted = world.hub.create_repo("vhayot/multi", owner=user.login)
        rules = sole_reviewer_rules(user.login, allowed_branches=["main"])
        rules.required_reviewers.append("second-person")
        env = hosted.create_environment(user.login, "hpc", protection=rules)
        env.secrets.set("GLOBUS_ID", "x", set_by=user.login)
        warnings = audit_environment(hosted, "hpc")
        assert any("recommends exactly one" in w for w in warnings)
