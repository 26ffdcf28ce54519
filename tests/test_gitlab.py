"""Tests for the GitLab CI/CD substrate and the CORRECT component."""

import pytest

from repro.errors import PermissionDenied, WorkflowParseError
from repro.gitlab.component import COMPONENT_NAME, CorrectComponent
from repro.gitlab.models import CIVariable, GitLabJobDef, parse_pipeline
from repro.gitlab.service import GitLabService
from repro.shellsim.session import ShellServices
from repro.world import World

PIPELINE = """stages:
  - build
  - test

compile:
  stage: build
  script:
    - echo compiling $APP_NAME

unit-tests:
  stage: test
  script:
    - echo testing
"""


@pytest.fixture
def gitlab():
    world = World()
    service = GitLabService(
        world.clock,
        world.runner_pool,
        shell_services=ShellServices(),
        events=world.events,
    )
    # let runners and endpoints clone GitLab-hosted projects
    service.shell_services.hub = service
    return world, service


class TestModels:
    def test_parse_pipeline(self):
        pipeline = parse_pipeline(PIPELINE)
        assert pipeline.stages == ["build", "test"]
        names = [j.name for j in pipeline.jobs_in_order()]
        assert names == ["compile", "unit-tests"]

    def test_job_needs_script_or_component(self):
        with pytest.raises(WorkflowParseError):
            GitLabJobDef(name="empty")
        with pytest.raises(WorkflowParseError):
            GitLabJobDef(name="both", script=["x"], component="c@v1")

    def test_undeclared_stage_rejected(self):
        doc = "stages:\n  - only\nj:\n  stage: ghost\n  script:\n    - echo x\n"
        with pytest.raises(WorkflowParseError):
            parse_pipeline(doc).jobs_in_order()

    def test_empty_pipeline_rejected(self):
        with pytest.raises(WorkflowParseError):
            parse_pipeline("stages:\n  - test\n")

    def test_variable_masking(self):
        var = CIVariable("TOKEN", "s3cret", masked=True)
        assert var.log_value() == "[MASKED]"
        assert CIVariable("X", "v").log_value() == "v"


class TestService:
    def test_commit_triggers_pipeline(self, gitlab):
        world, service = gitlab
        service.create_project("lab/app", owner="dev")
        service.commit(
            "lab/app", author="dev", message="init",
            files={".gitlab-ci.yml": PIPELINE, "README.md": "x\n"},
        )
        assert len(service.pipelines) == 1
        run = service.pipelines[0]
        assert run.status == "success"
        assert [j.name for j in run.jobs] == ["compile", "unit-tests"]

    def test_non_member_cannot_commit(self, gitlab):
        world, service = gitlab
        service.create_project("lab/app", owner="dev")
        with pytest.raises(PermissionDenied):
            service.commit("lab/app", author="stranger", message="x",
                           files={"f": "1"})

    def test_stage_failure_skips_later_stages(self, gitlab):
        world, service = gitlab
        service.create_project("lab/app", owner="dev")
        bad = PIPELINE.replace("echo compiling $APP_NAME", "false")
        service.commit(
            "lab/app", author="dev", message="init",
            files={".gitlab-ci.yml": bad},
        )
        run = service.pipelines[0]
        assert run.status == "failed"
        statuses = {j.name: j.status for j in run.jobs}
        assert statuses == {"compile": "failed", "unit-tests": "skipped"}

    def test_allow_failure(self, gitlab):
        world, service = gitlab
        service.create_project("lab/app", owner="dev")
        doc = """stages:
  - test

flaky:
  stage: test
  allow_failure: true
  script:
    - false

solid:
  stage: test
  script:
    - echo ok
"""
        service.commit("lab/app", author="dev", message="init",
                       files={".gitlab-ci.yml": doc})
        run = service.pipelines[0]
        assert run.status == "success"

    def test_variables_expanded_and_masked(self, gitlab):
        world, service = gitlab
        project = service.create_project("lab/app", owner="dev")
        project.set_variable("APP_NAME", "secret-app", masked=True)
        service.commit("lab/app", author="dev", message="init",
                       files={".gitlab-ci.yml": PIPELINE})
        compile_job = service.pipelines[0].jobs[0]
        assert "secret-app" not in compile_job.log
        assert "[MASKED]" in compile_job.log

    def test_protected_variables_hidden_on_unprotected_branches(self, gitlab):
        world, service = gitlab
        project = service.create_project("lab/app", owner="dev")
        project.set_variable("DEPLOY_KEY", "k", protected=True)
        project.set_variable("PUBLIC", "p")
        assert project.visible_variables("main") == {
            "DEPLOY_KEY": "k", "PUBLIC": "p",
        }
        assert project.visible_variables("feature") == {"PUBLIC": "p"}

    def test_protected_rule_skips_job(self, gitlab):
        world, service = gitlab
        service.create_project("lab/app", owner="dev")
        doc = """stages:
  - test

deploy-like:
  stage: test
  rules:
    protected: true
  script:
    - echo deploying
"""
        service.commit("lab/app", author="dev", message="init",
                       files={".gitlab-ci.yml": doc})
        service.commit("lab/app", author="dev", message="feature",
                       patch={"f": "1"}, branch="feature")
        main_run, feature_run = service.pipelines
        assert main_run.jobs[0].status == "success"
        assert feature_run.jobs[0].status == "skipped"

    def test_trigger_token(self, gitlab):
        world, service = gitlab
        service.create_project("lab/app", owner="dev")
        service.commit("lab/app", author="dev", message="init",
                       files={".gitlab-ci.yml": PIPELINE})
        token = service.create_trigger_token("lab/app", "ci trigger")
        run = service.trigger_via_api("lab/app", token.token)
        assert run.source == "trigger" and run.status == "success"
        token.revoked = True
        with pytest.raises(PermissionDenied):
            service.trigger_via_api("lab/app", token.token)
        with pytest.raises(PermissionDenied):
            service.trigger_via_api("lab/app", "bogus")

    def test_scheduled_pipelines(self, gitlab):
        world, service = gitlab
        service.create_project("lab/app", owner="dev")
        service.commit("lab/app", author="dev", message="init",
                       files={".gitlab-ci.yml": PIPELINE})
        service.schedule_pipeline("lab/app")
        runs = service.scheduled_tick()
        assert len(runs) == 1 and runs[0].source == "schedule"

    def test_missing_ci_file_fails_pipeline(self, gitlab):
        world, service = gitlab
        service.create_project("lab/app", owner="dev")
        service.commit("lab/app", author="dev", message="init",
                       files={"README.md": "no ci\n"})
        assert service.pipelines[0].status == "failed"


class TestCorrectComponent:
    def _rig(self):
        world = World()
        user = world.register_user("vhayot", {"anvil": "x-vhayot"})
        from repro.experiments import common

        common.provision_user_site(
            world, user, "anvil", "x-vhayot", "ci", {"pytest": ">=8"}
        )
        mep = common.deploy_site_mep(world, "anvil", login_only=True)
        service = GitLabService(
            world.clock, world.runner_pool,
            shell_services=ShellServices(), events=world.events,
        )
        service.shell_services.hub = service  # clones resolve on GitLab
        # re-point the endpoint's shell at the GitLab instance too
        mep.shell_services.hub = service
        service.register_component(COMPONENT_NAME, CorrectComponent(world.faas))
        return world, user, mep, service

    def _pipeline(self, endpoint_id):
        return f"""stages:
  - test

remote-tests:
  stage: test
  component:
    name: globus-labs/correct@v1
    inputs:
      client_id: $GLOBUS_ID
      client_secret: $GLOBUS_SECRET
      endpoint_uuid: {endpoint_id}
      shell_cmd: pytest
      conda_env: ci
      store_artifacts: 'false'
"""

    def test_correct_runs_as_gitlab_component(self):
        world, user, mep, service = self._rig()
        project = service.create_project("exaworks/psij-python", owner="vhayot")
        project.set_variable("GLOBUS_ID", user.client_id, masked=True)
        project.set_variable("GLOBUS_SECRET", user.client_secret, masked=True)
        from repro.apps.parsldock import suite as parsldock_suite

        files = dict(parsldock_suite.repo_files())
        files[".gitlab-ci.yml"] = self._pipeline(mep.endpoint_id)
        service.commit("exaworks/psij-python", author="vhayot",
                       message="init", files=files)
        run = service.pipelines[0]
        assert run.status == "success", run.jobs[0].log
        assert "10 passed" in run.jobs[0].log
        # masked variables never leak into job logs
        assert user.client_secret not in run.jobs[0].log

    def test_component_failure_reported(self):
        world, user, mep, service = self._rig()
        project = service.create_project("lab/broken", owner="vhayot")
        project.set_variable("GLOBUS_ID", "wrong", masked=True)
        project.set_variable("GLOBUS_SECRET", "nope", masked=True)
        files = {".gitlab-ci.yml": self._pipeline(mep.endpoint_id),
                 "README.md": "x\n"}
        service.commit("lab/broken", author="vhayot", message="init",
                       files=files)
        run = service.pipelines[0]
        assert run.status == "failed"
        assert "CORRECT" in run.jobs[0].log

    def test_unregistered_component_fails(self):
        world, user, mep, service = self._rig()
        service.components.pop(COMPONENT_NAME)
        service.create_project("lab/app", owner="vhayot")
        files = {".gitlab-ci.yml": self._pipeline(mep.endpoint_id)}
        service.commit("lab/app", author="vhayot", message="init", files=files)
        assert service.pipelines[0].status == "failed"
        assert "catalog" in service.pipelines[0].jobs[0].log
