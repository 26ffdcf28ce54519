"""Failure-injection tests: the system must degrade loudly, not silently."""

import pytest

from repro.core.workflow_builder import WorkflowBuilder
from repro.experiments import common
from repro.faas.client import ComputeClient
from repro.world import World


@pytest.fixture
def rig():
    world = World()
    user = world.register_user("vhayot", {"faster": "x-vhayot"})
    common.provision_user_site(
        world, user, "faster", "x-vhayot", "ci", {"pytest": ">=8"}
    )
    mep = common.deploy_site_mep(world, "faster")
    return world, user, mep


def _gated_run(world, user, mep, shell_cmd="echo ok", slug="vhayot/fi"):
    step = WorkflowBuilder.correct_step(
        name="remote", shell_cmd=shell_cmd, clone="false",
        endpoint_expr=mep.endpoint_id,
    )
    builder = WorkflowBuilder("fi").on_push()
    builder.add_job("job", steps=[step], environment="hpc")
    common.create_repo_with_workflow(
        world, slug, owner=user, files={"README.md": "x\n"},
        workflow_path=".github/workflows/ci.yml",
        workflow_text=builder.render(),
        environments={
            "hpc": {
                "GLOBUS_ID": user.client_id,
                "GLOBUS_SECRET": user.client_secret,
            }
        },
    )
    return world.engine.runs[-1]


class TestEndpointFailures:
    def test_endpoint_shutdown_fails_workflow_cleanly(self, rig):
        world, user, mep = rig
        run = _gated_run(world, user, mep)
        mep.shutdown()  # endpoint dies before the reviewer approves
        world.engine.approve(run, "job", user.login)
        assert run.status == "failure"
        assert any("offline" in line.lower() for line in run.log)

    def test_walltime_death_mid_task_surfaces(self, rig):
        world, user, mep = rig
        # a template whose pilot walltime is too short for the payload
        from repro.faas.endpoint import EndpointTemplate

        short = world.deploy_mep(
            "faster",
            templates={
                "default": EndpointTemplate(
                    compute_partition="normal", walltime=60.0
                )
            },
        )
        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        fid = client.register_function(
            lambda fctx: fctx.handle.compute(120.0), "long-task"
        )
        task_id = client.run(short.endpoint_id, fid)
        task = client.get_task(task_id)
        assert task.state.value == "FAILED"
        assert "Walltime" in task.exception_text

    def test_expired_token_rejected_at_submit(self, rig):
        world, user, mep = rig
        token = world.auth.client_credentials_grant(
            user.client_id, user.client_secret, lifetime=30.0
        )
        fid = world.faas.register_function(
            token.value, lambda fctx: 1, name="quick"
        )
        world.clock.advance(31.0)
        from repro.errors import TokenExpired

        with pytest.raises(TokenExpired):
            world.faas.submit(token.value, mep.endpoint_id, fid)


class TestSchedulerPressure:
    def test_saturated_queue_still_serves_fcfs(self, rig, run_until_started):
        world, user, mep = rig
        site = world.site("faster")
        from repro.scheduler.jobs import Job

        ours = Job(user="x-vhayot", partition="normal",
                   duration=5.0, walltime=60.0)
        site.scheduler.submit(ours)
        # background churn continues, but our job starts within one stagger
        run_until_started(site.scheduler, ours)
        assert (ours.queue_wait or 0) <= 150.0 + 1e-6


class TestPullRequestWorkflows:
    def test_pr_triggers_workflow_on_source_branch(self, rig):
        world, user, mep = rig
        workflow = """on:
  pull_request:
    branches: [main]
jobs:
  check:
    steps:
      - run: echo pr-check on ${{ github.ref_name }}
"""
        common.create_repo_with_workflow(
            world, "vhayot/pr-repo", owner=user,
            files={"README.md": "x\n"},
            workflow_path=".github/workflows/pr.yml",
            workflow_text=workflow,
        )
        # push workflow file does not match pull_request trigger
        push_runs = [r for r in world.engine.runs if r.repo_slug == "vhayot/pr-repo"]
        assert push_runs == []
        world.hub.push_commit(
            "vhayot/pr-repo", author=user.login, message="feature work",
            patch={"feature.py": "pass\n"}, branch="feature",
        )
        world.hub.open_pull_request(
            "vhayot/pr-repo", title="Add feature", author=user.login,
            source_repo_slug="vhayot/pr-repo", source_branch="feature",
        )
        pr_runs = [
            r for r in world.engine.runs
            if r.repo_slug == "vhayot/pr-repo" and r.event == "pull_request"
        ]
        assert len(pr_runs) == 1
        run = pr_runs[0]
        assert run.branch == "feature"
        assert run.status == "success"
        outcome = run.job("check").step_outcomes[0]
        assert outcome.outputs["stdout"] == "pr-check on feature"

    def test_pr_target_branch_filter(self, rig):
        world, user, mep = rig
        workflow = """on:
  pull_request:
    branches: [release]
jobs:
  check:
    steps:
      - run: echo checking
"""
        common.create_repo_with_workflow(
            world, "vhayot/pr-filtered", owner=user,
            files={"README.md": "x\n"},
            workflow_path=".github/workflows/pr.yml",
            workflow_text=workflow,
        )
        world.hub.push_commit(
            "vhayot/pr-filtered", author=user.login, message="w",
            patch={"f": "1"}, branch="feature",
        )
        world.hub.open_pull_request(
            "vhayot/pr-filtered", title="t", author=user.login,
            source_repo_slug="vhayot/pr-filtered", source_branch="feature",
            target_branch="main",  # filter wants 'release'
        )
        pr_runs = [
            r for r in world.engine.runs
            if r.repo_slug == "vhayot/pr-filtered" and r.event == "pull_request"
        ]
        assert pr_runs == []

    def test_fork_pr_runs_fork_code(self, rig):
        world, user, mep = rig
        workflow = """on: pull_request
jobs:
  check:
    steps:
      - name: checkout pr head
        uses: actions/checkout@v4
        with:
          path: src
      - name: read proposed file
        run: cat src/proposed.txt
"""
        common.create_repo_with_workflow(
            world, "vhayot/upstream", owner=user,
            files={"README.md": "x\n"},
            workflow_path=".github/workflows/pr.yml",
            workflow_text=workflow,
        )
        world.register_user("contrib", {})
        world.hub.fork("vhayot/upstream", "contrib")
        world.hub.push_commit(
            "contrib/upstream", author="contrib", message="proposal",
            patch={"proposed.txt": "new idea\n"}, branch="idea",
        )
        world.hub.open_pull_request(
            "vhayot/upstream", title="Idea", author="contrib",
            source_repo_slug="contrib/upstream", source_branch="idea",
        )
        pr_runs = [
            r for r in world.engine.runs if r.event == "pull_request"
        ]
        assert len(pr_runs) == 1
        outcome = pr_runs[0].job("check").step_outcomes[1]
        assert outcome.outputs["stdout"] == "new idea\n"
