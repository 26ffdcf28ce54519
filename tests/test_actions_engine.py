"""Integration tests for the workflow engine: triggering, runners, steps,
approval gates, artifacts, builtin actions."""

import pytest

from repro.actions.engine import Engine, EngineServices
from repro.actions.runner import RunnerPool
from repro.core.security import sole_reviewer_rules
from repro.envs.stdlib import standard_index
from repro.errors import ApprovalRequired, NoRunnerAvailable, PermissionDenied
from repro.faas.future import Future
from repro.hub.service import HubService
from repro.util.clock import SimClock


@pytest.fixture
def rig():
    clock = SimClock()
    hub = HubService(clock)
    pool = RunnerPool(clock, package_index=standard_index())
    engine = Engine(hub, pool, services=EngineServices())
    hub.create_user("alice")
    hub.create_user("mallory")
    hub.create_repo("alice/app", owner="alice")
    return clock, hub, pool, engine


def _push(hub, workflow, extra_files=None, branch=None, author="alice"):
    files = {".github/workflows/ci.yml": workflow, "README.md": "app\n"}
    files.update(extra_files or {})
    return hub.push_commit(
        "alice/app", author=author, message="ci", files=files, branch=branch
    )


SIMPLE = """name: CI
on: push
jobs:
  hello:
    runs-on: ubuntu-latest
    steps:
      - name: greet
        id: greet
        run: echo hello from ${{ github.repository }}
"""


class TestTriggering:
    def test_push_creates_and_executes_run(self, rig):
        clock, hub, pool, engine = rig
        _push(hub, SIMPLE)
        assert len(engine.runs) == 1
        run = engine.runs[0]
        assert run.status == "success"
        assert run.event == "push"
        outcome = run.job("hello").step_outcomes[0]
        assert outcome.outputs["stdout"] == "hello from alice/app"

    def test_branch_filter_respected(self, rig):
        clock, hub, pool, engine = rig
        workflow = SIMPLE.replace(
            "on: push", "on:\n  push:\n    branches: [main]"
        )
        _push(hub, workflow)
        _push(hub, workflow, branch="feature")
        branches = [r.branch for r in engine.runs]
        assert branches == ["main"]

    def test_malformed_workflow_reports_parse_error(self, rig):
        clock, hub, pool, engine = rig
        _push(hub, "on: push\n")  # no jobs
        assert engine.runs == []
        assert engine.events.last("workflow.parse_error") is not None

    def test_scheduled_tick_triggers_cron_workflows(self, rig):
        clock, hub, pool, engine = rig
        workflow = SIMPLE.replace(
            "on: push", "on:\n  schedule:\n    - cron: '0 0 * * *'"
        )
        _push(hub, workflow)
        assert engine.runs == []  # push does not match schedule-only
        hub.scheduled_tick()
        assert len(engine.runs) == 1

    def test_dispatch_trigger(self, rig):
        clock, hub, pool, engine = rig
        workflow = SIMPLE.replace("on: push", "on: workflow_dispatch")
        _push(hub, workflow)
        hub.dispatch_workflow("alice/app", actor="alice", workflow="ci.yml")
        assert len(engine.runs) == 1
        assert engine.runs[0].actor == "alice"


class TestSteps:
    def test_failing_step_fails_job_and_skips_rest(self, rig):
        clock, hub, pool, engine = rig
        workflow = """on: push
jobs:
  j:
    steps:
      - name: boom
        run: false
      - name: after
        run: echo unreachable
"""
        _push(hub, workflow)
        run = engine.runs[0]
        assert run.status == "failure"
        outcomes = [o.status for o in run.job("j").step_outcomes]
        assert outcomes == ["failure", "skipped"]

    def test_if_always_runs_after_failure(self, rig):
        clock, hub, pool, engine = rig
        workflow = """on: push
jobs:
  j:
    steps:
      - name: boom
        run: false
      - name: cleanup
        if: '${{ always() }}'
        run: echo cleaning
"""
        _push(hub, workflow)
        outcomes = [o.status for o in engine.runs[0].job("j").step_outcomes]
        assert outcomes == ["failure", "success"]

    def test_continue_on_error(self, rig):
        clock, hub, pool, engine = rig
        workflow = """on: push
jobs:
  j:
    steps:
      - name: flaky
        continue-on-error: true
        run: false
      - name: after
        run: echo fine
"""
        _push(hub, workflow)
        run = engine.runs[0]
        assert run.status == "success"

    def test_step_outputs_flow_between_steps(self, rig):
        clock, hub, pool, engine = rig
        workflow = """on: push
jobs:
  j:
    steps:
      - name: produce
        id: first
        run: echo produced-value
      - name: consume
        run: echo got ${{ steps.first.outputs.stdout }}
"""
        _push(hub, workflow)
        outcome = engine.runs[0].job("j").step_outcomes[1]
        assert outcome.outputs["stdout"] == "got produced-value"

    def test_job_env_and_step_env_merge(self, rig):
        clock, hub, pool, engine = rig
        workflow = """on: push
jobs:
  j:
    env:
      SHARED: job-level
    steps:
      - name: read
        env:
          LOCAL: step-level
        run: echo $SHARED $LOCAL
"""
        _push(hub, workflow)
        outcome = engine.runs[0].job("j").step_outcomes[0]
        assert outcome.outputs["stdout"] == "job-level step-level"

    def test_needs_skips_dependents_of_failed_jobs(self, rig):
        clock, hub, pool, engine = rig
        workflow = """on: push
jobs:
  first:
    steps:
      - run: false
  second:
    needs: first
    steps:
      - run: echo never
"""
        _push(hub, workflow)
        run = engine.runs[0]
        assert run.job("first").status == "failure"
        assert run.job("second").status == "skipped"


class TestRunners:
    def test_hosted_runner_boot_charges_clock(self, rig):
        clock, hub, pool, engine = rig
        before = clock.now
        pool.acquire("ubuntu-latest")
        assert clock.now > before

    def test_each_hosted_runner_is_fresh(self, rig):
        clock, hub, pool, engine = rig
        r1 = pool.acquire("ubuntu-latest")
        r2 = pool.acquire("ubuntu-latest")
        assert r1.handle.user != r2.handle.user

    def test_unknown_label_raises(self, rig):
        clock, hub, pool, engine = rig
        with pytest.raises(NoRunnerAvailable):
            pool.acquire("self-hosted-gpu")

    def test_self_hosted_registration(self, rig):
        clock, hub, pool, engine = rig
        from repro.sites.catalog import make_site

        site = make_site("anvil", clock, background_load=False)
        site.add_account("svc")
        runner = pool.register_self_hosted(
            site.login_handle("svc"), labels=["anvil-login"]
        )
        assert pool.acquire("anvil-login") is runner


class TestApprovalGates:
    def _gated(self, rig, reviewers=("alice",), wait_timer=0.0):
        clock, hub, pool, engine = rig
        hosted = hub.repo("alice/app")
        rules = sole_reviewer_rules(reviewers[0], wait_timer=wait_timer)
        rules.required_reviewers = list(reviewers)
        hosted.create_environment("alice", "hpc", protection=rules)
        workflow = """on: push
jobs:
  deploy:
    environment: hpc
    steps:
      - run: echo deployed
"""
        _push(hub, workflow)
        return engine.runs[0]

    def test_run_waits_for_approval(self, rig):
        run = self._gated(rig)
        assert run.status == "waiting"
        assert run.pending_approvals() == ["deploy"]

    def test_approval_executes_job(self, rig):
        clock, hub, pool, engine = rig
        run = self._gated(rig)
        engine.approve(run, "deploy", "alice")
        assert run.status == "success"
        assert run.job("deploy").approved_by == "alice"

    def test_non_reviewer_cannot_approve(self, rig):
        clock, hub, pool, engine = rig
        run = self._gated(rig)
        with pytest.raises(PermissionDenied):
            engine.approve(run, "deploy", "mallory")
        assert run.status == "waiting"

    def test_rejection_fails_job(self, rig):
        clock, hub, pool, engine = rig
        run = self._gated(rig)
        engine.reject(run, "deploy", "alice")
        assert run.status == "failure"

    def test_double_approval_rejected(self, rig):
        clock, hub, pool, engine = rig
        run = self._gated(rig)
        engine.approve(run, "deploy", "alice")
        with pytest.raises(ApprovalRequired):
            engine.approve(run, "deploy", "alice")

    def test_wait_timer_delays_execution(self, rig):
        clock, hub, pool, engine = rig
        run = self._gated(rig, wait_timer=300.0)
        before = clock.now
        engine.approve(run, "deploy", "alice")
        assert clock.now >= before + 300.0

    def test_environment_secrets_only_after_approval(self, rig):
        clock, hub, pool, engine = rig
        hosted = hub.repo("alice/app")
        env = hosted.create_environment(
            "alice", "hpc", protection=sole_reviewer_rules("alice")
        )
        env.secrets.set("TOKEN", "s3cret", set_by="alice")
        workflow = """on: push
jobs:
  deploy:
    environment: hpc
    steps:
      - run: echo token=${{ secrets.TOKEN }}
"""
        _push(hub, workflow)
        run = engine.runs[0]
        assert run.status == "waiting"
        engine.approve(run, "deploy", "alice")
        outcome = run.job("deploy").step_outcomes[0]
        assert outcome.outputs["stdout"] == "token=s3cret"


class TestBuiltinActions:
    def test_checkout_clones_repo_onto_runner(self, rig):
        clock, hub, pool, engine = rig
        workflow = """on: push
jobs:
  j:
    steps:
      - name: checkout
        id: co
        uses: actions/checkout@v4
      - name: inspect
        run: cat app/README.md
"""
        _push(hub, workflow)
        run = engine.runs[0]
        assert run.status == "success"
        assert run.job("j").step_outcomes[1].outputs["stdout"] == "app\n"

    def test_upload_artifact_roundtrip(self, rig):
        clock, hub, pool, engine = rig
        workflow = """on: push
jobs:
  j:
    steps:
      - name: checkout
        uses: actions/checkout@v4
      - name: save
        uses: actions/upload-artifact@v4
        with:
          name: readme
          path: app/README.md
"""
        _push(hub, workflow)
        run = engine.runs[0]
        assert run.status == "success"
        artifact = hub.artifacts.download(run.run_id, "readme")
        assert artifact.content == "app\n"

    def test_upload_artifact_missing_path_fails(self, rig):
        clock, hub, pool, engine = rig
        workflow = """on: push
jobs:
  j:
    steps:
      - name: save
        uses: actions/upload-artifact@v4
        with:
          name: ghost
          path: missing.txt
"""
        _push(hub, workflow)
        assert engine.runs[0].status == "failure"

    def test_upload_artifact_ignore_missing(self, rig):
        clock, hub, pool, engine = rig
        workflow = """on: push
jobs:
  j:
    steps:
      - name: save
        uses: actions/upload-artifact@v4
        with:
          name: ghost
          path: missing.txt
          if-no-files-found: ignore
"""
        _push(hub, workflow)
        assert engine.runs[0].status == "success"

    def test_setup_python(self, rig):
        clock, hub, pool, engine = rig
        workflow = """on: push
jobs:
  j:
    steps:
      - name: py
        id: py
        uses: actions/setup-python@v5
        with:
          python-version: '3.12'
"""
        _push(hub, workflow)
        outcome = engine.runs[0].job("j").step_outcomes[0]
        assert outcome.outputs["python-version"] == "3.12"

    def test_unknown_action_fails_step(self, rig):
        clock, hub, pool, engine = rig
        workflow = """on: push
jobs:
  j:
    steps:
      - name: mystery
        uses: nobody/ghost@v1
"""
        _push(hub, workflow)
        run = engine.runs[0]
        assert run.status == "failure"
        assert "UnknownActionError" in run.job("j").step_outcomes[0].error


class TestDispatchInputs:
    def test_inputs_context_available(self, rig):
        clock, hub, pool, engine = rig
        workflow = """on: workflow_dispatch
jobs:
  j:
    steps:
      - name: use input
        run: echo target=${{ inputs.target }}
"""
        _push(hub, workflow)
        hub.dispatch_workflow(
            "alice/app", actor="alice", workflow="ci.yml",
            inputs={"target": "expanse"},
        )
        run = engine.runs[-1]
        assert run.status == "success"
        outcome = run.job("j").step_outcomes[0]
        assert outcome.outputs["stdout"] == "target=expanse"


class TestMultipleWorkflows:
    def test_push_triggers_every_matching_workflow(self, rig):
        clock, hub, pool, engine = rig
        files = {
            ".github/workflows/a.yml": SIMPLE,
            ".github/workflows/b.yml": SIMPLE.replace("CI", "CI-2"),
            "README.md": "x\n",
        }
        hub.push_commit("alice/app", author="alice", message="ci", files=files)
        names = sorted(r.workflow.name for r in engine.runs)
        assert names == ["CI", "CI-2"]
        assert all(r.status == "success" for r in engine.runs)


class _StallingAction:
    """A marketplace action whose step future nothing ever resolves."""

    def run_async(self, ctx):
        return Future(ctx.engine.clock)


STALLED = """on: push
jobs:
  a:
    steps:
      - name: stall
        uses: acme/stall@v1
      - name: cleanup
        if: '${{ always() }}'
        run: echo cleaning
  b:
    steps:
      - name: fine
        run: echo fine
"""


class TestStalledStep:
    """A step whose future nothing can resolve fails its job like any
    failed step (§5.3), whether or not the wave's jobs share one wait."""

    @pytest.mark.parametrize("concurrent_jobs", [False, True])
    def test_stalled_step_fails_and_always_steps_still_run(self, concurrent_jobs):
        clock = SimClock()
        hub = HubService(clock)
        pool = RunnerPool(clock, package_index=standard_index())
        engine = Engine(
            hub, pool, services=EngineServices(), concurrent_jobs=concurrent_jobs
        )
        hub.marketplace.publish("acme/stall@v1", _StallingAction())
        hub.create_user("alice")
        hub.create_repo("alice/app", owner="alice")
        _push(hub, STALLED)
        run = engine.runs[0]
        job_a = run.job("a")
        assert [o.status for o in job_a.step_outcomes] == ["failure", "success"]
        assert job_a.step_outcomes[0].error == (
            "TaskFailed: deadlock: future pending but no events are scheduled"
        )
        assert job_a.status == "failure"
        assert [o.status for o in run.job("b").step_outcomes] == ["success"]
        finished = [
            e.data["status"] for e in engine.events.query(kind="step.finished")
            if e.data["job"] == "a"
        ]
        assert finished == ["failure", "success"]
        jobs_finished = [
            e.data["status"] for e in engine.events.query(kind="job.finished")
            if e.data["job"] == "a"
        ]
        assert jobs_finished == ["failure"]
        assert not any("pending with no events" in line for line in run.log)
