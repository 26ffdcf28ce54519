"""Tests for job matrix expansion (strategy: matrix)."""

import pytest

from repro.actions.engine import Engine, EngineServices
from repro.actions.runner import RunnerPool
from repro.actions.workflow import JobDef, StepDef, parse_workflow
from repro.core.security import sole_reviewer_rules
from repro.envs.stdlib import standard_index
from repro.errors import WorkflowParseError
from repro.experiments import common
from repro.hub.service import HubService
from repro.util.clock import SimClock
from repro.world import World

MATRIX_WORKFLOW = """on: push
jobs:
  test:
    strategy:
      matrix:
        py: ['3.11', '3.12']
        os: [ubuntu-latest]
    steps:
      - name: report
        run: echo py=${{ matrix.py }} os=${{ matrix.os }}
"""


class TestParsing:
    def test_matrix_parsed(self):
        workflow = parse_workflow(MATRIX_WORKFLOW)
        job = workflow.jobs["test"]
        assert job.matrix == {"py": ["3.11", "3.12"], "os": ["ubuntu-latest"]}
        combos = job.matrix_combinations()
        assert len(combos) == 2
        assert {c["py"] for c in combos} == {"3.11", "3.12"}

    def test_empty_matrix_values_rejected(self):
        with pytest.raises(WorkflowParseError):
            JobDef(
                id="j",
                steps=[StepDef(name="s", run="x")],
                matrix={"py": []},
            )

    def test_no_matrix_single_combination(self):
        job = JobDef(id="j", steps=[StepDef(name="s", run="x")])
        assert job.matrix_combinations() == [{}]


@pytest.fixture
def rig():
    clock = SimClock()
    hub = HubService(clock)
    pool = RunnerPool(clock, package_index=standard_index())
    engine = Engine(hub, pool, services=EngineServices())
    hub.create_user("alice")
    hub.create_repo("alice/app", owner="alice")
    return hub, engine


class TestExecution:
    def test_instances_run_independently(self, rig):
        hub, engine = rig
        hub.push_commit(
            "alice/app", author="alice", message="ci",
            files={".github/workflows/ci.yml": MATRIX_WORKFLOW},
        )
        run = engine.runs[0]
        assert run.status == "success"
        assert len(run.jobs) == 2
        outputs = {
            jr.job_id: jr.step_outcomes[0].outputs["stdout"]
            for jr in run.jobs.values()
        }
        assert outputs == {
            "test (os=ubuntu-latest, py=3.11)": "py=3.11 os=ubuntu-latest",
            "test (os=ubuntu-latest, py=3.12)": "py=3.12 os=ubuntu-latest",
        }

    def test_one_failing_instance_fails_run_only(self, rig):
        hub, engine = rig
        workflow = """on: push
jobs:
  test:
    strategy:
      matrix:
        cmd: ['true', 'false']
    steps:
      - run: ${{ matrix.cmd }}
"""
        hub.push_commit(
            "alice/app", author="alice", message="ci",
            files={".github/workflows/ci.yml": workflow},
        )
        run = engine.runs[0]
        statuses = sorted(jr.status for jr in run.jobs.values())
        assert statuses == ["failure", "success"]
        assert run.status == "failure"

    def test_dependent_waits_for_all_instances(self, rig):
        hub, engine = rig
        workflow = """on: push
jobs:
  fan:
    strategy:
      matrix:
        n: [1, 2, 3]
    steps:
      - run: echo ${{ matrix.n }}
  gather:
    needs: fan
    steps:
      - run: echo all-done
"""
        hub.push_commit(
            "alice/app", author="alice", message="ci",
            files={".github/workflows/ci.yml": workflow},
        )
        run = engine.runs[0]
        assert run.status == "success"
        assert run.job("gather").status == "success"

    def test_dependent_skipped_if_any_instance_fails(self, rig):
        hub, engine = rig
        workflow = """on: push
jobs:
  fan:
    strategy:
      matrix:
        cmd: ['true', 'false']
    steps:
      - run: ${{ matrix.cmd }}
  gather:
    needs: fan
    steps:
      - run: echo never
"""
        hub.push_commit(
            "alice/app", author="alice", message="ci",
            files={".github/workflows/ci.yml": workflow},
        )
        run = engine.runs[0]
        assert run.job("gather").status == "skipped"


class TestMatrixWithEnvironments:
    def test_fig4_as_one_matrix_job(self):
        """The §6.1 workflow, expressed as a single matrix job whose
        environment name references the matrix — per-site approval gates
        and per-site endpoints included."""
        world = World()
        user = world.register_user("vhayot", {})
        endpoints = {}
        for site in ("chameleon", "faster"):
            common.provision_user_site(
                world, user, site, f"a-{site}", "docking",
                common.DOCKING_STACK,
            )
            endpoints[site] = common.deploy_site_mep(world, site).endpoint_id
        workflow = """on: push
jobs:
  test:
    strategy:
      matrix:
        site: [chameleon, faster]
    environment: hpc-${{ matrix.site }}
    steps:
      - name: remote pytest
        uses: globus-labs/correct@v1
        with:
          client_id: '${{ secrets.GLOBUS_ID }}'
          client_secret: '${{ secrets.GLOBUS_SECRET }}'
          endpoint_uuid: '${{ secrets.ENDPOINT_UUID }}'
          shell_cmd: pytest
          conda_env: docking
          artifact_prefix: correct-${{ matrix.site }}
"""
        from repro.apps.parsldock import suite as pd

        files = dict(pd.repo_files())
        files[".github/workflows/ci.yml"] = workflow
        hosted = world.hub.create_repo("vhayot/matrix-fig4", owner="vhayot")
        for site in endpoints:
            env = hosted.create_environment(
                "vhayot", f"hpc-{site}",
                protection=sole_reviewer_rules("vhayot"),
            )
            env.secrets.set("GLOBUS_ID", user.client_id, set_by="vhayot")
            env.secrets.set("GLOBUS_SECRET", user.client_secret, set_by="vhayot")
            env.secrets.set("ENDPOINT_UUID", endpoints[site], set_by="vhayot")
        world.hub.push_commit(
            "vhayot/matrix-fig4", author="vhayot", message="ci", files=files
        )
        run = world.engine.runs[-1]
        common.approve_all(world, run, "vhayot")
        assert run.status == "success", "\n".join(run.log)
        for site in endpoints:
            artifact = world.hub.artifacts.download(
                run.run_id, f"correct-{site}-stdout"
            )
            assert "10 passed" in artifact.content
