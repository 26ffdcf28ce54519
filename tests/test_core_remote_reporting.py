"""Unit tests for CORRECT's remote function bodies, the driver, and
result reporting/parsing."""

import pytest

from repro.core.driver import CorrectResult, execute_correct, register_helpers
from repro.core.inputs import CorrectInputs
from repro.core.remote import (
    CLONE_DIR_NAME,
    capture_environment,
    clone_repository,
    read_file,
    run_shell_command,
)
from repro.core.reporting import (
    fetch_remote_report,
    parse_pytest_stdout,
    summarize_result,
)
from repro.errors import CloneFailed, InvalidCredentials, TaskFailed
from repro.experiments import common
from repro.faas.client import ComputeClient
from repro.faas.functions import FunctionContext
from repro.world import World


@pytest.fixture
def rig():
    world = World()
    user = world.register_user("u", {"faster": "x-u"})
    common.provision_user_site(
        world, user, "faster", "x-u", "ci", {"pytest": ">=8"}
    )
    from repro.apps.parsldock import suite as pd

    world.hub.create_repo("org/app", owner="u")
    world.hub.push_commit(
        "org/app", author="u", message="init", files=pd.repo_files()
    )
    mep = common.deploy_site_mep(world, "faster")
    return world, user, mep


def _fctx(world, site="faster", user="x-u"):
    handle = world.site(site).login_handle(user)
    return FunctionContext(handle=handle, shell_services=world.shell_services())


class TestRemoteFunctions:
    def test_clone_repository(self, rig):
        world, user, mep = rig
        result = clone_repository(_fctx(world), "org/app", "main")
        assert result["path"].endswith(f"{CLONE_DIR_NAME}/app")
        assert result["sha"] == world.hub.repo("org/app").repository.head()
        handle = world.site("faster").login_handle("x-u")
        assert handle.fs_exists(result["path"] + "/.repro-suite")

    def test_clone_replaces_stale_checkout(self, rig):
        world, user, mep = rig
        first = clone_repository(_fctx(world), "org/app", "main")
        world.hub.push_commit(
            "org/app", author="u", message="update",
            patch={"NEW.md": "fresh\n"},
        )
        second = clone_repository(_fctx(world), "org/app", "main")
        assert second["sha"] != first["sha"]
        handle = world.site("faster").login_handle("x-u")
        assert handle.fs_read(second["path"] + "/NEW.md") == "fresh\n"

    def test_clone_unknown_repo_raises(self, rig):
        world, user, mep = rig
        with pytest.raises(RuntimeError):
            clone_repository(_fctx(world), "ghost/none", "main")

    def test_run_shell_command_success(self, rig):
        world, user, mep = rig
        result = run_shell_command(_fctx(world), "echo out", cwd="/home/x-u")
        assert result["exit_code"] == 0
        assert result["stdout"] == "out"
        assert result["environment"]["site"] == "faster"

    def test_run_shell_command_bad_cwd(self, rig):
        world, user, mep = rig
        result = run_shell_command(_fctx(world), "echo out", cwd="/nope")
        assert result["exit_code"] != 0

    def test_run_shell_command_bad_conda_env(self, rig):
        world, user, mep = rig
        result = run_shell_command(
            _fctx(world), "echo out", cwd="", conda_env="ghost"
        )
        assert result["exit_code"] != 0

    def test_capture_environment(self, rig):
        world, user, mep = rig
        snapshot = capture_environment(_fctx(world), conda_env="ci")
        assert snapshot["site"] == "faster"
        assert snapshot["conda_env"] == "ci"
        assert any(p.startswith("pytest==") for p in snapshot["packages"])

    def test_read_file(self, rig):
        world, user, mep = rig
        handle = world.site("faster").login_handle("x-u")
        handle.fs_write("/home/x-u/data.json", '{"k": 1}')
        assert read_file(_fctx(world), "/home/x-u/data.json") == '{"k": 1}'


class TestDriver:
    def _inputs(self, user, mep, **overrides):
        base = dict(
            client_id=user.client_id,
            client_secret=user.client_secret,
            endpoint_uuid=mep.endpoint_id,
            shell_cmd="pytest",
            conda_env="ci",
        )
        base.update(overrides)
        return CorrectInputs(**base)

    def test_full_flow(self, rig):
        world, user, mep = rig
        result = execute_correct(
            world.faas, self._inputs(user, mep), "org/app", "main"
        )
        assert isinstance(result, CorrectResult)
        assert result.ok
        assert "10 passed" in result.stdout
        assert result.sha and result.clone_path

    def test_bad_credentials(self, rig):
        world, user, mep = rig
        inputs = self._inputs(user, mep, client_secret="wrong")
        with pytest.raises(InvalidCredentials):
            execute_correct(world.faas, inputs, "org/app", "main")

    def test_clone_failure(self, rig):
        world, user, mep = rig
        inputs = self._inputs(user, mep, repository="ghost/none")
        with pytest.raises(CloneFailed):
            execute_correct(world.faas, inputs, "org/app", "main")

    def test_nonzero_exit_is_a_result_not_an_exception(self, rig):
        world, user, mep = rig
        inputs = self._inputs(user, mep, shell_cmd="false", conda_env="")
        result = execute_correct(world.faas, inputs, "org/app", "main")
        assert not result.ok and result.exit_code == 1

    def test_register_helpers_idempotent(self, rig):
        world, user, mep = rig
        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        first = register_helpers(client)
        second = register_helpers(client)
        assert first == second and len(first) == 4


class TestReporting:
    def test_parse_pytest_stdout(self):
        stdout = (
            "collected 2 items\n\n"
            "tests/test_x.py::test_a PASSED [1.50s]\n"
            "tests/test_x.py::test_b FAILED [0.25s]\n"
            "noise line\n"
        )
        parsed = parse_pytest_stdout(stdout)
        assert parsed == {"test_a": ("PASSED", 1.5), "test_b": ("FAILED", 0.25)}

    def test_parse_handles_empty(self):
        assert parse_pytest_stdout("") == {}

    def test_summarize_with_tests(self):
        result = {
            "exit_code": 0,
            "stdout": "s::t PASSED [1.00s]\ns::u PASSED [2.00s]",
            "duration": 3.5,
        }
        summary = summarize_result(result)
        assert summary.startswith("OK: 2 passed, 0 failed")

    def test_summarize_failure_without_tests(self):
        assert summarize_result({"exit_code": 2, "stdout": ""}).startswith("FAIL")

    def test_fetch_remote_report(self, rig):
        world, user, mep = rig
        inputs = CorrectInputs(
            client_id=user.client_id,
            client_secret=user.client_secret,
            endpoint_uuid=mep.endpoint_id,
            shell_cmd="pytest",
            conda_env="ci",
        )
        result = execute_correct(world.faas, inputs, "org/app", "main")
        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        register_helpers(client)
        report = fetch_remote_report(
            client, mep.endpoint_id, f"{result.clone_path}/.report.json"
        )
        assert report.passed == 10 and report.failed == 0

    def test_fetch_remote_report_missing_file(self, rig):
        world, user, mep = rig
        client = ComputeClient(world.faas, user.client_id, user.client_secret)
        register_helpers(client)
        with pytest.raises(TaskFailed):
            fetch_remote_report(client, mep.endpoint_id, "/ghost/report.json")
