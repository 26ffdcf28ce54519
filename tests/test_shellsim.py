"""Unit tests for the simulated shell: parsing, commands, suites."""

import pytest

from repro.errors import ShellError
from repro.shellsim.parsing import (
    expand_variables,
    extract_assignments,
    split_chain,
    tokenize,
)
from repro.shellsim.session import ShellSession
from repro.shellsim.suites import (
    SuiteContext,
    TestOutcome,
    TestReport,
    TestSuite,
    format_pytest_output,
    load_suite,
)
from repro.sites.catalog import make_site
from repro.util.clock import SimClock


class TestParsing:
    def test_tokenize_basic(self):
        assert tokenize("echo hello world") == ["echo", "hello", "world"]

    def test_tokenize_quotes(self):
        assert tokenize("echo 'one two' \"three four\"") == [
            "echo", "one two", "three four",
        ]

    def test_tokenize_empty_quoted_arg(self):
        assert tokenize("cmd ''") == ["cmd", ""]

    def test_unterminated_quote(self):
        with pytest.raises(ShellError):
            tokenize("echo 'oops")

    def test_unsupported_syntax_rejected(self):
        for bad in ("a | b", "a > f", "ls *.txt"):
            with pytest.raises(ShellError):
                tokenize(bad)

    def test_split_chain(self):
        parts = split_chain("a && b; c")
        assert parts == [("", "a"), ("&&", "b"), (";", "c")]

    def test_split_chain_quotes_protect_operators(self):
        parts = split_chain("echo 'a && b'")
        assert parts == [("", "echo 'a && b'")]

    def test_extract_assignments(self):
        env, rest = extract_assignments(["FOO=1", "BAR=x", "cmd", "A=2"])
        assert env == {"FOO": "1", "BAR": "x"}
        assert rest == ["cmd", "A=2"]

    def test_expand_variables(self):
        env = {"NAME": "world", "X": "1"}
        assert expand_variables("hello-$NAME", env) == "hello-world"
        assert expand_variables("${X}22", env) == "122"
        assert expand_variables("$MISSING", env) == ""


@pytest.fixture
def session():
    from repro.envs.stdlib import standard_index

    site = make_site("chameleon", SimClock(), package_index=standard_index())
    site.add_account("cc")
    return ShellSession(site.login_handle("cc"))


class TestCoreCommands:
    def test_echo(self, session):
        result = session.run("echo hello")
        assert result.ok and result.stdout == "hello"

    def test_variable_expansion_in_command(self, session):
        session.run("export GREETING=hi")
        assert session.run("echo $GREETING").stdout == "hi"

    def test_prefix_assignment_is_scoped(self, session):
        result = session.run("FOO=bar env")
        assert "FOO=bar" in result.stdout
        assert "FOO" not in session.env

    def test_pwd_cd(self, session):
        assert session.run("pwd").stdout == "/home/cc"
        session.run("mkdir -p work/sub")
        session.run("cd work/sub")
        assert session.run("pwd").stdout == "/home/cc/work/sub"

    def test_cd_missing_dir_fails(self, session):
        assert not session.run("cd /nope").ok

    def test_relative_path_resolution(self, session):
        session.run("mkdir d")
        session.run("cd d")
        assert session.resolve_path("../other") == "/home/cc/other"
        assert session.resolve_path("~/x") == "/home/cc/x"

    def test_mkdir_ls_cat_rm(self, session):
        session.run("mkdir data")
        session.handle.fs_write("/home/cc/data/f.txt", "content")
        assert "f.txt" in session.run("ls data").stdout
        assert session.run("cat data/f.txt").stdout == "content"
        session.run("rm -r data")
        assert not session.handle.fs_exists("/home/cc/data")

    def test_chaining_and_stops_on_failure(self, session):
        result = session.run("false && echo never")
        assert not result.ok
        assert "never" not in result.stdout

    def test_chaining_semicolon_continues(self, session):
        result = session.run("false; echo still")
        assert result.stdout == "still"
        assert result.ok  # exit code of last command

    def test_unknown_command_127(self, session):
        result = session.run("frobnicate")
        assert result.exit_code == 127

    def test_hostname_whoami_uname(self, session):
        assert session.run("hostname").stdout.startswith("chameleon-login")
        assert session.run("whoami").stdout == "cc"
        assert "chameleon" in session.run("uname").stdout

    def test_sleep_advances_clock(self, session):
        before = session.handle.site.clock.now
        session.run("sleep 30")
        assert session.handle.site.clock.now == pytest.approx(before + 30)

    def test_module_load_list(self, session):
        session.run("module load gcc/12 openmpi/4")
        assert session.run("module list").stdout == "gcc/12:openmpi/4"


class TestPackagingCommands:
    def test_conda_create_activate_install(self, session):
        session.run("conda create -n demo")
        session.run("conda activate demo")
        assert session.active_env == "demo"
        result = session.run("pip install pytest")
        assert result.ok and "Successfully installed pytest==" in result.stdout

    def test_pip_already_satisfied(self, session):
        session.run("pip install pytest")
        result = session.run("pip install pytest")
        assert "Requirement already satisfied: pytest==" in result.stdout

    def test_pip_requirements_file(self, session):
        session.handle.fs_write(
            "/home/cc/requirements.txt", "pytest>=8\n# comment\ndill\n"
        )
        result = session.run("pip install -r requirements.txt")
        assert result.ok
        env = session.handle.conda().env("base")
        assert env.has("pytest") and env.has("dill")

    def test_pip_unknown_package_fails(self, session):
        assert not session.run("pip install no-such-package").ok

    def test_pip_freeze(self, session):
        session.run("pip install dill")
        assert any(
            line.startswith("dill==")
            for line in session.run("pip freeze").stdout.splitlines()
        )

    def test_conda_activate_missing_env_fails(self, session):
        assert not session.run("conda activate ghost").ok

    def test_conda_env_list(self, session):
        session.run("conda create -n extra")
        out = session.run("conda env list").stdout
        assert "base" in out and "extra" in out


def _passing(ctx):
    pass


def _failing(ctx):
    assert False, "intentional"


def _erroring(ctx):
    raise RuntimeError("boom")


DEMO_SUITE = TestSuite("tests/demo.py")
DEMO_SUITE.add("test_ok", work=1.0, fn=_passing)
DEMO_SUITE.add("test_fail", work=1.0, fn=_failing)
DEMO_SUITE.add("test_error", work=1.0, fn=_erroring)


class TestSuites:
    def test_duplicate_case_rejected(self):
        suite = TestSuite("s")
        suite.add("t", 1.0, _passing)
        with pytest.raises(ValueError):
            suite.add("t", 1.0, _passing)

    def test_run_outcomes(self, session):
        ctx = SuiteContext(handle=session.handle, cwd="/home/cc", env={})
        report = DEMO_SUITE.run(ctx)
        outcomes = {r.name: r.outcome for r in report.results}
        assert outcomes["test_ok"] is TestOutcome.PASSED
        assert outcomes["test_fail"] is TestOutcome.FAILED
        assert outcomes["test_error"] is TestOutcome.ERROR
        assert report.passed == 1 and report.failed == 2

    def test_keyword_selection(self, session):
        ctx = SuiteContext(handle=session.handle, cwd="/home/cc", env={})
        report = DEMO_SUITE.run(ctx, keyword="ok")
        assert [r.name for r in report.results] == ["test_ok"]

    def test_durations_positive_and_charged(self, session):
        clock = session.handle.site.clock
        before = clock.now
        ctx = SuiteContext(handle=session.handle, cwd="/home/cc", env={})
        report = DEMO_SUITE.run(ctx)
        assert clock.now > before
        assert all(r.duration > 0 for r in report.results)

    def test_report_json_roundtrip(self, session):
        ctx = SuiteContext(handle=session.handle, cwd="/home/cc", env={})
        report = DEMO_SUITE.run(ctx)
        restored = TestReport.from_json(report.to_json())
        assert restored.passed == report.passed
        assert restored.durations() == report.durations()

    def test_load_suite_by_spec(self):
        suite = load_suite("repro.apps.parsldock.suite:PARSLDOCK_SUITE")
        assert suite.name.startswith("tests/")
        with pytest.raises(ShellError):
            load_suite("no-colon")
        with pytest.raises(ShellError):
            load_suite("repro.apps.parsldock.suite:MISSING")

    def test_format_pytest_output_parseable(self, session):
        from repro.core.reporting import parse_pytest_stdout

        ctx = SuiteContext(handle=session.handle, cwd="/home/cc", env={})
        report = DEMO_SUITE.run(ctx)
        parsed = parse_pytest_stdout(format_pytest_output(report))
        assert set(parsed) == {"test_ok", "test_fail", "test_error"}


class TestPytestCommand:
    def _stage_repo(self, session, spec="repro.apps.parsldock.suite:PARSLDOCK_SUITE"):
        session.run("mkdir repo")
        session.handle.fs_write("/home/cc/repo/.repro-suite", spec)
        session.run("cd repo")

    def test_pytest_requires_tooling(self, session):
        self._stage_repo(session)
        result = session.run("pytest")
        assert result.exit_code == 127  # not installed yet

    def test_pytest_runs_suite(self, session):
        self._stage_repo(session)
        session.run("pip install pytest")
        result = session.run("pytest")
        assert result.ok
        assert "10 passed" in result.stdout
        assert session.handle.fs_exists("/home/cc/repo/.report.json")

    def test_pytest_keyword(self, session):
        self._stage_repo(session)
        session.run("pip install pytest")
        result = session.run("pytest -k smiles")
        assert "collected 1 items" in result.stdout

    def test_pytest_missing_manifest(self, session):
        session.run("mkdir empty && cd empty")
        session.run("pip install pytest")
        assert session.run("pytest").exit_code == 4

    def test_tox_creates_env_and_runs(self, session):
        self._stage_repo(session)
        session.handle.fs_write(
            "/home/cc/repo/tox.ini",
            "[tox]\nenvlist = py311\n\n[testenv]\ndeps =\n    pytest>=8\ncommands = pytest\n",
        )
        result = session.run("tox")
        # tox is gated too: must be installed in the active env first
        assert result.exit_code == 127
        session.run("pip install tox")
        result = session.run("tox")
        assert result.ok
        assert "using environment tox-cc" in result.stdout
