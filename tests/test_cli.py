"""Tests for the experiment CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("fig1", "fig4", "fig5", "exp63", "tables", "ablations"):
            args = parser.parse_args([command] if command != "fig1" else ["fig1"])
            assert args.command == command or command == "fig1"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestCommands:
    def test_fig1(self, capsys):
        assert main(["fig1", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "2016" in out and "2024" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "chameleon" in out and "queue waits" in out

    def test_fig5_exits_zero_on_expected_failure(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "test_batch_attributes" in out

    def test_exp63(self, capsys):
        assert main(["exp63"]) == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Jacamar CI" in out and "all probes demonstrated: True" in out

    def test_ablations(self, capsys):
        assert main(["ablations"]) == 0
        out = capsys.readouterr().out
        assert "amortization" in out


class TestSuiteCommand:
    def test_suite_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite"])

    def test_suite_list(self, capsys):
        assert main(["suite", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig4", "fig5", "exp63", "fig4-sweep"):
            assert name in out
        assert "instance(s)" in out

    def test_suite_show(self, capsys):
        assert main(["suite", "show", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "suite fig4" in out
        assert "chameleon" in out

    def test_suite_show_with_var_override(self, capsys):
        assert main(["suite", "show", "fig4", "--var", "site=chameleon"]) == 0
        out = capsys.readouterr().out
        assert "chameleon" in out
        assert "expanse" not in out

    def test_suite_run_exits_zero_when_all_pass(self, capsys):
        assert main(["suite", "run", "fig4", "--var", "site=chameleon"]) == 0

    def test_suite_run_exits_nonzero_on_test_failure(self, capsys):
        # unlike the legacy `fig5` command (exit 0: the failure IS the
        # reproduced result), the suite contract is exit 1 iff any
        # non-skipped instance fails
        assert main(["suite", "run", "fig5"]) == 1
        out = capsys.readouterr().out
        assert "test_batch_attributes" in out

    def test_suite_run_unknown_suite_exits_two(self, capsys):
        assert main(["suite", "run", "nope"]) == 2
        assert "no suite file found" in capsys.readouterr().err

    def test_suite_bad_var_exits_two(self, capsys):
        assert main(["suite", "show", "fig4", "--var", "badpair"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_suite_run_permute_sweep(self, capsys):
        code = main([
            "suite", "run", "fig4", "--permute", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Suite sweep — fig4" in out


def _exit_code(argv):
    """``main``'s exit code, whether it returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# one row per rejected input: argv, then a fragment of the error line
INVALID_INPUTS = [
    (["recover", "fig4", "--crash-at", "bogus"], "unknown crash point"),
    (["recover", "fig4", "--crash-at", "0"], "outside the baseline"),
    (["recover", "fig4", "--crash-at", "99999"], "outside the baseline"),
    (["overload", "fig4", "--tenants", "0"], "--tenants"),
    (["overload", "fig4", "--endpoints", "0"], "--endpoints"),
    (["hedge", "fig4", "--endpoints", "0"], "--endpoints"),
    (["route", "fig4", "--pool-size", "0"], "--pool-size"),
    (["suite", "run", "fig4-sweep", "--permute", "--pool-size", "0"],
     "--pool-size"),
    (["obs", "fig4", "--window", "0"], "--window"),
    (["suite", "run", "fig4", "--profile", "bogus"], "--profile"),
    (["suite", "run", "fig4-sweep", "--permute", "--profile", "bogus"],
     "--profile"),
    (["suite", "run", "fig4", "--policy", "bogus", "--permute"], "--policy"),
    (["suite", "run", "fig4", "--policy", "bogus"], "--policy"),
    (["overload", "fig4", "--hot-factor", "-2"], "--hot-factor"),
    (["overload", "fig4", "--hot-factor", "nan"], "--hot-factor"),
    (["obs", "fig4", "--slo", "error-rate=nan"], "threshold"),
    (["obs", "fig4", "--slo", "error-rate=2"], "threshold"),
    (["obs", "fig4", "--slo", "p95-latency=nan"], "threshold"),
    (["obs", "fig4", "--slo", "p95-latency=inf"], "threshold"),
]


@pytest.mark.parametrize(
    "argv, message",
    INVALID_INPUTS,
    ids=[" ".join(argv) for argv, _ in INVALID_INPUTS],
)
def test_invalid_input_exits_two(argv, message, capsys):
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert "error: " in last and message in last
    assert "Traceback" not in captured.err
