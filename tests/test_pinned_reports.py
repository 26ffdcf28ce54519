"""The repository's behaviour contract: pinned CLI reports, byte for byte.

Each row runs one command through ``repro.cli.main`` in-process and
asserts its exact stdout and exit code against a report committed under
``benchmarks/baselines/``. Every command is seeded and runs in virtual
time, so the same code prints the same bytes on every Python and host; a
change that moves a single figure, verdict or audit line fails here.

A pinned report is regenerated only in its own commit, saying why, never
alongside the change that moved it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.telemetry import validate_openmetrics

ROOT = Path(__file__).resolve().parents[1]
BASELINES = ROOT / "benchmarks" / "baselines"

# (id, argv, pinned file, expected exit code)
PINNED = [
    ("fig4", ["fig4"], "fig4-pinned.txt", 0),
    # the declarative suite must render exactly what the fig4 app renders
    (
        "suite-fig4",
        ["suite", "run", "suites/fig4.yaml", "--seed", "7"],
        "fig4-pinned.txt",
        0,
    ),
    # a fault-free profile runs the plain suite
    (
        "suite-fig4-none",
        ["suite", "run", "suites/fig4.yaml", "--seed", "7", "--profile", "none"],
        "fig4-pinned.txt",
        0,
    ),
    ("chaos-fig4-seed7", ["chaos", "fig4", "--seed", "7"],
     "chaos-fig4-seed7.txt", 0),
    # faster's pilot is killed under a payload at t=300.23: one
    # WalltimeExceeded retry onto a re-provisioned block
    (
        "chaos-fig4-walltime-seed11",
        ["chaos", "fig4", "--seed", "11", "--profile", "walltime"],
        "chaos-fig4-walltime-seed11.txt",
        0,
    ),
    # two partition windows on faster: NetworkPartitioned retries,
    # failovers and one breaker trip
    (
        "chaos-fig4-partition-seed2",
        ["chaos", "fig4", "--seed", "2", "--profile", "partition"],
        "chaos-fig4-partition-seed2.txt",
        0,
    ),
    ("chaos-fig5", ["chaos", "fig5"], "chaos-fig5.txt", 0),
    (
        "route-fig4",
        ["route", "fig4", "--policy", "least-loaded", "--pool-size", "2"],
        "route-fig4.txt",
        0,
    ),
    ("recover-fig4-sweep", ["recover", "fig4", "--sweep"],
     "recover-fig4-sweep.txt", 0),
    (
        "obs-fig4-seed7",
        ["obs", "fig4", "--seed", "7", "--profile", "flaky-endpoint"],
        "obs-fig4-seed7.txt",
        0,
    ),
    ("obs-fig4-none", ["obs", "fig4", "--profile", "none"],
     "obs-fig4-none.txt", 0),
    ("overload-fig4-seed7", ["overload", "fig4", "--seed", "7"],
     "overload-fig4-seed7.txt", 0),
    (
        "overload-fig4-none",
        ["overload", "fig4", "--seed", "7", "--profile", "none"],
        "overload-fig4-none.txt",
        0,
    ),
    (
        "hedge-fig4-seed7",
        ["hedge", "fig4", "--seed", "7", "--profile", "fail-slow"],
        "hedge-fig4-seed7.txt",
        0,
    ),
    (
        "hedge-fig4-none",
        ["hedge", "fig4", "--seed", "7", "--profile", "none"],
        "hedge-fig4-none.txt",
        0,
    ),
    # exit 1 by design: flaky-endpoint keeps expanse down, so its shards
    # fail deterministically
    (
        "suite-fig4-sweep-seed7",
        [
            "suite", "run", "suites/fig4-sweep.yaml", "--permute",
            "--seed", "7", "--profile", "flaky-endpoint",
            "--policy", "least-loaded", "--pool-size", "2",
        ],
        "suite-fig4-sweep-seed7.txt",
        1,
    ),
]


@pytest.mark.parametrize(
    "argv, pinned, exit_code",
    [row[1:] for row in PINNED],
    ids=[row[0] for row in PINNED],
)
def test_report_matches_pinned(argv, pinned, exit_code, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert out == (BASELINES / pinned).read_text(encoding="utf-8")
    assert code == exit_code


def test_chaos_fig5_report_is_the_same_under_python_O():
    # -O strips assert statements: a simulated test may check with
    # assert, but nothing it must do may happen inside one
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-O", "-m", "repro", "chaos", "fig5"],
        capture_output=True, text=True, encoding="utf-8", env=env, check=False,
    )
    assert done.stdout == (BASELINES / "chaos-fig5.txt").read_text(
        encoding="utf-8"
    )
    assert done.returncode == 0


def test_a_false_suite_check_fails_under_python_O():
    # the simulated suites check through shellsim.suites.check, which -O
    # does not strip: with PSI/J's Slurm cancel broken, Fig. 5 must
    # still report the cancel test as failing
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    script = (
        "import sys\n"
        "from repro.apps.psij.executors import SlurmJobExecutor\n"
        "from repro.cli import main\n"
        "SlurmJobExecutor.cancel = lambda self, job: None\n"
        "sys.exit(main(['fig5']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, encoding="utf-8", env=env, check=False,
    )
    rows = [line.split()[:2] for line in done.stdout.splitlines()]
    assert ["test_slurm_cancel", "FAILED"] in rows
    assert "failing: ['test_batch_attributes', 'test_slurm_cancel']" in (
        done.stdout.splitlines()
    )


def test_overload_export_validates_and_keeps_stdout_pinned(tmp_path, capsys):
    # "wrote ..." goes to stderr, so exporting leaves stdout pinned
    prefix = tmp_path / "overload"
    code = main(["overload", "fig4", "--seed", "7", "--export", str(prefix)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (BASELINES / "overload-fig4-seed7.txt").read_text(
        encoding="utf-8"
    )
    text = (tmp_path / "overload-openmetrics.txt").read_text(encoding="utf-8")
    assert validate_openmetrics(text)["families"] > 0


def test_recover_dump_dir_resumed_output_equals_baseline(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    code = main([
        "recover", "fig4", "--crash-at", "mid-execute", "--dump-dir", "dump",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "IDENTICAL  audit=clean" in out
    baseline = (tmp_path / "dump" / "baseline.txt").read_text(encoding="utf-8")
    resumed = (tmp_path / "dump" / "resumed-mid-execute.txt").read_text(
        encoding="utf-8"
    )
    assert resumed == baseline
