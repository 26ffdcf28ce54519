"""The repository's behaviour contract: pinned CLI reports, byte for byte.

Each row runs one command through ``repro.cli.main`` in-process and
asserts its exact stdout and exit code against a report committed under
``benchmarks/baselines/``. Every command is seeded and runs in virtual
time, so the same code prints the same bytes on every Python and host; a
change that moves a single figure, verdict or audit line fails here.

A pinned report is regenerated only in its own commit, saying why, never
alongside the change that moved it.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.telemetry import validate_openmetrics

BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"

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
