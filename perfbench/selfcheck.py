"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Import guard: the benchmark's own files import nothing from
   ``repro.experiments`` or ``repro.cli``, and the guard catches both.
2. Seed determinism: on every workload, two runs with one seed print
   identical inputs, op counts and virtual figures (success share
   included), and a second seed generates different inputs.
3. The correctness check flags a real reproducer: the ``planes``
   generator with a per-task deadline of 240 virtual seconds, overload
   protection off and a 600 virtual-second horizon double-resolves
   futures. With seed 7 the run crashes with ``RuntimeError: future
   already resolved`` (``FaaSService._finalize`` →
   ``TaskFuture._resolve``); with seed 1 the second resolution is
   swallowed and tasks end in SUCCESS while their futures hold the
   deadline error. Each must be reported as its own kind of violation;
   this is why ``planes`` runs without deadlines.

Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import (  # noqa: E402
    ResolutionGuard,
    forbidden_imports,
    import_violations,
)

WORKLOADS = ("spine", "durable", "planes", "ci")
REPRODUCER_DEADLINE = 240.0
REPRODUCER_HORIZON = 600.0
# seed -> the violation its run must report
REPRODUCER_CASES = {
    7: "RuntimeError: future already resolved",
    1: "tasks whose terminal state disagrees with their future",
}


def check_import_guard():
    problems = [f"benchmark file {v}" for v in import_violations(HERE)]
    for planted in ("from repro.experiments import common", "import repro.cli",
                    "from repro import experiments"):
        if not forbidden_imports(planted, "planted.py"):
            problems.append(f"the import guard missed {planted!r}")
    return problems


def _run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, check=False,
    )
    lines = out.stdout.splitlines()
    header = next((line for line in lines if line.startswith("workload ")), "")
    virtual = next((line for line in lines if line.startswith("virtual: ")), "")
    result = json.loads(lines[-1]) if lines else {}
    return {
        "ok": out.returncode == 0 and result.get("correct") is True,
        "inputs": header.split("inputs ")[-1],
        "virtual": json.loads(virtual[len("virtual: "):]) if virtual else None,
    }


def check_determinism(seed=3):
    problems = []
    for workload in WORKLOADS:
        first, second, other = _run(workload, seed), _run(workload, seed), _run(workload, seed + 1)
        for label, run in (("first", first), ("second", second), ("other", other)):
            if not run["ok"]:
                problems.append(f"{workload}: the {label} run failed its checks")
        if first["inputs"] != second["inputs"] or first["virtual"] != second["virtual"]:
            problems.append(f"{workload}: two runs with seed {seed} differ")
        if first["inputs"] == other["inputs"]:
            problems.append(f"{workload}: seeds {seed} and {seed + 1} give the same inputs")
        print(f"  {workload}: seed {seed} x2 -> {first['virtual']}; "
              f"seed {seed + 1} inputs {other['inputs']}")
    return problems


def check_reproducer():
    """Run each reproducer through the benchmark's own round and checks."""
    from run import GcMeter, run_round
    from workloads import Planes

    guard, meter = ResolutionGuard().install(), GcMeter()
    problems = []
    for seed, expected in REPRODUCER_CASES.items():
        workload = Planes(
            seed, scratch=HERE, horizon=REPRODUCER_HORIZON,
            deadline=REPRODUCER_DEADLINE, protection=False,
        )
        found = run_round(workload, 0, guard, meter).summary.violations
        print(f"  seed {seed}: {len(workload.arrivals[0])} arrivals -> {found}")
        if not any(expected in violation for violation in found):
            problems.append(f"reproducer seed {seed}: no {expected!r} in {found}")
    return problems


def main():
    problems = []
    for name, check in (
        ("import guard", check_import_guard),
        ("seed determinism", check_determinism),
        ("deadline reproducer", check_reproducer),
    ):
        print(f"{name}:")
        found = check()
        problems += found
        print("  ok" if not found else "\n".join(f"  FAIL {p}" for p in found))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
