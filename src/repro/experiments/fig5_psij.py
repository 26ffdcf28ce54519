"""Fig. 5 / §6.2: expressing PSI/J CI jobs with CORRECT on Purdue Anvil.

PSI/J's tests must run on the login node (LocalProvider), the MEP is
configured login-only, and the workflow extracts stdout/stderr as
artifacts *regardless of pass or fail*. With PSI/J v0.9.9 the run fails —
the batch-attribute renderer bug — and the experiment's point is that the
failure text reaches the Action UI (the run log) and the full outputs are
retrievable from artifacts (Fig. 5 top and bottom panes).

The experiment is declared in ``suites/fig5.yaml``; this module keeps
the historical entry point and result shape, plus the fault plan that
reproduces the defect by injection against the *fixed* suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.faults.plan import FaultPlan, TestFailure
from repro.suites import run_suite

REPO_SLUG = "exaworks/psij-python"
WORKFLOW_PATH = ".github/workflows/correct.yml"
SITE = "anvil"
SUITE = "fig5"


@dataclass
class Fig5Result:
    run: object
    stdout_artifact: str
    stderr_artifact: str
    tests: Dict[str, Tuple[str, float]]
    # the world that produced the run, for telemetry export (trace CLI)
    world: object = None

    @property
    def run_failed(self) -> bool:
        return self.run.status == "failure"

    @property
    def failing_tests(self) -> Dict[str, Tuple[str, float]]:
        return {
            name: result
            for name, result in self.tests.items()
            if result[0] in ("FAILED", "ERROR")
        }

    def failure_reported_in_ui(self) -> bool:
        """Did the failure text reach the runner-side log (Fig. 5 top)?"""
        return any("CORRECT: remote command exited" in line for line in self.run.log)


def inject_failure_plan() -> FaultPlan:
    """The fault plan reproducing Fig. 5's failing test by injection.

    Arms the exact ``AttributeError`` the v0.9.9 renderer defect raises
    against the *patched* suite — proving the fault layer converges on
    the hard-coded failure path byte for byte.
    """
    plan = FaultPlan(seed=0, profile="fig5-inject")
    plan.add(
        TestFailure(
            at=0.0,
            suite="tests/test_executors.py",
            test_name="test_batch_attributes",
            exception_type="AttributeError",
            message="'JobSpec' object has no attribute 'attributes'",
        )
    )
    return plan


def run_fig5(telemetry: bool = True, inject_failure: bool = False) -> Fig5Result:
    """Execute the §6.2 experiment; returns the run + recovered outputs.

    ``inject_failure=True`` ships the *fixed* PSI/J suite and reproduces
    the paper's failing-test artifact through the fault layer instead of
    the library defect: the run must fail identically either way.
    """
    faults = inject_failure_plan() if inject_failure else None
    suite_run = run_suite(
        SUITE,
        telemetry=telemetry,
        faults=faults,
        arm_faults="at-start" if inject_failure else "none",
        files_kwargs={"fixed": inject_failure},
    )
    return fig5_result_from(suite_run)


def fig5_result_from(suite_run) -> Fig5Result:
    """Adapt a completed suite run into the historical result shape."""
    result = suite_run.results[0]
    return Fig5Result(
        run=suite_run.run,
        stdout_artifact=result.stdout,
        stderr_artifact=result.stderr,
        tests=result.parsed or {},
        world=suite_run.world,
    )
