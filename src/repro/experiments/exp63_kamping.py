"""§6.3: reproducing the KaMPIng artifact evaluation with CORRECT.

The KaMPIng artifacts are scripts inside a published container image; the
workflow has one step per artifact, each executed on a Chameleon instance
through CORRECT (the paper started a MEP inside the container; we run
each artifact with ``docker run <image> <script>``, which our shell
executes in-container). Outputs are stored as workflow artifacts per
step.

The experiment is declared in ``suites/exp63.yaml`` — the suite's
``containers:`` block publishes the image and registers its commands —
and this module keeps the historical entry point, result shape, and the
repo-files factory the suite references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.apps.kamping.artifacts import (
    ARTIFACT_COMMANDS,
    KAMPING_IMAGE_REFERENCE,
)
from repro.suites import run_suite

REPO_SLUG = "kamping-site/kamping-reproducibility"
WORKFLOW_PATH = ".github/workflows/ae.yml"
SITE = "chameleon"
SUITE = "exp63"


@dataclass
class Exp63Result:
    run: object
    artifact_outputs: Dict[str, str]  # artifact name -> stdout
    # the world that produced the run, for telemetry export (trace CLI)
    world: object = None

    @property
    def all_passed(self) -> bool:
        return self.run.status == "success" and all(
            "verdict: PASS" in out or "passed" in out
            for out in self.artifact_outputs.values()
        )

    def verdicts(self) -> Dict[str, bool]:
        return {
            name: ("verdict: PASS" in out or "passed" in out)
            for name, out in self.artifact_outputs.items()
        }


def repo_files() -> Dict[str, str]:
    return {
        "README.md": (
            "# KaMPIng reproducibility\n\nArtifact scripts are baked into "
            f"the container `{KAMPING_IMAGE_REFERENCE}`; run each via the "
            "workflow.\n"
        ),
        "scripts/run-all.sh": "\n".join(
            f"docker run {KAMPING_IMAGE_REFERENCE} {name}"
            for name in sorted(ARTIFACT_COMMANDS)
        )
        + "\n",
    }


def run_exp63(telemetry: bool = True) -> Exp63Result:
    """Execute the §6.3 experiment; returns per-artifact outputs."""
    return exp63_result_from(run_suite(SUITE, telemetry=telemetry))


def exp63_result_from(suite_run) -> Exp63Result:
    """Adapt a completed suite run into the historical result shape."""
    outputs: Dict[str, str] = {
        str(result.instance.variables["artifact"]): result.stdout
        for result in suite_run.results
    }
    return Exp63Result(
        run=suite_run.run, artifact_outputs=outputs, world=suite_run.world
    )
