"""Repeatability evaluation: fork, swap endpoint, re-run, compare.

Implements the paper's §5.3 recipe for non-contributors:

1. fork the repository,
2. instantiate their own endpoint,
3. save their FaaS secrets in a GitHub environment,
4. swap the endpoint UUID in the workflow,
5. trigger the workflow.

:func:`evaluate_repeatability` automates all five steps in a
:class:`~repro.world.World` and compares per-test outcomes between the
original run and the fork's run on different infrastructure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.actions.engine import WorkflowRun
from repro.core.reporting import parse_pytest_stdout
from repro.core.security import sole_reviewer_rules
from repro.errors import CorrectError


@dataclass
class RepeatabilityEvaluation:
    """Outcome of one fork-and-rerun evaluation."""

    original_slug: str
    fork_slug: str
    original_run: WorkflowRun
    fork_run: WorkflowRun
    original_tests: Dict[str, Tuple[str, float]] = field(default_factory=dict)
    fork_tests: Dict[str, Tuple[str, float]] = field(default_factory=dict)

    @property
    def same_tests_ran(self) -> bool:
        return set(self.original_tests) == set(self.fork_tests) and bool(
            self.original_tests
        )

    @property
    def outcomes_match(self) -> bool:
        """Identical pass/fail per test — the repeatability criterion.

        Durations are expected to differ across infrastructure; outcomes
        are not (§3.1.1: validate claims, not identical numbers).
        """
        if not self.same_tests_ran:
            return False
        return all(
            self.original_tests[name][0] == self.fork_tests[name][0]
            for name in self.original_tests
        )

    def duration_ratios(self) -> Dict[str, float]:
        """fork duration / original duration per common test."""
        out: Dict[str, float] = {}
        for name in set(self.original_tests) & set(self.fork_tests):
            original = self.original_tests[name][1]
            forked = self.fork_tests[name][1]
            if original > 0:
                out[name] = forked / original
        return out


def _swap_endpoint_uuid(workflow_text: str, new_uuid: str) -> str:
    """Replace the ENDPOINT_UUID env value in a workflow document."""
    pattern = re.compile(r"(ENDPOINT_UUID:\s*)('[^']*'|\S+)")
    if not pattern.search(workflow_text):
        raise CorrectError(
            "workflow has no ENDPOINT_UUID env entry to swap"
        )
    return pattern.sub(lambda m: f"{m.group(1)}{new_uuid}", workflow_text)


def evaluate_repeatability(
    world,
    slug: str,
    original_run: WorkflowRun,
    evaluator,
    endpoint_uuid: str,
    workflow_path: str = ".github/workflows/correct.yml",
    environment_name: str = "hpc",
    artifact_name: str = "correct-stdout",
) -> RepeatabilityEvaluation:
    """Run the §5.3 fork-and-swap recipe; returns the comparison.

    ``evaluator`` is a :class:`~repro.world.WorldUser` who owns
    ``endpoint_uuid``; ``original_run`` is the baseline run whose stdout
    artifact holds the reference test outcomes.
    """
    hub = world.hub
    hub.repo(slug)

    # 1. fork
    fork = hub.fork(slug, evaluator.login)

    # 2-3. environment with the evaluator as sole reviewer + their secrets
    env = fork.create_environment(
        evaluator.login, environment_name,
        protection=sole_reviewer_rules(evaluator.login),
    )
    env.secrets.set("GLOBUS_ID", evaluator.client_id, set_by=evaluator.login)
    env.secrets.set("GLOBUS_SECRET", evaluator.client_secret, set_by=evaluator.login)

    # 4. swap the endpoint UUID in the workflow file
    workflow_text = fork.repository.read_file(
        fork.repository.default_branch, workflow_path
    )
    swapped = _swap_endpoint_uuid(workflow_text, endpoint_uuid)

    # 5. trigger by pushing the swapped workflow
    runs_before = len(world.engine.runs)
    hub.push_commit(
        fork.slug,
        author=evaluator.login,
        message="Swap endpoint for repeatability evaluation",
        patch={workflow_path: swapped},
    )
    new_runs = world.engine.runs[runs_before:]
    fork_runs = [r for r in new_runs if r.repo_slug == fork.slug]
    if not fork_runs:
        raise CorrectError(
            f"pushing to {fork.slug} triggered no workflow run"
        )
    fork_run = fork_runs[-1]

    # the evaluator approves their own environment-gated job(s)
    while fork_run.status == "waiting":
        for job_id in fork_run.pending_approvals():
            world.engine.approve(fork_run, job_id, evaluator.login)

    original_tests = _tests_from_artifact(world, original_run, artifact_name)
    fork_tests = _tests_from_artifact(world, fork_run, artifact_name)
    return RepeatabilityEvaluation(
        original_slug=slug,
        fork_slug=fork.slug,
        original_run=original_run,
        fork_run=fork_run,
        original_tests=original_tests,
        fork_tests=fork_tests,
    )


def _tests_from_artifact(
    world, run: WorkflowRun, artifact_name: str
) -> Dict[str, Tuple[str, float]]:
    artifact = world.hub.artifacts.download(run.run_id, artifact_name)
    return parse_pytest_stdout(artifact.content)
