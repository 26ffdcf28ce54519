"""FIG5 — PSI/J test invocation failure surfaced by CORRECT (paper Fig. 5,
§6.2).

Runs the PSI/J CI suite on Purdue Anvil's login node via a login-only MEP.
With PSI/J v0.9.9 the run *fails* (the batch-attribute renderer defect);
the experiment's claims are that (top pane) the failure text reaches the
Action log, and (bottom pane) the full stdout/stderr are stored as
workflow artifacts regardless of the failure.
"""

import pytest

from repro.experiments import run_fig5


@pytest.fixture(scope="module")
def result():
    return run_fig5()


def test_fig5_failure_reporting(emit, result):
    ui_lines = [
        line for line in result.run.log
        if "exited" in line or "FAILED" in line or "ERROR" in line
    ]
    text = (
        "run status: " + result.run.status
        + "\n\n--- Action UI (run log excerpt, Fig. 5 top) ---\n"
        + "\n".join(ui_lines)
        + "\n\n--- stored stdout artifact (Fig. 5 bottom, head) ---\n"
        + "\n".join(result.stdout_artifact.splitlines()[:14])
    )
    emit("fig5_psij", text)

    assert result.run_failed


def test_fig5_the_failing_test_is_the_known_bug(result):
    assert list(result.failing_tests) == ["test_batch_attributes"]
    outcome, _duration = result.failing_tests["test_batch_attributes"]
    assert outcome in ("FAILED", "ERROR")


def test_fig5_failure_text_reaches_action_ui(result):
    assert result.failure_reported_in_ui()


def test_fig5_artifacts_survive_the_failure(result):
    assert "test_batch_attributes" in result.stdout_artifact
    # pip's install log is part of the stored output (visible in Fig. 5)
    assert "Requirement already satisfied" in result.stdout_artifact


def test_fig5_remaining_tests_pass(result):
    outcomes = [o for o, _ in result.tests.values()]
    assert outcomes.count("PASSED") == len(outcomes) - 1
