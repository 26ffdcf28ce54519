"""EXP63 — Reproducing the KaMPIng artifact evaluation (paper §6.3).

One workflow step per artifact script, executed inside the published
container on a Chameleon instance through CORRECT, outputs stored as
workflow artifacts. The paper reports all Chameleon-scale AE experiments
reproduced; additionally the KaMPIng headline ordering
(plain ≈ kamping ≪ naive serializing) must hold in the benchmark outputs.
"""

import pytest

from repro.experiments import run_exp63


@pytest.fixture(scope="module")
def result():
    return run_exp63()


def test_exp63_all_artifacts_reproduce(emit, result):
    sections = [f"run status: {result.run.status}"]
    sections.extend(
        f"\n--- {name} ---\n{output}"
        for name, output in sorted(result.artifact_outputs.items())
    )
    emit("exp63_kamping", "\n".join(sections))

    assert result.run.status == "success"
    assert result.all_passed
    assert set(result.verdicts()) == {
        "ae-unit-tests", "ae-allgatherv-bench", "ae-sort-bench", "ae-bfs-bench",
    }


def test_exp63_headline_overhead_ordering(result):
    out = result.artifact_outputs["ae-allgatherv-bench"]
    assert "verdict: PASS" in out
    assert "plain ~ kamping << naive" in out


def test_exp63_sort_correctness_verified(result):
    out = result.artifact_outputs["ae-sort-bench"]
    assert "INCORRECT" not in out
    assert "verdict: PASS" in out


def test_exp63_outputs_stored_per_step(result):
    for name, output in result.artifact_outputs.items():
        assert output.strip(), f"{name} stored an empty artifact"
