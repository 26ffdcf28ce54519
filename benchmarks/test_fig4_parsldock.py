"""FIG4 — ParslDock test runtimes on different machines (paper Fig. 4).

Runs the full §6.1 experiment: one workflow, three environment-gated jobs
(Chameleon / FASTER / Expanse), each executing ``pytest`` remotely through
CORRECT with per-test durations recovered from the stdout artifacts.

Expected shape (the paper's observations):
* Chameleon outperforms the other sites on most test cases;
* short tests are dominated by fixed overheads (the FaaS benefit);
* the batch sites paid a queue wait exactly once (pilot amortization).
"""

import pytest

from repro.analysis.tables import format_grouped_bars, format_table
from repro.experiments import run_fig4


@pytest.fixture(scope="module")
def result():
    return run_fig4()


def test_fig4_runtimes_per_site(emit, result):
    groups = {
        test: {site: result.durations[site][test] for site in result.durations}
        for test in result.tests()
    }
    table_rows = [
        [test] + [f"{result.durations[site][test]:.2f}" for site in result.durations]
        for test in result.tests()
    ]
    text = (
        format_table(["test case"] + list(result.durations), table_rows)
        + "\n\n"
        + format_grouped_bars(groups)
        + "\n\nper-site pilot queue wait (s): "
        + ", ".join(f"{s}={w:.1f}" for s, w in result.queue_waits.items())
    )
    emit("fig4_parsldock", text)

    assert result.run.status == "success"
    assert result.all_passed()


def test_fig4_chameleon_wins_most_tests(result):
    fastest = result.fastest_site_per_test()
    wins = sum(1 for site in fastest.values() if site == "chameleon")
    assert wins >= 8, fastest


def test_fig4_speed_ordering_on_long_tests(result):
    """On compute-bound tests the site speed ordering shows through."""
    for test in ("test_dock_single", "test_scores_reproducible"):
        assert (
            result.durations["chameleon"][test]
            < result.durations["faster"][test]
            < result.durations["expanse"][test]
        )


def test_fig4_short_tests_overhead_dominated(result):
    short, long = "test_smiles_parse", "test_scores_reproducible"
    for site in ("faster", "expanse"):
        short_ratio = (
            result.durations[site][short] / result.durations["chameleon"][short]
        )
        long_ratio = (
            result.durations[site][long] / result.durations["chameleon"][long]
        )
        assert short_ratio < long_ratio * 1.5


def test_fig4_batch_sites_paid_queue_wait_once(result):
    assert result.queue_waits["chameleon"] == 0.0
    assert result.queue_waits["faster"] > 0.0
    assert result.queue_waits["expanse"] > 0.0
