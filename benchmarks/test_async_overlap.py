"""ASYNC — multi-site overlap from the deferred task lifecycle.

Reruns the §6.1 ParslDock workload in two modes: each site alone (the
seed's serialized behaviour) and all three sites in one run with
concurrent jobs. With submit→result decoupled into futures, FASTER's
pilot queue wait overlaps Expanse's test execution in virtual time, so
the concurrent makespan lands well under the serialized total while the
per-site Fig. 4 series are unchanged.

Expected shape:
* makespan strictly below the sum of the per-site serialized durations;
* makespan at least as large as the slowest single site (no free lunch);
* speedup roughly 2x for the three-site configuration.
"""

import pytest

from repro.analysis.tables import format_table
from repro.experiments import run_fig4_overlap


@pytest.fixture(scope="module")
def result():
    return run_fig4_overlap()


def test_async_overlap_makespan(emit, result):
    rows = [
        [site, f"{duration:.1f}"]
        for site, duration in result.per_site_serialized.items()
    ]
    rows.append(["serialized total", f"{result.serialized_total:.1f}"])
    rows.append(["concurrent makespan", f"{result.makespan:.1f}"])
    rows.append(["speedup", f"{result.speedup:.2f}x"])
    emit(
        "async_overlap",
        format_table(["configuration", "virtual seconds"], rows),
    )

    assert result.makespan < result.serialized_total


def test_async_overlap_bounded_below_by_slowest_site(result):
    slowest = max(result.per_site_serialized.values())
    # concurrency can hide the other sites, not the critical path
    assert result.makespan >= slowest * 0.9


def test_async_overlap_durations_intact(result):
    """The concurrent run still yields every per-test duration series."""
    assert set(result.durations) == set(result.per_site_serialized)
    lengths = {len(series) for series in result.durations.values()}
    assert len(lengths) == 1 and lengths.pop() > 0
