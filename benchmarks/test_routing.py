"""ROUTE — pooled Fig. 4 under pluggable placement policies.

Shards the ParslDock suite into two balanced ``pytest -k`` jobs that both
target the *site name* instead of a pinned endpoint id, on a site with a
2x-endpoint pool. Under the default ``pinned`` policy both shards
serialize through pool member 0; ``least-loaded`` spreads them, so the
makespan drops by roughly the lighter shard's runtime.

Expected shape:
* least-loaded makespan strictly below pinned on the same pool;
* two distinct endpoints used by the routed run, one by pinned;
* every routed task carries placement provenance (policy, pool, depth).
"""

import pytest

from repro.analysis.tables import format_table
from repro.apps.parsldock.suite import PARSLDOCK_SUITE
from repro.experiments.routing import SHARDS, run_fig4_pooled


@pytest.fixture(scope="module")
def comparison():
    return run_fig4_pooled(policy="least-loaded", pool_size=2)


def test_routing_makespan_cut(emit, comparison):
    pinned, routed = comparison.pinned, comparison.routed
    rows = [
        ["pinned", f"{pinned.makespan:.1f}", pinned.endpoints_used()],
        [routed.policy, f"{routed.makespan:.1f}", routed.endpoints_used()],
        ["cut", f"{100 * comparison.improvement:.1f}%", ""],
    ]
    emit(
        "routing_pooled",
        format_table(["policy", "makespan (s)", "endpoints"], rows),
    )

    assert routed.makespan < pinned.makespan
    assert comparison.routed_is_faster


def test_routing_spreads_across_pool(comparison):
    """Pinned funnels into member 0; least-loaded uses the whole pool."""
    assert comparison.pinned.endpoints_used() == 1
    assert comparison.routed.endpoints_used() == 2


def test_routing_decisions_recorded(comparison):
    """Every pool-targeted submit leaves a decision and provenance."""
    decisions = comparison.routed.decisions
    assert decisions, "router recorded no decisions"
    assert all(d.routed_by == "least-loaded" for d in decisions)
    assert all(d.pool for d in decisions)

    records = comparison.routed.world.provenance.all()
    assert records
    for record in records:
        assert record.routed_by == "least-loaded"
        assert record.pool
    # the pinned run routes through the same pool, just degenerately
    for record in comparison.pinned.world.provenance.all():
        assert record.routed_by == "pinned"


def test_shards_cover_suite_disjointly():
    """The -k shards partition the full ParslDock suite."""
    selected = [
        {case.name for case in PARSLDOCK_SUITE.select(keyword)}
        for _, keyword in SHARDS
    ]
    union = set().union(*selected)
    assert union == {case.name for case in PARSLDOCK_SUITE.cases}
    total = sum(len(names) for names in selected)
    assert total == len(union), "shard keywords overlap"
