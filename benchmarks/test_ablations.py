"""ABL1–ABL4 — ablations of DESIGN.md's called-out design choices.

* ABL1 (§7.3): pilot-job reuse vs per-task batch allocations, and the
  resulting amortization factor.
* ABL2 (§5.2): every security mechanism exercised in both directions.
* ABL3 (§6.2): PSI/J's cron CI vs CORRECT on freshness and review gating,
  plus the §7.4 artifact-retention comparison.
* ABL4 (§7.3): task round-trip latency as a function of the FaaS cloud
  overhead setting.
"""

import statistics

import pytest

from repro.analysis.tables import format_table
from repro.experiments.ablations import (
    cloud_overhead_sweep,
    cron_vs_correct,
    overhead_ablation,
    retention_ablation,
    security_ablation,
)


def test_abl1_pilot_vs_per_task_overhead(emit):
    result = overhead_ablation(n_tasks=6)
    rows = [
        [i + 1, f"{p:.1f}", f"{q:.1f}"]
        for i, (p, q) in enumerate(
            zip(result.pilot_latencies, result.per_task_latencies)
        )
    ]
    text = (
        format_table(["task #", "pilot (s)", "per-task allocation (s)"], rows)
        + f"\n\namortization factor (steady-state): {result.amortization_factor:.1f}x"
    )
    emit("ablation1_overhead", text)

    # first pilot task pays the queue wait; the rest are near-free
    assert result.pilot_latencies[0] > 10 * result.pilot_latencies[1]
    # per-task allocation pays the queue every time
    assert statistics.mean(result.per_task_latencies) > 10 * statistics.mean(
        result.pilot_latencies[1:]
    )
    assert result.amortization_factor > 5


def test_abl2_security_mechanisms(emit):
    results = security_ablation()
    rows = [[check, "holds" if ok else "VIOLATED"] for check, ok in results.items()]
    emit("ablation2_security", format_table(["mechanism", "result"], rows))
    assert all(results.values()), results
    # the ablation covers all three §5.2 mechanisms plus token hygiene
    assert {
        "gate_blocks_until_approval",
        "gate_rejects_non_reviewer",
        "allowlist_blocks_unapproved_function",
        "unmapped_identity_rejected",
        "expired_token_rejected",
        "branch_filter_blocks_other_branches",
    } <= set(results)


def test_abl3_cron_vs_correct(emit):
    result = cron_vs_correct()
    text = format_table(
        ["property", "PSI/J cron CI", "CORRECT"],
        [
            [
                "result staleness after a push (s)",
                f"{result.cron_staleness_after_push:.0f}",
                f"{result.correct_staleness_after_push:.0f}",
            ],
            [
                "review required before HPC execution",
                str(result.cron_requires_review),
                str(result.correct_requires_review),
            ],
            [
                "maps code author to site account",
                str(result.cron_maps_author_to_account),
                "True (reviewer owns the identity)",
            ],
            ["catches the v0.9.9 failure", str(result.both_catch_failure), "True"],
        ],
    )
    emit("ablation3_cron_vs_correct", text)

    assert result.cron_staleness_after_push > 10 * result.correct_staleness_after_push
    assert result.correct_requires_review and not result.cron_requires_review
    assert result.both_catch_failure


def test_abl3_artifact_retention(emit):
    results = retention_ablation()
    rows = [[check, str(ok)] for check, ok in results.items()]
    emit("ablation3_retention", format_table(["check", "result"], rows))
    assert all(results.values()), results


def test_abl4_cloud_overhead_sweep(emit):
    result = cloud_overhead_sweep()
    rows = [
        [f"{overhead:.1f}", f"{latency:.2f}"]
        for overhead, latency in sorted(result.latencies.items())
    ]
    emit(
        "ablation4_cloud_overhead",
        format_table(["cloud overhead (s)", "task round-trip (s)"], rows)
        + f"\n\nmarginal cost: {result.marginal_cost:.2f}s per second of overhead",
    )

    # round-trip grows linearly, one second per second of overhead
    assert result.marginal_cost == pytest.approx(1.0, abs=0.05)
    latencies = [result.latencies[o] for o in sorted(result.latencies)]
    assert latencies == sorted(latencies)
