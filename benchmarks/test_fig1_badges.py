"""FIG1 — Reproducibility badges awarded by SC over time (paper Fig. 1).

Regenerates the trend by running the badge-review simulation over seeded
submission cohorts 2016–2024. Expected shape: totals rise then plateau;
available ≥ evaluated ≥ reproduced every year; the reproduced fraction
stays a minority (the paper's motivating observation).
"""

from repro.analysis.tables import format_table
from repro.badges.history import BadgeHistoryModel
from repro.experiments import run_fig1


def test_fig1_badges_over_time(emit):
    counts = run_fig1()

    rows = [
        [year, c["available"], c["evaluated"], c["reproduced"]]
        for year, c in sorted(counts.items())
    ]
    emit(
        "fig1_badges",
        format_table(
            ["year", "artifacts available", "artifacts evaluated", "results reproduced"],
            rows,
        ),
    )

    years = sorted(counts)
    for year in years:
        c = counts[year]
        assert c["available"] >= c["evaluated"] >= c["reproduced"]
    # participation grows strongly from the early years
    assert counts[years[-1]]["available"] > 3 * counts[years[0]]["available"]
    # full reproduction remains the exception
    assert counts[years[-1]]["reproduced"] < counts[years[-1]]["available"] / 2


def test_fig1_model_is_deterministic():
    result = BadgeHistoryModel(seed=2025).run()
    assert result == BadgeHistoryModel(seed=2025).run()
