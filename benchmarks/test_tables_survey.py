"""TAB1–TAB4 — the survey tables (paper Tables 1–4).

Tables 1–3 are characteristic lists; Table 4 is the HPC CI framework
feature matrix, regenerated by *running* each baseline adapter's probes
against the simulated substrate and checking the demonstrated behaviour
matches the descriptor row.
"""

from repro.analysis.tables import format_table
from repro.experiments import (
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows_and_probes,
)


def test_table1_science_app_characteristics(emit):
    rows = table1_rows()
    emit(
        "table1_characteristics",
        format_table(["Characteristic", "Description"], rows),
    )
    assert [r[0] for r in rows] == [
        "Collaboration",
        "Computational requirements",
        "Visualization, Monitoring, Logging",
        "Reproducibility",
    ]


def test_table2_scientific_ci_usage(emit):
    rows = table2_rows()
    emit(
        "table2_sci_ci",
        format_table(
            ["", "CI framework", "Compute resource", "Objective", "Visualization"],
            rows,
        ),
    )
    matrix = {row[0]: row[1:] for row in rows}
    # the paper's Table 2, row for row
    assert matrix["GNSS-SDR"][0] == "GitLab" and matrix["GNSS-SDR"][1] == "Cloud"
    assert matrix["ATLAS"][0] == "Jenkins"
    assert matrix["ATLAS"][1] == "Internal HPC cluster"
    assert matrix["AMBER"][0] == "CruiseControl"
    assert matrix["AMBER"][1] == "Workstation"
    assert matrix["NeuroCI"][0] == "CircleCI"
    assert matrix["NeuroCI"][1] == "Distributed HPC clusters"
    assert matrix["GNSS-SDR"][2] == matrix["NeuroCI"][2] == "Reproducibility"
    assert matrix["ATLAS"][2] == matrix["AMBER"][2] == "CI"


def test_table3_hpc_ci_characteristics(emit):
    rows = table3_rows()
    emit(
        "table3_hpc_characteristics",
        format_table(["Characteristic", "Description"], rows),
    )
    assert [r[0] for r in rows] == ["Collaborative", "Secure", "Lightweight"]


def test_table4_hpc_ci_frameworks(emit):
    rows, probes = table4_rows_and_probes(include_correct=True)
    table = format_table(
        ["Framework", "CI Platform", "Authentication",
         "Site-Specific Execution", "Containerization"],
        rows,
    )
    probe_lines = [
        f"{framework:<14} {check:<40} "
        f"{'demonstrated' if passed else 'NOT DEMONSTRATED'}"
        for framework, checks in probes.items()
        for check, passed in sorted(checks.items())
    ]
    emit("table4_hpc_ci_frameworks", table + "\n\nexecutable probes:\n" + "\n".join(probe_lines))

    matrix = {row[0]: row[1:] for row in rows}
    # paper Table 4, row for row
    assert matrix["Jacamar CI"] == [
        "GitLab", "Site-specific auth.", "Yes",
        "Apptainer, Podman, CharlieCloud",
    ]
    assert matrix["TACC"] == [
        "GitHub", "Tapis Security Kernel", "No", "Singularity",
    ]
    assert matrix["RMACC Summit"] == [
        "Jenkins", "Site-specific auth.", "Yes", "Singularity",
    ]
    assert matrix["OSC"] == ["Reframe", "Site-specific auth.", "Yes", "None"]
    assert matrix["Stanford HPCC"] == [
        "GitLab", "Site-specific auth.", "Yes", "Unknown",
    ]
    # every claim is demonstrated by its probe, not just transcribed
    for framework, checks in probes.items():
        real = {k: v for k, v in checks.items() if k != "needs_runner_on_hpc"}
        assert all(real.values()), (framework, real)
    # only Tapis-style and CORRECT avoid installing a runner on HPC
    assert not probes["TACC"]["needs_runner_on_hpc"]
    assert not probes["CORRECT"]["needs_runner_on_hpc"]
    assert probes["Jacamar CI"]["needs_runner_on_hpc"]
