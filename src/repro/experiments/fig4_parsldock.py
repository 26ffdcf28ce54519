"""Fig. 4: ParslDock test-suite runtimes across three sites (§6.1).

One workflow, three environment-gated jobs — Chameleon CHI@TACC, TAMU
FASTER, SDSC Expanse — each invoking CORRECT with ``shell_cmd: pytest``
in the site's ``docking`` conda environment. FASTER and Expanse block
outbound internet on compute nodes, so their MEP templates clone on the
login node and run tests on a SLURM pilot; Chameleon runs everything on
the instance itself.

The experiment is declared in ``suites/fig4.yaml`` and executed through
the suite framework (:mod:`repro.suites`); this module is the thin
wrapper that keeps the historical entry points and result shapes. The
suite path replays the legacy world-operation order exactly, so the
virtual-time trace — and therefore every report byte — is unchanged.

The result object carries per-site, per-test durations parsed from the
stdout artifacts — the series plotted in Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.suites import SuiteRun, run_suite

FIG4_SITES = ("chameleon", "faster", "expanse")
REPO_SLUG = "parsl/parsl-docking-tutorial"
WORKFLOW_PATH = ".github/workflows/correct.yml"
SUITE = "fig4"


@dataclass
class Fig4Result:
    """Per-site test durations plus run bookkeeping."""

    run: object
    durations: Dict[str, Dict[str, float]]  # site -> test -> seconds
    outcomes: Dict[str, Dict[str, str]]  # site -> test -> PASSED/...
    queue_waits: Dict[str, float] = field(default_factory=dict)
    # the world that produced the run, for telemetry export (trace CLI)
    world: object = None

    def tests(self) -> List[str]:
        any_site = next(iter(self.durations.values()))
        return list(any_site)

    def fastest_site_per_test(self) -> Dict[str, str]:
        out: Dict[str, str] = {}
        for test in self.tests():
            out[test] = min(
                self.durations, key=lambda site: self.durations[site][test]
            )
        return out

    def all_passed(self) -> bool:
        return all(
            outcome == "PASSED"
            for site_outcomes in self.outcomes.values()
            for outcome in site_outcomes.values()
        )


def fig4_result_from(suite_run: SuiteRun) -> Fig4Result:
    """Assemble the historical Fig. 4 result shape from a suite run."""
    durations: Dict[str, Dict[str, float]] = {}
    outcomes: Dict[str, Dict[str, str]] = {}
    queue_waits: Dict[str, float] = {}
    world = suite_run.world
    for result in suite_run.results:
        if result.status != "ok":
            continue
        site_name = str(result.instance.variables["site"])
        parsed = result.parsed or {}
        durations[site_name] = {name: d for name, (_, d) in parsed.items()}
        outcomes[site_name] = {name: o for name, (o, _) in parsed.items()}
        endpoint = world.faas.endpoint(suite_run.endpoints[site_name])
        stats: Dict[str, float] = {}
        for uep in endpoint._ueps.values():
            for key, value in uep.stats().items():
                stats[key] = stats.get(key, 0.0) + value
        queue_waits[site_name] = stats.get("compute_queue_wait", 0.0)
    return Fig4Result(
        run=suite_run.run, durations=durations, outcomes=outcomes,
        queue_waits=queue_waits, world=world,
    )


@dataclass
class Fig4OverlapResult:
    """§6.1 with the deferred task lifecycle: overlap across sites.

    ``per_site_serialized`` holds each site's run duration when its job
    executes alone (the seed's blocking behaviour); ``makespan`` is the
    wall-clock of the three-site run with concurrent jobs. Overlap means
    ``makespan < serialized_total`` strictly: FASTER's pilot queue wait
    now coexists with Expanse's test execution in virtual time.
    """

    per_site_serialized: Dict[str, float]
    makespan: float
    concurrent_run: object
    durations: Dict[str, Dict[str, float]]  # site -> test -> seconds
    # the world of the concurrent run, for telemetry export
    world: object = None

    @property
    def serialized_total(self) -> float:
        return sum(self.per_site_serialized.values())

    @property
    def speedup(self) -> float:
        return self.serialized_total / self.makespan if self.makespan else 0.0


def _run_gate_free(
    sites: Tuple[str, ...], concurrent_jobs: bool, telemetry: bool = True
) -> SuiteRun:
    """One ParslDock suite run with repo-level secrets (no gates).

    The returned run's ``makespan`` covers trigger to completion — the
    part the task lifecycle changes; site provisioning beforehand is
    excluded from the comparison.
    """
    return run_suite(
        SUITE,
        overrides={"site": list(sites)},
        telemetry=telemetry,
        concurrent_jobs=concurrent_jobs,
        gated=False,
        name_override="ParslDock multi-site CI (ungated)",
        strict=True,
    )


def run_fig4_overlap(telemetry: bool = True) -> Fig4OverlapResult:
    """Demonstrate cross-site overlap from the deferred task lifecycle.

    Each site's job is first run alone (serialized baseline), then all
    sites run in one world with ``concurrent_jobs`` enabled. Per-test
    durations come from the simulated pytest stdout, so the Fig. 4
    series are identical in both modes — only the *makespan* shrinks.
    """
    per_site: Dict[str, float] = {}
    for site_name in FIG4_SITES:
        solo = _run_gate_free(
            (site_name,), concurrent_jobs=False, telemetry=telemetry
        )
        per_site[site_name] = solo.makespan

    concurrent = _run_gate_free(
        FIG4_SITES, concurrent_jobs=True, telemetry=telemetry
    )
    durations: Dict[str, Dict[str, float]] = {}
    for result in concurrent.results:
        site_name = str(result.instance.variables["site"])
        parsed = result.parsed or {}
        durations[site_name] = {name: d for name, (_, d) in parsed.items()}
    return Fig4OverlapResult(
        per_site_serialized=per_site,
        makespan=concurrent.makespan,
        concurrent_run=concurrent.run,
        durations=durations,
        world=concurrent.world,
    )


def run_fig4(telemetry: bool = True, world_setup=None) -> Fig4Result:
    """Execute the full §6.1 experiment; returns the Fig. 4 series.

    The experiment is just ``suites/fig4.yaml`` run with gates on.
    ``world_setup(world)``, if given, runs right after construction
    (e.g. to attach the observability plane before any event flows).
    """
    suite_run = run_suite(
        SUITE,
        overrides={"site": list(FIG4_SITES)},
        telemetry=telemetry,
        world_setup=world_setup,
        strict=True,
    )
    return fig4_result_from(suite_run)
