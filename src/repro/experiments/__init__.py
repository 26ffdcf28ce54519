"""Experiment harnesses: one module per paper table/figure.

Benchmarks under ``benchmarks/`` and the runnable examples both call
these, so the numbers printed by the benchmark suite and the numbers a
user sees from ``examples/`` come from the same code.

Re-exports are grouped per module, in the same order as the imports
below; ``tests/test_experiments.py`` asserts ``__all__`` stays importable
and duplicate-free.
"""

from repro.experiments.fig1_badges import run_fig1
from repro.experiments.fig4_parsldock import (
    Fig4OverlapResult,
    Fig4Result,
    fig4_result_from,
    run_fig4,
    run_fig4_overlap,
)
from repro.experiments.fig5_psij import (
    Fig5Result,
    fig5_result_from,
    run_fig5,
)
from repro.experiments.exp63_kamping import (
    Exp63Result,
    exp63_result_from,
    run_exp63,
)
from repro.experiments.chaos import (
    ChaosFig4Result,
    format_chaos_report,
    run_fig4_chaos,
    run_fig5_chaos,
    run_suite_chaos,
)
from repro.experiments.observability import (
    ObsFig4Result,
    format_obs_report,
    parse_slo_overrides,
    run_fig4_obs,
)
from repro.experiments.recovery import (
    CRASH_POINT_NAMES,
    Fig4RecoveryResult,
    format_recovery_report,
    run_fig4_recovery,
    run_fig4_recovery_sweep,
)
from repro.experiments.routing import (
    PooledRun,
    RoutingComparison,
    format_routing_report,
    run_fig4_pooled,
    run_pooled,
)
from repro.experiments.overload import (
    OverloadComparison,
    OverloadParams,
    OverloadRunResult,
    format_overload_report,
    generate_workload,
    overload_config,
    run_overload,
    run_overload_comparison,
)
from repro.experiments.hedging import (
    FailSlowComparison,
    FailSlowRunResult,
    HedgingParams,
    format_hedging_report,
    generate_failslow_workload,
    hedge_config,
    run_failslow,
    run_fig4_failslow,
)
from repro.experiments.survey_tables import (
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows_and_probes,
)

__all__ = [
    # fig1_badges
    "run_fig1",
    # fig4_parsldock
    "Fig4OverlapResult",
    "Fig4Result",
    "fig4_result_from",
    "run_fig4",
    "run_fig4_overlap",
    # fig5_psij
    "Fig5Result",
    "fig5_result_from",
    "run_fig5",
    # exp63_kamping
    "Exp63Result",
    "exp63_result_from",
    "run_exp63",
    # chaos
    "ChaosFig4Result",
    "format_chaos_report",
    "run_fig4_chaos",
    "run_fig5_chaos",
    "run_suite_chaos",
    # observability
    "ObsFig4Result",
    "format_obs_report",
    "parse_slo_overrides",
    "run_fig4_obs",
    # recovery
    "CRASH_POINT_NAMES",
    "Fig4RecoveryResult",
    "format_recovery_report",
    "run_fig4_recovery",
    "run_fig4_recovery_sweep",
    # routing
    "PooledRun",
    "RoutingComparison",
    "format_routing_report",
    "run_fig4_pooled",
    "run_pooled",
    # overload
    "OverloadComparison",
    "OverloadParams",
    "OverloadRunResult",
    "format_overload_report",
    "generate_workload",
    "overload_config",
    "run_overload",
    "run_overload_comparison",
    # hedging
    "FailSlowComparison",
    "FailSlowRunResult",
    "HedgingParams",
    "format_hedging_report",
    "generate_failslow_workload",
    "hedge_config",
    "run_failslow",
    "run_fig4_failslow",
    # survey_tables
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows_and_probes",
]
