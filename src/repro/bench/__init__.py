"""Benchmark harness.

The modules in this package regenerate the paper's tables and figures
(scaled down): :mod:`repro.bench.workloads` builds the datasets and query
sets, :mod:`repro.bench.harness` runs a set of matchers over a workload and
collects per-query timings and statuses, :mod:`repro.bench.reporting`
renders text tables / series, and :mod:`repro.bench.experiments` contains
one driver per paper table or figure.  ``python -m repro.bench.run_all``
runs everything and prints the results.
"""

from repro.bench.harness import QueryRun, WorkloadResult, make_matcher, run_workload
from repro.bench.workloads import bench_graph, query_set, representative_templates
from repro.bench.reporting import format_table, format_series
from repro.bench.experiments import (
    ExperimentReport,
    fig08_hybrid_queries,
    fig09_child_queries,
    table3_descendant_queries,
    fig10_label_scaling,
    fig11_size_scaling,
    fig12_constraint_checking,
    fig13_rig_size,
    fig15_transitive_reduction,
    table4_search_order,
    fig16_wcoj_engine,
    table5_engines,
    fig17_rm_human,
    fig18_reachability_engines,
    table6_hybrid_engines,
    ALL_EXPERIMENTS,
)

__all__ = [
    "QueryRun",
    "WorkloadResult",
    "make_matcher",
    "run_workload",
    "bench_graph",
    "query_set",
    "representative_templates",
    "format_table",
    "format_series",
    "ExperimentReport",
    "fig08_hybrid_queries",
    "fig09_child_queries",
    "table3_descendant_queries",
    "fig10_label_scaling",
    "fig11_size_scaling",
    "fig12_constraint_checking",
    "fig13_rig_size",
    "fig15_transitive_reduction",
    "table4_search_order",
    "fig16_wcoj_engine",
    "table5_engines",
    "fig17_rm_human",
    "fig18_reachability_engines",
    "table6_hybrid_engines",
    "ALL_EXPERIMENTS",
]
