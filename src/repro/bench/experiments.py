"""Experiment drivers: one function per paper table / figure.

Every driver builds the scaled-down workload, runs the relevant matchers and
returns an :class:`ExperimentReport` whose rows carry the same quantities the
paper reports (per-query times, solved counts, sizes, build times).  The
drivers are deliberately parameterised by ``scale`` so the same code serves
the fast test-suite runs and the fuller ``run_all`` benchmark runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.harness import DEFAULT_BENCH_BUDGET, run_workload
from repro.bench.reporting import format_table
from repro.bench.workloads import (
    BENCH_SCALE,
    bench_graph,
    query_set,
    random_query_set,
    representative_templates,
)
from repro.baselines.tm import TMMatcher
from repro.engines.wcoj import build_catalog
from repro.graph.generators import with_label_count
from repro.graph.transform import node_prefix_subgraph, undirected_double
from repro.matching.gm import GMVariant, GraphMatcher
from repro.matching.result import Budget
from repro.query.generators import (
    instantiate_template,
    to_descendant_only,
)
from repro.query.pattern import PatternQuery
from repro.query.transitive import transitive_closure
from repro.reachability.bfl import BloomFilterLabeling
from repro.reachability.transitive_closure import TransitiveClosureIndex
from repro.rig.build import RIGOptions, build_rig
from repro.rig.stats import rig_statistics
from repro.simulation.context import ChildCheckMethod, Cones, MatchContext
from repro.simulation.fbsim import SimulationOptions, fbsim, fbsim_basic


@dataclass
class ExperimentReport:
    """Result of one experiment driver."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: str = ""

    def text(self) -> str:
        """Render the report as an aligned text table."""
        table = format_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")
        if self.notes:
            table += f"\n  note: {self.notes}"
        return table


def _budget(budget: Optional[Budget]) -> Budget:
    return budget or DEFAULT_BENCH_BUDGET


# ---------------------------------------------------------------------- #
# Fig. 8 — H-query evaluation: GM vs TM vs JM
# ---------------------------------------------------------------------- #


def fig08_hybrid_queries(
    datasets: Sequence[str] = ("em", "ep", "hu"),
    scale: float = BENCH_SCALE,
    budget: Optional[Budget] = None,
    per_class: int = 2,
) -> ExperimentReport:
    """H-query evaluation time of GM, TM and JM (paper Fig. 8)."""
    budget = _budget(budget)
    report = ExperimentReport(
        experiment_id="Fig8",
        title="H-query evaluation time (seconds) of GM, TM and JM",
        headers=("dataset", "query", "matcher", "time_s", "matches", "status"),
    )
    templates = representative_templates(per_class=per_class)
    for key in datasets:
        graph = bench_graph(key, scale=scale)
        queries = query_set(graph, kind="H", templates=templates)
        result = run_workload(graph, queries, ("GM", "TM", "JM"), budget=budget)
        for run in result.runs:
            report.rows.append((key, run.query, run.matcher, run.seconds, run.matches, run.status))
    return report


# ---------------------------------------------------------------------- #
# Fig. 9 — C-query evaluation: GM vs TM vs JM vs ISO
# ---------------------------------------------------------------------- #


def fig09_child_queries(
    datasets: Sequence[str] = ("ep", "bs", "hu"),
    scale: float = BENCH_SCALE,
    budget: Optional[Budget] = None,
    per_class: int = 2,
) -> ExperimentReport:
    """C-query evaluation time of GM, TM, JM and ISO (paper Fig. 9)."""
    budget = _budget(budget)
    report = ExperimentReport(
        experiment_id="Fig9",
        title="C-query evaluation time (seconds) of GM, TM, JM and ISO",
        headers=("dataset", "query", "matcher", "time_s", "matches", "status"),
    )
    templates = representative_templates(per_class=per_class)
    for key in datasets:
        graph = bench_graph(key, scale=scale)
        queries = query_set(graph, kind="C", templates=templates)
        result = run_workload(graph, queries, ("GM", "TM", "JM", "ISO"), budget=budget)
        for run in result.runs:
            report.rows.append((key, run.query, run.matcher, run.seconds, run.matches, run.status))
    return report


# ---------------------------------------------------------------------- #
# Table 3 — large D-queries: solved counts and average times
# ---------------------------------------------------------------------- #


def table3_descendant_queries(
    datasets: Sequence[str] = ("hu", "hp", "yt"),
    scale: float = BENCH_SCALE,
    budget: Optional[Budget] = None,
    node_counts: Sequence[int] = (4, 8, 12),
    per_size: int = 2,
) -> ExperimentReport:
    """Performance of JM, TM and GM on large D-queries (paper Table 3)."""
    budget = _budget(budget)
    report = ExperimentReport(
        experiment_id="Table3",
        title="D-query outcomes: timeouts, memory failures, solved, avg time",
        headers=("dataset", "matcher", "timeout", "out_of_memory", "solved", "avg_time_s"),
    )
    for key in datasets:
        graph = bench_graph(key, scale=scale)
        queries = random_query_set(graph, node_counts, kind="D", per_size=per_size)
        result = run_workload(graph, queries, ("JM", "TM", "GM"), budget=budget)
        for matcher in ("JM", "TM", "GM"):
            runs = [run for run in result.runs if run.matcher == matcher]
            timeouts = sum(1 for run in runs if run.status == "timeout")
            memory = sum(1 for run in runs if run.status == "out_of_memory")
            solved = sum(1 for run in runs if run.solved)
            avg = result.average_time(matcher)
            report.rows.append((key, matcher, timeouts, memory, solved, avg))
    return report


# ---------------------------------------------------------------------- #
# Fig. 10 — varying the number of data labels
# ---------------------------------------------------------------------- #


def fig10_label_scaling(
    label_counts: Sequence[int] = (5, 10, 15, 20),
    templates: Sequence[str] = ("HQ2", "HQ4", "HQ7", "HQ18"),
    scale: float = BENCH_SCALE,
    budget: Optional[Budget] = None,
) -> ExperimentReport:
    """Query time while varying the number of labels on em (paper Fig. 10)."""
    budget = _budget(budget)
    report = ExperimentReport(
        experiment_id="Fig10",
        title="H-query time on em versions with 5..20 labels",
        headers=("labels", "query", "matcher", "time_s", "matches", "status"),
    )
    base = bench_graph("em", scale=scale)
    for num_labels in label_counts:
        graph = with_label_count(base, num_labels, seed=5)
        queries = {}
        for index, name in enumerate(templates):
            query = instantiate_template(name, graph, seed=31 + index)
            queries[query.name] = query
        result = run_workload(graph, queries, ("GM", "TM", "JM"), budget=budget)
        for run in result.runs:
            report.rows.append((num_labels, run.query, run.matcher, run.seconds, run.matches, run.status))
    return report


# ---------------------------------------------------------------------- #
# Fig. 11 — varying the data-graph size
# ---------------------------------------------------------------------- #


def fig11_size_scaling(
    fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    templates: Sequence[str] = ("HQ8", "HQ12"),
    scale: float = BENCH_SCALE,
    budget: Optional[Budget] = None,
) -> ExperimentReport:
    """Query time on increasingly larger subsets of dblp (paper Fig. 11)."""
    budget = _budget(budget)
    report = ExperimentReport(
        experiment_id="Fig11",
        title="H-query time on growing subsets of the dblp-shaped graph",
        headers=("nodes", "query", "matcher", "time_s", "matches", "status"),
    )
    full = bench_graph("db", scale=scale)
    for fraction in fractions:
        size = max(10, int(full.num_nodes * fraction))
        graph = node_prefix_subgraph(full, size)
        queries = {}
        for index, name in enumerate(templates):
            query = instantiate_template(name, graph, seed=41 + index)
            queries[query.name] = query
        result = run_workload(graph, queries, ("JM", "TM", "GM"), budget=budget)
        for run in result.runs:
            report.rows.append((graph.num_nodes, run.query, run.matcher, run.seconds, run.matches, run.status))
    return report


# ---------------------------------------------------------------------- #
# Fig. 12 — child-constraint checking and simulation construction
# ---------------------------------------------------------------------- #


def fig12_constraint_checking(
    dataset: str = "em",
    scale: float = BENCH_SCALE,
    per_class: int = 2,
) -> ExperimentReport:
    """Child-check methods and FB-construction methods (paper Fig. 12)."""
    graph = bench_graph(dataset, scale=scale)
    context = MatchContext(graph)
    report = ExperimentReport(
        experiment_id="Fig12",
        title="(a) child-constraint check methods; (b) FB construction methods",
        headers=("part", "query", "method", "time_s"),
    )
    templates = representative_templates(per_class=per_class)

    # Part (a): C-queries, RIG construction time under each check method.
    methods = {
        "binSearch": ChildCheckMethod.BIN_SEARCH,
        "bitIter": ChildCheckMethod.BIT_ITER,
        "bitBat": ChildCheckMethod.BIT_BAT,
    }
    child_queries = query_set(graph, kind="C", templates=templates)
    for query in child_queries.values():
        for method_name, method in methods.items():
            options = RIGOptions(child_check=method)
            options.simulation_options = SimulationOptions(child_check=method)
            start = time.perf_counter()
            build_rig(context, query, options)
            report.rows.append(("a", query.name, method_name, time.perf_counter() - start))

    # Part (b): H-queries, double-simulation construction time per algorithm.
    simulators: Dict[str, Callable] = {
        "Gra": lambda q: fbsim_basic(context, q),
        "Dag": lambda q: fbsim(context, q, options=SimulationOptions(use_change_flags=False)),
        "DagMap": lambda q: fbsim(context, q, options=SimulationOptions(use_change_flags=True)),
    }
    hybrid_queries = query_set(graph, kind="H", templates=templates)
    for query in hybrid_queries.values():
        for simulator_name, simulator in simulators.items():
            start = time.perf_counter()
            simulator(query)
            report.rows.append(("b", query.name, simulator_name, time.perf_counter() - start))
    return report


# ---------------------------------------------------------------------- #
# Fig. 13 — RIG size, construction time and query time per GM variant
# ---------------------------------------------------------------------- #


def fig13_rig_size(
    dataset: str = "ep",
    scale: float = BENCH_SCALE,
    budget: Optional[Budget] = None,
    per_class: int = 2,
) -> ExperimentReport:
    """RIG size / construction time / query time for GM, GM-S, GM-F and TM."""
    budget = _budget(budget)
    graph = bench_graph(dataset, scale=scale)
    context = MatchContext(graph)
    graph_size = graph.num_nodes + graph.num_edges
    report = ExperimentReport(
        experiment_id="Fig13",
        title="Summary-graph size ratio, construction time and query time",
        headers=("query", "variant", "size_ratio_pct", "construction_s", "query_s", "status"),
    )
    templates = representative_templates(per_class=per_class)
    queries = query_set(graph, kind="H", templates=templates)

    variants = {
        "GM": GMVariant.GM,
        "GM-S": GMVariant.GM_S,
        "GM-F": GMVariant.GM_F,
    }
    for query in queries.values():
        for variant_name, variant in variants.items():
            matcher = GraphMatcher(graph, context=context, variant=variant, budget=budget)
            build_report = matcher.build_rig(query)
            stats = rig_statistics(build_report.rig, graph)
            match_report = matcher.match(query, budget=budget)
            report.rows.append(
                (
                    query.name,
                    variant_name,
                    round(stats.ratio_percent(), 3),
                    build_report.total_seconds,
                    match_report.total_seconds,
                    match_report.status.value,
                )
            )
        # TM's auxiliary structure (answer graph for the spanning tree).
        tm = TMMatcher(graph, context=context, budget=budget)
        start = time.perf_counter()
        candidates = context.match_sets(query)
        tree_edges, _ = tm.spanning_tree(query)
        clock = budget.start_clock()
        cones = Cones()
        candidates = tm._refine_tree_candidates(query, tree_edges, candidates, clock, cones)
        adjacency = tm._tree_adjacency(tree_edges, candidates, clock, cones)
        construction = time.perf_counter() - start
        aux_nodes = sum(len(values) for values in candidates.values())
        aux_edges = sum(len(heads) for per_tail in adjacency.values() for heads in per_tail.values())
        tm_report = tm.match(query, budget=budget)
        report.rows.append(
            (
                query.name,
                "TM",
                round(100.0 * (aux_nodes + aux_edges) / graph_size, 3),
                construction,
                tm_report.total_seconds,
                tm_report.status.value,
            )
        )
    return report


# ---------------------------------------------------------------------- #
# Fig. 15 — pattern transitive reduction
# ---------------------------------------------------------------------- #


def _queries_with_redundant_edges(graph, templates: Sequence[str], seed: int = 53) -> Dict[str, PatternQuery]:
    """D-queries augmented with redundant (transitive) reachability edges."""
    queries: Dict[str, PatternQuery] = {}
    for index, name in enumerate(templates):
        base = to_descendant_only(instantiate_template(name, graph, seed=seed + index))
        closure = transitive_closure(base)
        # Keep the original edges plus a handful of implied (redundant) ones.
        extra = [edge for edge in closure.edges() if edge not in base.edges()][:3]
        augmented = base.with_edges(list(base.edges()) + extra, name=base.name.replace("DQ", "DQr"))
        queries[augmented.name] = augmented
    return queries


def fig15_transitive_reduction(
    datasets: Sequence[str] = ("em", "ep"),
    templates: Sequence[str] = ("HQ3", "HQ9", "HQ5"),
    scale: float = BENCH_SCALE,
    budget: Optional[Budget] = None,
) -> ExperimentReport:
    """D-query evaluation with and without transitive reduction (Fig. 15)."""
    budget = _budget(budget)
    report = ExperimentReport(
        experiment_id="Fig15",
        title="D-query time with (GM) and without (GM-NR) transitive reduction, plus TM",
        headers=("dataset", "query", "matcher", "time_s", "matches", "status"),
    )
    for key in datasets:
        graph = bench_graph(key, scale=scale)
        queries = _queries_with_redundant_edges(graph, templates)
        result = run_workload(graph, queries, ("GM", "GM-NR", "TM"), budget=budget)
        for run in result.runs:
            report.rows.append((key, run.query, run.matcher, run.seconds, run.matches, run.status))
    return report


# ---------------------------------------------------------------------- #
# Table 4 — search-order strategies
# ---------------------------------------------------------------------- #


def table4_search_order(
    datasets: Sequence[str] = ("em", "ep"),
    templates: Sequence[str] = ("HQ2", "HQ3", "HQ4", "HQ15", "HQ18"),
    scale: float = BENCH_SCALE,
    budget: Optional[Budget] = None,
) -> ExperimentReport:
    """Effectiveness of the JO, RI and BJ orderings (paper Table 4)."""
    budget = _budget(budget)
    report = ExperimentReport(
        experiment_id="Table4",
        title="H-query time under the RI, JO and BJ search orderings",
        headers=("dataset", "query", "GM-RI_s", "GM-JO_s", "GM-BJ_s"),
    )
    for key in datasets:
        graph = bench_graph(key, scale=scale)
        queries = {}
        for index, name in enumerate(templates):
            query = instantiate_template(name, graph, seed=61 + index)
            queries[query.name] = query
        result = run_workload(graph, queries, ("GM-RI", "GM-JO", "GM-BJ"), budget=budget)
        for query_name in queries:
            row = [key, query_name]
            for matcher in ("GM-RI", "GM-JO", "GM-BJ"):
                run = result.run_for(matcher, query_name)
                row.append(run.seconds if run else None)
            report.rows.append(tuple(row))
    return report


# ---------------------------------------------------------------------- #
# Fig. 16 — comparison with the WCOJ engine (GF)
# ---------------------------------------------------------------------- #


def fig16_wcoj_engine(
    catalog_datasets: Sequence[str] = ("em", "ep", "hp", "yt", "hu", "bs", "go", "am"),
    query_datasets: Sequence[str] = ("am", "bs", "go", "hu", "yt"),
    scale: float = BENCH_SCALE,
    budget: Optional[Budget] = None,
    catalog_cap: int = 4000,
    templates: Sequence[str] = ("CQ17", "CQ19", "CQ16"),
) -> ExperimentReport:
    """GF catalog build time per dataset and GM-vs-GF C-query times (Fig. 16)."""
    budget = _budget(budget)
    report = ExperimentReport(
        experiment_id="Fig16",
        title="(a) GF catalog build time; (b) C-query time of GM vs GF",
        headers=("part", "dataset", "query", "matcher", "time_s", "status"),
        notes="catalog entries capped to model GF's out-of-memory on label-rich graphs",
    )
    # Part (a): catalog construction cost (out-of-memory when over the cap).
    for key in catalog_datasets:
        graph = bench_graph(key, scale=scale)
        # Label-rich graphs exceed the entry cap, mirroring GF's OOM failures.
        catalog = build_catalog(graph, max_entries=catalog_cap)
        status = "out_of_memory" if catalog.truncated else "ok"
        report.rows.append(("a", key, "-", "GF-catalog", catalog.build_seconds, status))

    # Part (b): C-query evaluation where the catalog could be built.
    template_names = [name.replace("CQ", "HQ") for name in templates]
    for key in query_datasets:
        graph = bench_graph(key, scale=scale)
        catalog = build_catalog(graph, max_entries=catalog_cap)
        queries = query_set(graph, kind="C", templates=template_names)
        matchers = ("GM",) if catalog.truncated else ("GM", "GF")
        result = run_workload(graph, queries, matchers, budget=budget)
        for run in result.runs:
            report.rows.append(("b", key, run.query, run.matcher, run.seconds, run.status))
        if catalog.truncated:
            for query_name in queries:
                report.rows.append(("b", key, query_name, "GF", 0.0, "out_of_memory"))
    return report


# ---------------------------------------------------------------------- #
# Table 5 — EH, Neo4j and GM on C-queries
# ---------------------------------------------------------------------- #


def table5_engines(
    datasets: Sequence[str] = ("em", "ep"),
    scale: float = BENCH_SCALE,
    budget: Optional[Budget] = None,
    per_class: int = 2,
) -> ExperimentReport:
    """Runtime of EH, Neo4j and GM for C-queries on em and ep (Table 5)."""
    budget = _budget(budget)
    report = ExperimentReport(
        experiment_id="Table5",
        title="C-query time of EH (with and without precomputation), Neo4j and GM",
        headers=("dataset", "query", "matcher", "time_s", "precompute_s", "status"),
    )
    templates = representative_templates(per_class=per_class)
    for key in datasets:
        graph = bench_graph(key, scale=scale)
        queries = query_set(graph, kind="C", templates=templates)
        result = run_workload(graph, queries, ("EH", "Neo4j", "GM"), budget=budget)
        for run in result.runs:
            precompute = run.extra.get("precompute_seconds", 0.0)
            report.rows.append((key, run.query, run.matcher, run.seconds, precompute, run.status))
    return report


# ---------------------------------------------------------------------- #
# Fig. 17 — comparison with RM on the Human graph
# ---------------------------------------------------------------------- #


def fig17_rm_human(
    node_counts: Sequence[int] = (8, 12, 16),
    per_size: int = 2,
    scale: float = BENCH_SCALE,
    budget: Optional[Budget] = None,
) -> ExperimentReport:
    """Mean query time of GM-JO, GM-RI and RM on dense / sparse query sets."""
    budget = _budget(budget)
    graph = undirected_double(bench_graph("hu", scale=scale))
    report = ExperimentReport(
        experiment_id="Fig17",
        title="Mean C-query time on the (undirected) Human-shaped graph",
        headers=("query_set", "nodes", "matcher", "mean_time_s", "solved"),
    )
    for dense, set_name in ((True, "dense"), (False, "sparse")):
        for num_nodes in node_counts:
            queries = random_query_set(
                graph, (num_nodes,), kind="C", dense=dense, per_size=per_size, seed=71
            )
            result = run_workload(graph, queries, ("GM-JO", "GM-RI", "RM"), budget=budget)
            for matcher in ("GM-JO", "GM-RI", "RM"):
                report.rows.append(
                    (
                        set_name,
                        num_nodes,
                        matcher,
                        result.average_time(matcher, solved_only=False),
                        result.solved_count(matcher),
                    )
                )
    return report


# ---------------------------------------------------------------------- #
# Fig. 18 — reachability D-queries: GM vs GF vs Neo4j, index build times
# ---------------------------------------------------------------------- #


def fig18_reachability_engines(
    label_counts: Sequence[int] = (5, 10, 15, 20),
    node_counts: Sequence[int] = (300, 600, 900),
    scale: float = BENCH_SCALE,
    budget: Optional[Budget] = None,
    templates: Sequence[str] = ("HQ4", "HQ15", "HQ16"),
) -> ExperimentReport:
    """BFL / transitive-closure / catalog build times and D-query times (Fig. 18)."""
    budget = _budget(budget)
    report = ExperimentReport(
        experiment_id="Fig18",
        title="(a) index/catalog build time; (b) D-query time of GM, GF and Neo4j",
        headers=("part", "labels", "nodes", "query", "matcher", "time_s", "status"),
    )
    base = bench_graph("em", scale=scale)

    # Part (a): build-time growth for BFL vs transitive closure vs catalog.
    for num_nodes in node_counts:
        graph = node_prefix_subgraph(with_label_count(base, 20, seed=5), num_nodes)
        bfl = BloomFilterLabeling(graph)
        closure = TransitiveClosureIndex(graph)
        catalog = build_catalog(graph)
        report.rows.append(("a", 20, graph.num_nodes, "-", "BFL", bfl.build_seconds, "ok"))
        report.rows.append(("a", 20, graph.num_nodes, "-", "TC", closure.build_seconds, "ok"))
        report.rows.append(("a", 20, graph.num_nodes, "-", "CAT", catalog.build_seconds, "ok"))

    # Part (b): D-query evaluation with varying label counts.
    small = node_prefix_subgraph(base, min(node_counts))
    for num_labels in label_counts:
        graph = with_label_count(small, num_labels, seed=5)
        queries = {}
        for index, name in enumerate(templates):
            query = to_descendant_only(instantiate_template(name, graph, seed=83 + index))
            queries[query.name] = query
        result = run_workload(graph, queries, ("Neo4j", "GF", "GM"), budget=budget)
        for run in result.runs:
            report.rows.append(("b", num_labels, graph.num_nodes, run.query, run.matcher, run.seconds, run.status))
    return report


# ---------------------------------------------------------------------- #
# Table 6 — Neo4j vs GM on H-queries
# ---------------------------------------------------------------------- #


def table6_hybrid_engines(
    dataset: str = "em",
    scale: float = BENCH_SCALE,
    budget: Optional[Budget] = None,
    per_class: int = 2,
) -> ExperimentReport:
    """Runtime of Neo4j and GM for H-queries on an em fragment (Table 6)."""
    budget = _budget(budget)
    graph = bench_graph(dataset, scale=scale)
    report = ExperimentReport(
        experiment_id="Table6",
        title="H-query time of the binary-join engine (Neo4j) and GM",
        headers=("dataset", "query", "matcher", "time_s", "matches", "status"),
    )
    templates = representative_templates(per_class=per_class)
    queries = query_set(graph, kind="H", templates=templates)
    result = run_workload(graph, queries, ("Neo4j", "GM"), budget=budget)
    for run in result.runs:
        report.rows.append((dataset, run.query, run.matcher, run.seconds, run.matches, run.status))
    return report


#: Registry used by ``run_all`` and the pytest benchmark wrappers.
ALL_EXPERIMENTS: Dict[str, Callable[..., ExperimentReport]] = {
    "fig08": fig08_hybrid_queries,
    "fig09": fig09_child_queries,
    "table3": table3_descendant_queries,
    "fig10": fig10_label_scaling,
    "fig11": fig11_size_scaling,
    "fig12": fig12_constraint_checking,
    "fig13": fig13_rig_size,
    "fig15": fig15_transitive_reduction,
    "table4": table4_search_order,
    "fig16": fig16_wcoj_engine,
    "table5": table5_engines,
    "fig17": fig17_rm_human,
    "fig18": fig18_reachability_engines,
    "table6": table6_hybrid_engines,
}
