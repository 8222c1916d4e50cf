"""Tests for the benchmark harness, the experiment drivers and the examples."""

import re
import runpy
import sys
from pathlib import Path

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS, ExperimentReport, fig08_hybrid_queries
from repro.bench.harness import (
    DEFAULT_BENCH_BUDGET,
    QueryRun,
    WorkloadResult,
    available_matchers,
    make_matcher,
    run_workload,
)
from repro.bench.reporting import format_series, format_table
from repro.bench.run_all import main as run_all_main
from repro.bench.workloads import (
    bench_graph,
    query_set,
    random_query_set,
    representative_templates,
    template_class,
)
from repro.matching.result import Budget
from repro.simulation.context import MatchContext

TINY_BUDGET = Budget(max_matches=500, time_limit_seconds=5.0, max_intermediate_results=50_000)
REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"


class TestWorkloads:
    def test_bench_graph_cached(self):
        assert bench_graph("em", scale=0.1) is bench_graph("em", scale=0.1)

    def test_representative_templates_cover_classes(self):
        templates = representative_templates(per_class=2)
        assert len(templates) == 8
        classes = {template_class(name) for name in templates}
        assert classes == {"acyclic", "cyclic", "clique", "combo"}

    def test_query_set_kinds(self):
        graph = bench_graph("em", scale=0.1)
        hybrid = query_set(graph, kind="H", templates=("HQ3",))
        child = query_set(graph, kind="C", templates=("HQ3",))
        descendant = query_set(graph, kind="D", templates=("HQ3",))
        assert set(hybrid) == {"HQ3"}
        assert set(child) == {"CQ3"}
        assert set(descendant) == {"DQ3"}
        assert all(edge.is_child for edge in child["CQ3"].edges())
        with pytest.raises(ValueError):
            query_set(graph, kind="X")

    def test_random_query_set(self):
        graph = bench_graph("em", scale=0.1)
        queries = random_query_set(graph, (4, 6), kind="D", per_size=2)
        assert len(queries) == 4
        assert all(all(edge.is_descendant for edge in q.edges()) for q in queries.values())


class TestHarness:
    def test_all_matchers_constructible(self):
        graph = bench_graph("em", scale=0.1)
        context = MatchContext(graph)
        for name in available_matchers():
            matcher = make_matcher(name, graph, context, TINY_BUDGET)
            assert matcher is not None

    def test_unknown_matcher(self):
        graph = bench_graph("em", scale=0.1)
        with pytest.raises(KeyError):
            make_matcher("nope", graph, MatchContext(graph), TINY_BUDGET)

    def test_run_workload_produces_runs(self):
        graph = bench_graph("em", scale=0.1)
        queries = query_set(graph, kind="H", templates=("HQ0", "HQ4"))
        result = run_workload(graph, queries, ("GM", "TM"), budget=TINY_BUDGET)
        assert len(result.runs) == 4
        assert result.solved_count("GM") == 2
        assert result.average_time("GM") >= 0.0
        assert result.run_for("TM", "HQ0") is not None
        assert result.run_for("TM", "missing") is None
        assert set(result.by_matcher()) == {"GM", "TM"}

    def test_same_answers_across_matchers(self):
        graph = bench_graph("em", scale=0.1)
        queries = query_set(graph, kind="H", templates=("HQ0",))
        result = run_workload(graph, queries, ("GM", "TM", "JM"), budget=TINY_BUDGET)
        counts = {run.matcher: run.matches for run in result.runs}
        assert counts["GM"] == counts["TM"] == counts["JM"]

    def test_query_run_solved_property(self):
        assert QueryRun("GM", "q", 0.0, 1, "ok").solved
        assert QueryRun("GM", "q", 0.0, 1, "match_limit").solved
        assert not QueryRun("GM", "q", 0.0, 0, "timeout").solved

    def test_default_budget_has_limits(self):
        assert DEFAULT_BENCH_BUDGET.max_matches is not None
        assert DEFAULT_BENCH_BUDGET.time_limit_seconds is not None


class TestReporting:
    def test_format_table(self):
        text = format_table(("a", "b"), [(1, 2.5), ("x", "y")], title="T")
        assert "T" in text
        assert "2.5000" in text
        assert text.count("\n") == 4

    def test_format_series(self):
        text = format_series({"GM": [0.1, 0.2]}, ["5", "10"], title="S")
        assert "GM" in text and "0.1000s" in text


class TestExperimentDrivers:
    def test_registry_complete(self):
        assert set(ALL_EXPERIMENTS) == {
            "fig08", "fig09", "table3", "fig10", "fig11", "fig12", "fig13",
            "fig15", "table4", "fig16", "table5", "fig17", "fig18", "table6",
        }

    def test_fig08_structure(self):
        report = fig08_hybrid_queries(datasets=("em",), scale=0.08, budget=TINY_BUDGET, per_class=1)
        assert isinstance(report, ExperimentReport)
        assert report.experiment_id == "Fig8"
        assert report.headers[0] == "dataset"
        matchers = {row[2] for row in report.rows}
        assert matchers == {"GM", "TM", "JM"}
        assert "Fig8" in report.text()

    @pytest.mark.parametrize("name", ["table3", "fig12", "fig13", "table4", "table6"])
    def test_small_scale_drivers_run(self, name):
        driver = ALL_EXPERIMENTS[name]
        if name == "fig12":
            report = driver(scale=0.08)
        elif name == "table3":
            report = driver(datasets=("yt",), scale=0.08, budget=TINY_BUDGET, node_counts=(4,), per_size=1)
        else:
            report = driver(scale=0.08, budget=TINY_BUDGET)
        assert report.rows
        assert len(report.headers) >= 4

    def test_run_all_cli_subset(self, tmp_path, capsys):
        output = tmp_path / "out.txt"
        exit_code = run_all_main(["table6", "--scale", "0.08", "--output", str(output)])
        assert exit_code == 0
        assert output.exists()
        captured = capsys.readouterr()
        assert "Table6" in captured.out

    def test_run_all_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            run_all_main(["not-an-experiment"])


class TestExamples:
    @pytest.mark.parametrize(
        "script",
        ["quickstart.py", "citation_network.py", "money_laundering.py", "supply_chain.py"],
    )
    def test_example_runs(self, script, capsys):
        path = EXAMPLES_DIR / script
        assert path.exists()
        runpy.run_path(str(path), run_name="__main__")
        captured = capsys.readouterr()
        assert "occurrence" in captured.out or "patterns" in captured.out


class TestOneMeasurementSystem:
    """`benchmarks/` holds the paper's figures and tables and nothing else;
    every other number comes from `python3 -m perf` (see perf/README.md)."""

    def test_ci_mentions_only_paths_that_exist(self):
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
            encoding="utf-8"
        )
        commands = "\n".join(
            line for line in workflow.splitlines() if not line.lstrip().startswith("#")
        )
        mentioned = set(
            re.findall(r"\b(?:benchmarks|tests|examples|results)/[\w./*-]+", commands)
        )
        assert "examples/quickstart.py" in mentioned  # the regex still bites
        missing = sorted(path for path in mentioned if not list(REPO_ROOT.glob(path)))
        assert not missing, f"ci.yml points at files that are gone: {missing}"

    def test_benchmarks_are_the_paper_drivers(self):
        scripts = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
        assert len(scripts) == len(ALL_EXPERIMENTS)
        strays = [
            script.name
            for script in scripts
            if re.search(r"not a paper figure", script.read_text(encoding="utf-8"), re.I)
        ]
        assert not strays, f"subsystem numbers belong to perf/, not benchmarks/: {strays}"
