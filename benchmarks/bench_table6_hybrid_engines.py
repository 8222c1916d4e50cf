"""Table 6 — Neo4j vs GM on H-queries over an em fragment."""

import pytest

from conftest import BENCH_SCALE_FAST, matcher_benchmark, representative_query, write_report
from repro.bench.experiments import table6_hybrid_engines


@pytest.mark.parametrize("matcher", ["Neo4j", "GM"])
def test_hybrid_acyclic_query(benchmark, matcher, em_graph, em_context, fast_budget):
    query = representative_query(em_graph, kind="H", template="HQ0")
    matcher_benchmark(benchmark, matcher, em_graph, em_context, query, fast_budget)


@pytest.mark.parametrize("matcher", ["Neo4j", "GM"])
def test_hybrid_cyclic_query(benchmark, matcher, em_graph, em_context, fast_budget):
    query = representative_query(em_graph, kind="H", template="HQ17")
    matcher_benchmark(benchmark, matcher, em_graph, em_context, query, fast_budget)


def test_regenerate_table6(benchmark, fast_budget):
    report = benchmark.pedantic(
        lambda: table6_hybrid_engines(scale=BENCH_SCALE_FAST, budget=fast_budget),
        rounds=1,
        iterations=1,
    )
    path = write_report(report)
    benchmark.extra_info["rows"] = len(report.rows)
    benchmark.extra_info["table_path"] = str(path)
    # Both matchers answer the same hybrid query: wherever GM completes,
    # Neo4j returns no more rows, and exactly GM's rows when it completes too.
    runs = {
        (query, matcher): (matches, status)
        for _, query, matcher, _, matches, status in report.rows
    }
    for (query, matcher), (gm_matches, gm_status) in runs.items():
        if matcher != "GM" or gm_status != "ok":
            continue
        neo4j_matches, neo4j_status = runs[(query, "Neo4j")]
        assert neo4j_matches <= gm_matches, (query, neo4j_matches, gm_matches)
        if neo4j_status == "ok":
            assert neo4j_matches == gm_matches, (query, neo4j_matches, gm_matches)
