"""Shared helpers for the pytest-benchmark suite.

Each benchmark module corresponds to one paper table or figure (the
drivers are :data:`repro.bench.experiments.ALL_EXPERIMENTS`).  A module
typically contains:

* micro-benchmarks of the matchers involved, on a representative query of
  that experiment's workload (what pytest-benchmark times);
* one ``test_regenerate_*`` benchmark that runs the full experiment driver
  once and writes the regenerated table to ``results/<experiment>.txt``.

The drivers run at a reduced scale (``BENCH_SCALE_FAST``) so that the whole
suite completes in a few minutes in pure Python; ``python -m
repro.bench.run_all`` runs the same drivers at the larger default scale.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench.harness import make_matcher  # noqa: E402
from repro.bench.workloads import bench_graph, query_set, representative_templates  # noqa: E402
from repro.matching.result import Budget  # noqa: E402
from repro.simulation.context import MatchContext  # noqa: E402

#: Scale used by the pytest-benchmark suite (smaller than the run_all default).
BENCH_SCALE_FAST = 0.12

#: Per-query budget used by the benchmark suite.
BENCH_BUDGET = Budget(max_matches=5_000, time_limit_seconds=10.0, max_intermediate_results=200_000)

#: Directory where regenerated tables are written.
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def write_report(report) -> Path:
    """Write an ExperimentReport's table to results/<id>.txt and return the path."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{report.experiment_id.lower()}.txt"
    path.write_text(report.text() + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def fast_budget() -> Budget:
    """The shared benchmark budget."""
    return BENCH_BUDGET


@pytest.fixture(scope="session")
def em_graph():
    """Email-shaped benchmark graph."""
    return bench_graph("em", scale=BENCH_SCALE_FAST)


@pytest.fixture(scope="session")
def ep_graph():
    """Epinions-shaped benchmark graph."""
    return bench_graph("ep", scale=BENCH_SCALE_FAST)


@pytest.fixture(scope="session")
def hu_graph():
    """Human-shaped benchmark graph."""
    return bench_graph("hu", scale=BENCH_SCALE_FAST)


@pytest.fixture(scope="session")
def em_context(em_graph) -> MatchContext:
    """Shared context (BFL index) over the em graph."""
    return MatchContext(em_graph)


@pytest.fixture(scope="session")
def ep_context(ep_graph) -> MatchContext:
    """Shared context (BFL index) over the ep graph."""
    return MatchContext(ep_graph)


@pytest.fixture(scope="session")
def hu_context(hu_graph) -> MatchContext:
    """Shared context (BFL index) over the hu graph."""
    return MatchContext(hu_graph)


def representative_query(graph, kind: str = "H", template: str = "HQ8"):
    """One representative query instance of the given kind on ``graph``."""
    return query_set(graph, kind=kind, templates=(template,))[
        template if kind == "H" else template.replace("HQ", f"{kind}Q")
    ]


def matcher_benchmark(benchmark, name: str, graph, context, query, budget: Budget):
    """Benchmark one matcher on one query and record the match count."""
    matcher = make_matcher(name, graph, context, budget)
    report = benchmark(lambda: matcher.match(query, budget=budget))
    benchmark.extra_info["matches"] = report.num_matches
    benchmark.extra_info["status"] = report.status.value
    return report
