"""Shared helpers for the pytest-benchmark suite.

Each benchmark module corresponds to one paper table or figure (see
DESIGN.md's per-experiment index).  A module typically contains:

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


#: Machine-readable benchmark trajectory shared by the session benchmarks.
BENCH_JSON_PATH = RESULTS_DIR / "BENCH_session.json"

#: Machine-readable trajectory of the concurrent-service benchmarks.
SERVICE_JSON_PATH = RESULTS_DIR / "BENCH_service.json"

#: Machine-readable trajectory of the pipelined-streaming benchmarks.
STREAMING_JSON_PATH = RESULTS_DIR / "BENCH_streaming.json"

#: Machine-readable trajectory of the wire-protocol server benchmarks.
SERVER_JSON_PATH = RESULTS_DIR / "BENCH_server.json"

#: Machine-readable trajectory of the write-ahead-log durability benchmarks.
WAL_JSON_PATH = RESULTS_DIR / "BENCH_wal.json"

#: Machine-readable trajectory of the telemetry-overhead benchmarks.
OBS_JSON_PATH = RESULTS_DIR / "BENCH_obs.json"

#: Machine-readable trajectory of the EXPLAIN ANALYZE benchmarks.
EXPLAIN_JSON_PATH = RESULTS_DIR / "BENCH_explain.json"

#: Machine-readable trajectory of the replication benchmarks.
REPLICATION_JSON_PATH = RESULTS_DIR / "BENCH_replication.json"

#: Machine-readable trajectory of the cluster-observability benchmarks.
OBS_CLUSTER_JSON_PATH = RESULTS_DIR / "BENCH_obs_cluster.json"


def _update_json(path: Path, section: str, payload: dict) -> Path:
    """Merge one benchmark's results into a sectioned JSON document.

    Each benchmark module owns a top-level ``section`` key; re-running a
    benchmark overwrites only its own section, so the file accumulates the
    full trajectory across runs.
    """
    import json

    RESULTS_DIR.mkdir(exist_ok=True)
    document = {}
    if path.exists():
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            document = {}
    document[section] = payload
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def update_bench_json(section: str, payload: dict) -> Path:
    """Merge one benchmark's results into ``results/BENCH_session.json``."""
    return _update_json(BENCH_JSON_PATH, section, payload)


def update_service_json(section: str, payload: dict) -> Path:
    """Merge one benchmark's results into ``results/BENCH_service.json``."""
    return _update_json(SERVICE_JSON_PATH, section, payload)


def update_streaming_json(section: str, payload: dict) -> Path:
    """Merge one benchmark's results into ``results/BENCH_streaming.json``."""
    return _update_json(STREAMING_JSON_PATH, section, payload)


def update_server_json(section: str, payload: dict) -> Path:
    """Merge one benchmark's results into ``results/BENCH_server.json``."""
    return _update_json(SERVER_JSON_PATH, section, payload)


def update_wal_json(section: str, payload: dict) -> Path:
    """Merge one benchmark's results into ``results/BENCH_wal.json``."""
    return _update_json(WAL_JSON_PATH, section, payload)


def update_obs_json(section: str, payload: dict) -> Path:
    """Merge one benchmark's results into ``results/BENCH_obs.json``."""
    return _update_json(OBS_JSON_PATH, section, payload)


def update_explain_json(section: str, payload: dict) -> Path:
    """Merge one benchmark's results into ``results/BENCH_explain.json``."""
    return _update_json(EXPLAIN_JSON_PATH, section, payload)


def update_replication_json(section: str, payload: dict) -> Path:
    """Merge one benchmark's results into ``results/BENCH_replication.json``."""
    return _update_json(REPLICATION_JSON_PATH, section, payload)


def update_obs_cluster_json(section: str, payload: dict) -> Path:
    """Merge one benchmark's results into ``results/BENCH_obs_cluster.json``."""
    return _update_json(OBS_CLUSTER_JSON_PATH, section, payload)


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
    return MatchContext(em_graph, reachability_kind="bfl")


@pytest.fixture(scope="session")
def ep_context(ep_graph) -> MatchContext:
    """Shared context (BFL index) over the ep graph."""
    return MatchContext(ep_graph, reachability_kind="bfl")


@pytest.fixture(scope="session")
def hu_context(hu_graph) -> MatchContext:
    """Shared context (BFL index) over the hu graph."""
    return MatchContext(hu_graph, reachability_kind="bfl")


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
