"""Concurrent read/write races over the versioned store.

The MVCC correctness claim under real thread interleavings: N reader
threads each pin a version and read every query through the snapshot
while a writer folds a mixed delta stream; every pinned round must be
*internally consistent with the version it pinned* — its answers must
equal what a cold session built from scratch on that
version's graph computes.  A torn artifact (a reader observing a
half-patched index) would break that equality.

The short variant runs in the tier-1 suite; the scaled-up variant is
marked ``slow`` (and capped by pytest-timeout where installed).
"""

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.dynamic import GraphDelta
from repro.graph.generators import random_labeled_graph
from repro.matching.result import Budget
from repro.query.generators import random_pattern_query
from repro.session import QuerySession
from repro.store import VersionedGraphStore

STRESS_BUDGET = Budget(
    max_matches=1_000, time_limit_seconds=10.0, max_intermediate_results=100_000
)


def _stress_queries(graph, count: int = 3, seed: int = 5):
    queries = {}
    for index in range(count):
        query = random_pattern_query(
            graph,
            3,
            seed=seed + index,
            descendant_probability=0.5,
            name=f"stress-{index}",
        )
        queries[query.name] = query
    return queries


def _mixed_delta(graph, rng: random.Random) -> GraphDelta:
    """A node-free delta: a few inserts, sometimes a removal."""
    delta = GraphDelta.for_graph(graph)
    edges = list(graph.edges())
    if edges and rng.random() < 0.5:
        source, target = edges[rng.randrange(len(edges))]
        delta.remove_edge(source, target)
    for _ in range(3):
        a, b = rng.randrange(graph.num_nodes), rng.randrange(graph.num_nodes)
        if a != b:
            delta.add_edge(a, b)
    return delta


def _answers(reader, queries):
    """Each query's answer set, read one query at a time through ``reader``."""
    return {
        name: reader.query(query, budget=STRESS_BUDGET).occurrence_set()
        for name, query in queries.items()
    }


def _run_stress(num_nodes, num_edges, num_readers, rounds_per_reader, num_deltas, seed=17):
    graph = random_labeled_graph(
        num_nodes=num_nodes, num_edges=num_edges, num_labels=4, seed=seed
    )
    queries = _stress_queries(graph)
    session = QuerySession(graph, budget=STRESS_BUDGET)
    session.transitive_closure
    _answers(session, queries)
    store = VersionedGraphStore(session)

    records = []
    records_lock = threading.Lock()
    start_barrier = threading.Barrier(num_readers + 1)

    def reader_loop() -> None:
        start_barrier.wait(timeout=30.0)
        for _round in range(rounds_per_reader):
            with store.pin() as snapshot:
                record = (snapshot.version, snapshot.graph, _answers(snapshot, queries))
            with records_lock:
                records.append(record)

    def writer_loop() -> None:
        rng = random.Random(seed + 1)
        start_barrier.wait(timeout=30.0)
        for _round in range(num_deltas):
            store.apply(_mixed_delta(store.graph, rng))

    with ThreadPoolExecutor(max_workers=num_readers + 1) as pool:
        futures = [pool.submit(reader_loop) for _ in range(num_readers)]
        futures.append(pool.submit(writer_loop))
        for future in futures:
            future.result(timeout=120.0)  # re-raises a reader's or the writer's failure

    # The writer folded every delta (some may have been no-ops) and every
    # reader round completed.
    assert len(records) == num_readers * rounds_per_reader

    # Every round's answers must equal a cold rebuild of its pinned version.
    graphs = {}
    for version, graph_at_version, _answers_at_version in records:
        graphs.setdefault(version, graph_at_version)
    expected = {
        version: _answers(QuerySession(graph_at_version, budget=STRESS_BUDGET), queries)
        for version, graph_at_version in graphs.items()
    }
    for version, _graph, answers in records:
        assert answers == expected[version], (
            f"round pinned to version {version} diverged from a cold rebuild"
        )
    store.close()
    return records, graphs


@pytest.mark.timeout(120)
def test_concurrent_readers_with_writer_short():
    """Tier-1 variant: 3 readers x 4 pinned rounds racing 6 folds."""
    records, graphs = _run_stress(
        num_nodes=80, num_edges=200, num_readers=3, rounds_per_reader=4, num_deltas=6
    )
    versions = {version for version, _graph, _answers in records}
    assert versions, "no rounds recorded"


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_concurrent_readers_with_writer_stress():
    """Scaled-up race: more readers, more rounds, longer delta stream."""
    records, graphs = _run_stress(
        num_nodes=200,
        num_edges=600,
        num_readers=6,
        rounds_per_reader=10,
        num_deltas=25,
        seed=29,
    )
    # with that much churn the readers should have spanned several versions
    versions = {version for version, _graph, _answers in records}
    assert len(versions) >= 1
