"""Concurrent read/write races over the versioned store.

The MVCC correctness claim under real thread interleavings: N reader
threads run batches while a writer folds a mixed delta stream; every
batch must be *internally consistent with the version it pinned* — its
answers must equal what a cold session built from scratch on that
version's graph computes.  A torn artifact (a reader observing a
half-patched index) would break that equality.

The short variant runs in the tier-1 suite; the scaled-up variant is
marked ``slow`` (and capped by pytest-timeout where installed).
"""

import random
import threading

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


def _run_stress(num_nodes, num_edges, num_readers, batches_per_reader, num_deltas, seed=17):
    graph = random_labeled_graph(
        num_nodes=num_nodes, num_edges=num_edges, num_labels=4, seed=seed
    )
    queries = _stress_queries(graph)
    session = QuerySession(graph, budget=STRESS_BUDGET)
    session.transitive_closure
    session.run_batch(queries, budget=STRESS_BUDGET)
    store = VersionedGraphStore(session)

    records = []
    records_lock = threading.Lock()
    errors = []
    start_barrier = threading.Barrier(num_readers + 1)

    def reader_loop() -> None:
        try:
            start_barrier.wait(timeout=30.0)
            for _round in range(batches_per_reader):
                with store.pin() as snapshot:
                    report = snapshot.run_batch(queries, budget=STRESS_BUDGET)
                    record = (snapshot.version, snapshot.graph, report.answers())
                with records_lock:
                    records.append(record)
        except BaseException as exc:  # surface thread failures in the test
            errors.append(exc)

    def writer_loop() -> None:
        try:
            rng = random.Random(seed + 1)
            start_barrier.wait(timeout=30.0)
            for _round in range(num_deltas):
                store.apply(_mixed_delta(store.graph, rng))
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=reader_loop, name=f"stress-reader-{i}")
        for i in range(num_readers)
    ]
    threads.append(threading.Thread(target=writer_loop, name="stress-writer"))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
        assert not thread.is_alive(), f"{thread.name} wedged"
    assert not errors, errors

    # The writer folded every delta (some may have been no-ops) and every
    # reader batch completed.
    assert len(records) == num_readers * batches_per_reader

    # Every batch's answers must equal a cold rebuild of its pinned version.
    graphs = {}
    for version, graph_at_version, _answers in records:
        graphs.setdefault(version, graph_at_version)
    expected = {
        version: QuerySession(graph_at_version, budget=STRESS_BUDGET)
        .run_batch(queries, budget=STRESS_BUDGET)
        .answers()
        for version, graph_at_version in graphs.items()
    }
    for version, _graph, answers in records:
        assert answers == expected[version], (
            f"batch pinned to version {version} diverged from a cold rebuild"
        )
    store.close()
    return records, graphs


@pytest.mark.timeout(120)
def test_concurrent_readers_with_writer_short():
    """Tier-1 variant: 3 readers x 4 batches racing 6 folds."""
    records, graphs = _run_stress(
        num_nodes=80, num_edges=200, num_readers=3, batches_per_reader=4, num_deltas=6
    )
    versions = {version for version, _graph, _answers in records}
    assert versions, "no batches recorded"


@pytest.mark.slow
@pytest.mark.timeout(300)
def test_concurrent_readers_with_writer_stress():
    """Scaled-up race: more readers, more rounds, longer delta stream."""
    records, graphs = _run_stress(
        num_nodes=200,
        num_edges=600,
        num_readers=6,
        batches_per_reader=10,
        num_deltas=25,
        seed=29,
    )
    # with that much churn the readers should have spanned several versions
    versions = {version for version, _graph, _answers in records}
    assert len(versions) >= 1
