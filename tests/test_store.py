"""Tests for the MVCC versioned graph store: chain, pinning, GC, forks."""

import random

import pytest

from fixtures_paper import A1, B0, C0, PAPER_ANSWER
from repro.baselines.bruteforce import bruteforce_homomorphisms
from repro.dynamic import GraphDelta
from repro.exceptions import StoreError
from repro.graph.digraph import DataGraph
from repro.graph.generators import random_labeled_graph
from repro.query.generators import random_pattern_query
from repro.session import QuerySession
from repro.store import VersionedGraphStore


@pytest.fixture()
def store(paper_graph) -> VersionedGraphStore:
    store = VersionedGraphStore(paper_graph)
    yield store
    store.close()


def _new_a_delta(graph):
    """A new A-node pointing at b0 and c0: adds exactly one GM match."""
    delta = GraphDelta.for_graph(graph)
    node = delta.add_node("A")
    delta.add_edge(node, B0)
    delta.add_edge(node, C0)
    return delta, node


class TestVersionChain:
    def test_initial_head(self, store, paper_graph):
        assert store.head_version == 0
        assert store.num_versions_retained == 1
        assert store.retained_versions() == (0,)
        assert store.graph is paper_graph

    def test_apply_publishes_new_head(self, store, paper_query):
        delta, node = _new_a_delta(store.graph)
        report = store.apply(delta)
        assert report.old_version == 0 and report.new_version == 1
        assert store.head_version == 1
        with store.pin() as snap:
            answers = snap.query(paper_query).occurrence_set()
        assert (node, B0, C0) in answers and PAPER_ANSWER < answers

    def test_noop_delta_publishes_nothing(self, store):
        delta = GraphDelta.for_graph(store.graph)
        delta.add_edge(A1, B0)  # already present
        report = store.apply(delta)
        assert report.num_ops == 0
        assert store.head_version == 0
        counters = store.counters()
        assert counters["noop_applies"] == 1 and counters["applies"] == 0

    def test_successive_applies_advance_versions(self, store):
        for expected in (1, 2, 3):
            delta, _node = _new_a_delta(store.graph)
            store.apply(delta)
            assert store.head_version == expected
        # nothing pinned: only the head is retained
        assert store.num_versions_retained == 1

    def test_closed_store_refuses(self, paper_graph):
        store = VersionedGraphStore(paper_graph)
        store.close()
        with pytest.raises(StoreError):
            store.pin()
        with pytest.raises(StoreError):
            store.apply(GraphDelta.for_graph(paper_graph).remove_edge(A1, B0))


class TestPinningAndGC:
    def test_pinned_version_survives_applies(self, store, paper_query):
        snap = store.pin()
        baseline = snap.query(paper_query).occurrence_set()
        assert baseline == PAPER_ANSWER
        for _round in range(3):
            delta, _node = _new_a_delta(store.graph)
            store.apply(delta)
        # the pinned epoch still answers version 0 exactly
        assert snap.version == 0
        assert snap.query(paper_query).occurrence_set() == PAPER_ANSWER
        assert store.num_versions_retained == 2  # v0 (pinned) + head v3
        snap.release()
        assert store.num_versions_retained == 1
        assert store.counters()["gc_count"] >= 1

    def test_release_is_idempotent_and_final(self, store, paper_query):
        snap = store.pin()
        snap.release()
        snap.release()
        with pytest.raises(StoreError):
            snap.query(paper_query)
        with pytest.raises(StoreError):
            snap.version

    def test_context_manager_releases(self, store):
        with store.pin() as snap:
            assert store.pinned_epoch_count == 1
            assert snap.version == 0
        assert store.pinned_epoch_count == 0

    def test_pin_specific_retained_version(self, store):
        snap0 = store.pin()
        delta, _node = _new_a_delta(store.graph)
        store.apply(delta)
        other = store.pin(0)
        assert other.version == 0
        snap0.release()
        other.release()
        with pytest.raises(StoreError, match="not retained"):
            store.pin(0)

    def test_multiple_pins_refcount(self, store):
        first, second = store.pin(), store.pin()
        delta, _node = _new_a_delta(store.graph)
        store.apply(delta)
        first.release()
        assert store.num_versions_retained == 2  # second still pins v0
        second.release()
        assert store.num_versions_retained == 1


class TestCopyOnWrite:
    def test_fold_does_not_disturb_pinned_artifacts(self, store, paper_query):
        # warm the head's expensive artifacts, then pin it
        with store.pin() as warmup:
            warmup.session.transitive_closure
            warmup.session.partitions
            warmup.query(paper_query)
        snap = store.pin()
        reachability_before = snap.session.reachability
        closure_before = snap.session.transitive_closure
        delta, _node = _new_a_delta(store.graph)
        report = store.apply(delta)
        # the fold carried and dropped artifacts — on the fork, not the
        # pinned epoch
        assert "reachability" in report.patched
        assert {"closure", "partitions"} <= set(report.invalidated)
        assert snap.session.reachability is reachability_before
        assert snap.session.transitive_closure is closure_before
        assert snap.query(paper_query).occurrence_set() == PAPER_ANSWER
        snap.release()

    def test_removal_fold_keeps_old_epoch_exact(self, store, paper_query):
        with store.pin() as warmup:
            warmup.session.transitive_closure
            warmup.query(paper_query)
        snap = store.pin()
        delta = GraphDelta.for_graph(store.graph).remove_edge(A1, B0)
        report = store.apply(delta)
        assert "reachability" in report.invalidated
        assert snap.query(paper_query).occurrence_set() == PAPER_ANSWER
        with store.pin() as head:
            new_answers = head.query(paper_query).occurrence_set()
        assert all(occurrence[:2] != (A1, B0) for occurrence in new_answers)
        snap.release()

    def test_frozen_epoch_refuses_inplace_apply(self, store):
        delta, _node = _new_a_delta(store.graph)
        with store.pin() as snap:
            assert snap.session.frozen
            with pytest.raises(StoreError, match="frozen"):
                snap.session.apply(delta)

    def test_store_adopts_existing_session(self, paper_graph, paper_query):
        session = QuerySession(paper_graph)
        session.query(paper_query)
        misses_before = session.cache_counts("reachability")["misses"]
        store = VersionedGraphStore(session)
        try:
            with store.pin() as snap:
                assert snap.session is session
                snap.query(paper_query)
            # adopted artifacts were reused, not rebuilt
            assert session.cache_counts("reachability")["misses"] == misses_before
            with pytest.raises(StoreError):
                session.apply(GraphDelta.for_graph(paper_graph))
        finally:
            store.close()


class TestWriterQueue:
    def test_async_applies_fold_in_order(self, store, paper_query):
        # node-free deltas stay valid against any head; enqueue a burst
        futures = []
        for offset in range(3):
            delta = GraphDelta.for_graph(store.graph)
            delta.add_edge(A1, 4 + offset)  # a1 -> b1 / b2 / b3: all new edges
            futures.append(store.apply_async(delta))
        reports = [future.result(timeout=30.0) for future in futures]
        versions = [report.new_version for report in reports]
        assert versions == sorted(versions) and len(set(versions)) == 3
        store.drain()
        assert store.head_version == versions[-1]

    def test_async_node_additions_fold_sequentially(self, store, paper_query):
        # a delta that adds nodes must be built against the head it folds
        # into (the overlay validates the base); fold one at a time
        for _round in range(3):
            delta, _node = _new_a_delta(store.graph)
            store.apply_async(delta).result(timeout=30.0)
        assert store.head_version == 3

    def test_async_writer_coexists_with_sync_apply(self, store):
        future = store.apply_async(
            GraphDelta.for_graph(store.graph).remove_edge(A1, B0)
        )
        future.result(timeout=30.0)
        delta, _node = _new_a_delta(store.graph)
        report = store.apply(delta)
        assert report.new_version == store.head_version

    def test_close_folds_already_queued_deltas(self, paper_graph):
        # Regression: close() promises every delta admitted before the
        # shutdown sentinel still folds; the writer must not reject them
        # with "store is closed" once _closed flips.
        store = VersionedGraphStore(paper_graph)
        futures = []
        for offset in range(3):
            delta = GraphDelta.for_graph(store.graph)
            delta.add_edge(A1, 4 + offset)
            futures.append(store.apply_async(delta))
        store.close()
        reports = [future.result(timeout=30.0) for future in futures]
        assert [report.new_version for report in reports] == [1, 2, 3]
        with pytest.raises(StoreError):
            store.apply(GraphDelta.for_graph(store.graph).add_edge(A1, 5))


def _mixed_write(graph, step, rng):
    """Write ``step`` of a cycle: insert, remove, relabel, SCC-merging insert."""
    delta = GraphDelta.for_graph(graph)
    edges = sorted(graph.edges())
    kind = step % 4
    if kind == 0:
        while True:
            source, target = rng.randrange(graph.num_nodes), rng.randrange(graph.num_nodes)
            if not graph.has_edge(source, target):
                return delta.add_edge(source, target)
    if kind == 1:
        return delta.remove_edge(*rng.choice(edges))
    if kind == 2:
        node = rng.randrange(graph.num_nodes)
        others = [label for label in graph.label_alphabet() if label != graph.label(node)]
        return delta.relabel(node, rng.choice(others))
    # closing a cycle merges the endpoints' strongly connected components
    rng.shuffle(edges)
    source, target = next((s, t) for s, t in edges if s != t and not graph.reaches_bfs(t, s))
    return delta.add_edge(target, source)


class TestPinnedVersionsUnderSharing:
    def test_pinned_snapshots_equal_bruteforce_after_mixed_writes(self):
        # Versions share adjacency tuples and inverted lists with their
        # predecessors: no later fold may change what a pinned one answers.
        graph = random_labeled_graph(40, 90, 3, seed=11, name="shared")
        queries = [random_pattern_query(graph, 3, seed=seed) for seed in (1, 2, 3)]
        rng = random.Random(5)
        pinned = []
        with VersionedGraphStore(graph) as store:

            def pin_head():
                snap = store.pin()
                cold = DataGraph(list(snap.graph.labels), list(snap.graph.edges()))
                for query in queries:
                    snap.query(query)  # warm the epoch's caches before the writes
                pinned.append((snap, cold))

            pin_head()
            for step in range(20):
                report = store.apply(_mixed_write(store.graph, step, rng))
                assert report.new_version == report.old_version + 1
                if step == 9:
                    pin_head()
            pin_head()
            assert [snap.version for snap, _ in pinned] == [0, 10, 20]
            for snap, cold in pinned:
                assert snap.graph == cold
                for query in queries:
                    expected = frozenset(bruteforce_homomorphisms(cold, query))
                    assert snap.query(query).occurrence_set() == expected
                snap.release()
