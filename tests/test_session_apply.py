"""Tests for version-aware session invalidation: QuerySession.apply()."""

import random

import pytest

from fixtures_paper import A1, B0, C0, PAPER_ANSWER
from repro.dynamic import GraphDelta, should_patch
from repro.engines.base import expand_descendant_edges
from repro.exceptions import EngineError
from repro.engines.binary_join import BinaryJoinEngine
from repro.graph.digraph import DataGraph
from repro.graph.generators import random_labeled_graph
from repro.session import QuerySession
from repro.wal.durability import WalDurability


@pytest.fixture()
def session(paper_graph) -> QuerySession:
    return QuerySession(paper_graph)


def _new_a_delta(graph):
    """A new A-node pointing at b0 and c0: adds exactly one GM match."""
    delta = GraphDelta.for_graph(graph)
    node = delta.add_node("A")
    delta.add_edge(node, B0)
    delta.add_edge(node, C0)
    return delta, node


class TestApplySemantics:
    def test_apply_bumps_version_and_updates_answers(self, session, paper_query):
        assert session.version == 0
        assert session.query(paper_query).occurrence_set() == PAPER_ANSWER
        delta, node = _new_a_delta(session.graph)
        report = session.apply(delta)
        assert session.version == 1
        assert report.old_version == 0 and report.new_version == 1
        answers = session.query(paper_query).occurrence_set()
        assert (node, B0, C0) in answers
        assert PAPER_ANSWER < answers

    def test_patched_equals_cold_session(self, session, paper_graph, paper_query):
        session.query(paper_query)
        session.transitive_closure
        session.partitions
        delta, _node = _new_a_delta(paper_graph)
        session.apply(delta)
        cold_graph, _ = paper_graph.with_delta(GraphDelta.from_dict(delta.to_dict()))
        cold = QuerySession(cold_graph)
        for engine in ("GM", "GM-F", "Neo4j", "EH", "GF", "RM", "JM", "TM"):
            assert (
                session.query(paper_query, engine=engine).occurrence_set()
                == cold.query(paper_query, engine=engine).occurrence_set()
            ), engine

    def test_insert_only_delta_patches_expensive_artifacts(self, session, paper_query):
        session.query(paper_query)
        session.transitive_closure
        session.partitions
        delta, _node = _new_a_delta(session.graph)
        report = session.apply(delta)
        assert "reachability" in report.patched
        assert "closure" in report.patched
        assert "partitions" in report.patched
        assert session.cache_counts("reachability")["patches"] == 1
        assert session.cache_counts("reachability")["invalidations"] == 0
        # the reachability index was not rebuilt by the next query
        misses_before = session.cache_counts("reachability")["misses"]
        session.query(paper_query)
        assert session.cache_counts("reachability")["misses"] == misses_before

    def test_removal_delta_invalidates_reachability(self, session, paper_query):
        session.query(paper_query)
        session.transitive_closure
        delta = GraphDelta.for_graph(session.graph).remove_edge(A1, B0)
        report = session.apply(delta)
        assert "reachability" in report.invalidated
        assert "closure" in report.invalidated
        assert session.cache_counts("reachability")["invalidations"] == 1
        # answers reflect the removal (rebuilt lazily)
        answers = session.query(paper_query).occurrence_set()
        assert all(occ[:2] != (A1, B0) for occ in answers)
        assert session.cache_counts("reachability")["misses"] == 2  # initial + rebuild

    def test_unbuilt_artifacts_are_untouched(self, session):
        # nothing built yet: apply reports no patches/invalidation of indexes
        delta, _node = _new_a_delta(session.graph)
        report = session.apply(delta)
        assert report.patched == []
        assert set(report.invalidated) <= {"rig", "matcher"}

    def test_rig_cache_is_version_keyed(self, session, paper_query):
        first = session.query(paper_query)
        assert first.extra["rig_cached"] is False
        assert session.query(paper_query).extra["rig_cached"] is True
        delta, _node = _new_a_delta(session.graph)
        session.apply(delta)
        assert session.cache_counts("rig")["invalidations"] == 1
        # post-apply the old RIG is stranded: the same query rebuilds it
        post = session.query(paper_query)
        assert post.extra["rig_cached"] is False
        assert session.query(paper_query).extra["rig_cached"] is True

    def test_noop_delta_changes_nothing(self, session, paper_query):
        session.query(paper_query)
        session.transitive_closure
        graph_before = session.graph
        counters_before = session.telemetry.registry.snapshot()
        # every op is a no-op: the edge exists, the label is unchanged
        delta = GraphDelta.for_graph(session.graph)
        delta.add_edge(A1, B0)
        delta.relabel(A1, "A")
        report = session.apply(delta)
        assert report.num_ops == 0
        assert report.old_version == report.new_version == 0
        assert report.patched == [] and report.invalidated == []
        assert session.graph is graph_before
        assert session.telemetry.registry.snapshot() == counters_before
        # the RIG cache survives: the same query is still served warm
        assert session.query(paper_query).extra["rig_cached"] is True

    def test_successive_applies(self, session, paper_query):
        session.query(paper_query)
        for expected_version in (1, 2, 3):
            delta, _node = _new_a_delta(session.graph)
            session.apply(delta)
            assert session.version == expected_version
        cold = QuerySession(session.graph)
        assert (
            session.query(paper_query).occurrence_set()
            == cold.query(paper_query).occurrence_set()
        )

    def test_batch_after_apply(self, session, paper_query):
        session.run_batch({"q": paper_query})
        delta, node = _new_a_delta(session.graph)
        session.apply(delta)
        batch = session.run_batch({"q": paper_query})
        assert (node, B0, C0) in batch.answers()["q"]


class TestClearContract:
    def test_clear_drops_artifacts_not_counts(self, session, paper_query):
        session.query(paper_query)
        delta, _node = _new_a_delta(session.graph)
        session.apply(delta)
        before = session.cache_counts()
        assert before["misses"] > 0
        session.clear()
        assert session.cache_counts() == before
        # post-clear hit-rate math is done on deltas: the query rebuilds the
        # dropped reachability index and reuses nothing
        reachability = session.cache_counts("reachability")
        session.query(paper_query)
        after = session.cache_counts("reachability")
        assert after["misses"] - reachability["misses"] == 1
        assert after["hits"] == reachability["hits"]


class TestEngineVersionChecks:
    def test_stale_expanded_graph_rejected(self, paper_graph, paper_query):
        expanded, _seconds = expand_descendant_edges(paper_graph)
        delta, _node = _new_a_delta(paper_graph)
        patched, _ = paper_graph.with_delta(delta)
        # expanded graph built for version 0 injected next to the v1 graph
        with pytest.raises(EngineError, match="stale"):
            BinaryJoinEngine(patched, expanded_graph=expanded)

    def test_matching_expanded_graph_accepted(self, paper_graph, paper_query):
        expanded, _seconds = expand_descendant_edges(paper_graph)
        assert expanded.version == paper_graph.version
        engine = BinaryJoinEngine(paper_graph, expanded_graph=expanded)
        result = engine.match(paper_query)
        assert result.num_matches > 0

    def test_stale_lazy_provider_rejected(self, paper_graph, paper_query):
        expanded, _seconds = expand_descendant_edges(paper_graph)
        delta, _node = _new_a_delta(paper_graph)
        patched, _ = paper_graph.with_delta(delta)
        engine = BinaryJoinEngine(patched, expanded_graph=lambda: expanded)
        with pytest.raises(EngineError, match="stale"):
            engine.match(paper_query)

    def test_session_reinjects_fresh_artifacts_after_apply(self, session, paper_query):
        # engines served through the session always see matching versions
        session.query(paper_query, engine="Neo4j")
        delta, _node = _new_a_delta(session.graph)
        session.apply(delta)
        report = session.query(paper_query, engine="Neo4j")
        assert report.num_matches > 0


class TestReachabilityPatchBranches:
    """Which writes rebuild reachability: exactly the inserts that merge SCCs.

    ``should_patch`` agrees to patch every small insert-only delta;
    ``BloomFilterLabeling.apply_delta`` then refuses an inserted edge that
    closes a cycle (the condensation changes shape), and only that.
    """

    def test_cycle_closing_insert_invalidates_and_acyclic_insert_patches(self, paper_graph, paper_query):
        graph = paper_graph
        closing = next(
            (v, u) for u in graph.nodes() for v in graph.bfs_forward(u) if not graph.reaches_bfs(v, u)
        )
        acyclic = next(
            (u, v)
            for u in graph.nodes()
            for v in graph.nodes()
            if u != v and not graph.has_edge(u, v) and not graph.reaches_bfs(v, u)
        )
        for edge, outcome in ((acyclic, "patched"), (closing, "invalidated")):
            session = QuerySession(graph)
            session.query(paper_query)
            delta = GraphDelta.for_graph(graph).add_edge(*edge)
            assert should_patch(graph, delta)
            report = session.apply(delta)
            assert "reachability" in getattr(report, outcome), edge
            cold = QuerySession(DataGraph(graph.labels, list(graph.edges()) + [edge]))
            assert (
                session.query(paper_query).occurrence_set()
                == cold.query(paper_query).occurrence_set()
            )


class TestExpandedGraphVersion:
    def test_noop_expanded_fold_still_carries_the_new_version(self, session, paper_query):
        # (u, v) with u already reaching v: a new data edge, but already an
        # edge of the closure-expanded graph, so folding it there changes
        # nothing -- the patched expanded graph must still be the new version.
        graph = session.graph
        edge = next(
            (u, v) for u in graph.nodes() for v in graph.bfs_forward(u) if v != u and not graph.has_edge(u, v)
        )
        session.transitive_closure
        before = session.expanded_graph
        report = session.apply(GraphDelta.for_graph(graph).add_edge(*edge))
        assert "expanded_graph" in report.patched
        after = session.expanded_graph
        assert after == before and after is not before
        assert after.version == session.version == 1
        assert before.version == 0
        engine = BinaryJoinEngine(session.graph, expanded_graph=after)  # not rejected as stale
        cold = QuerySession(session.graph)
        assert (
            engine.match(paper_query).occurrence_set()
            == cold.query(paper_query, engine="Neo4j").occurrence_set()
        )


class TestWritePathNeverRebuilds:
    """A write folds its delta; it never runs the O(V + E) constructor."""

    @staticmethod
    def _count_constructor(monkeypatch):
        calls = []
        original = DataGraph.__init__

        def counting(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DataGraph, "__init__", counting)
        return calls

    @staticmethod
    def _big_graph_and_insert():
        graph = random_labeled_graph(5_000, 10_000, num_labels=8, seed=3, name="big")
        rng = random.Random(4)
        delta = GraphDelta.for_graph(graph)
        while len(delta) < 4:
            source, target = rng.randrange(graph.num_nodes), rng.randrange(graph.num_nodes)
            if not graph.has_edge(source, target) and not graph.reaches_bfs(target, source):
                delta.add_edge(source, target)
        return graph, delta

    def test_session_apply_never_calls_the_constructor(self, monkeypatch):
        graph, delta = self._big_graph_and_insert()
        session = QuerySession(graph)
        session.context  # a built reachability index takes the patch path
        calls = self._count_constructor(monkeypatch)
        report = session.apply(delta)
        assert report.patched == ["reachability"]
        assert session.graph.num_edges == graph.num_edges + 4
        assert calls == []

    def test_recovery_builds_only_the_checkpoint(self, tmp_path, monkeypatch):
        graph, delta = self._big_graph_and_insert()
        directory = str(tmp_path / "tenant")
        durability = WalDurability.create(directory, graph)
        durability.journal(delta, graph.version, graph.version + 1)
        durability.close()
        calls = self._count_constructor(monkeypatch)
        recovered, reopened, report = WalDurability.recover(directory)
        reopened.close()
        assert report.entries_applied == 1 and recovered.version == 1
        assert recovered == graph.with_delta(delta)[0]
        assert len(calls) == 1  # the checkpoint load
