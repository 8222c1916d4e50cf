"""Tests for version-aware session invalidation: QuerySession.apply()."""

import pytest

from fixtures_paper import A1, B0, C0, PAPER_ANSWER
from repro.dynamic import GraphDelta, MutableDataGraph
from repro.engines.base import expand_descendant_edges
from repro.exceptions import EngineError
from repro.engines.binary_join import BinaryJoinEngine
from repro.session import QuerySession


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
        cold_graph = MutableDataGraph(
            paper_graph, GraphDelta.from_dict(delta.to_dict())
        ).materialize()
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
        patched = MutableDataGraph(paper_graph, delta).materialize()
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
        patched = MutableDataGraph(paper_graph, delta).materialize()
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
