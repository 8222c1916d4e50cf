"""Tests for how a write treats the comparator artifacts (expanded graph,
catalog), stale-index errors, and cooperative cancellation checkpoints."""

import pytest

from fixtures_paper import A1, B0, C0
from repro.dynamic import GraphDelta, MutableDataGraph
from repro.engines.base import expand_descendant_edges
from repro.engines.binary_join import BinaryJoinEngine
from repro.exceptions import QueryCancelled, StaleIndexError
from repro.matching.result import Budget, BudgetClock, MatchStatus
from repro.session import QuerySession


class TestSessionApplyDropsDerivedArtifacts:
    def _warm(self, session, paper_query):
        session.query(paper_query)
        session.transitive_closure
        session.expanded_graph
        session.catalog
        return session

    def test_insert_only_apply_drops_expanded_and_catalog(
        self, paper_graph, paper_query
    ):
        session = self._warm(QuerySession(paper_graph), paper_query)
        delta = GraphDelta.for_graph(session.graph)
        node = delta.add_node("A")
        delta.add_edge(node, B0)
        delta.add_edge(node, C0)
        report = session.apply(delta)
        assert report.patched == ["reachability"]
        assert {"closure", "expanded_graph", "catalog"} <= set(report.invalidated)
        assert session.cache_counts("expanded_graph")["patches"] == 0
        assert session.cache_counts("catalog")["invalidations"] == 1
        # the rebuilt artifacts equal a cold build on the new graph
        cold = QuerySession(session.graph)
        assert session.expanded_graph == cold.expanded_graph
        assert session.expanded_graph.version == session.version == 1
        assert session.catalog.edge_counts == cold.catalog.edge_counts
        assert session.catalog.path_counts == cold.catalog.path_counts
        # and the engines that consume them agree with the cold session
        for engine in ("Neo4j", "GF"):
            assert (
                session.query(paper_query, engine=engine).occurrence_set()
                == cold.query(paper_query, engine=engine).occurrence_set()
            ), engine

    def test_removal_apply_invalidates_expanded_and_catalog(
        self, paper_graph, paper_query
    ):
        session = self._warm(QuerySession(paper_graph), paper_query)
        delta = GraphDelta.for_graph(session.graph).remove_edge(A1, B0)
        report = session.apply(delta)
        assert "expanded_graph" in report.invalidated
        assert "catalog" in report.invalidated
        assert session.cache_counts("expanded_graph")["invalidations"] == 1
        assert session.cache_counts("catalog")["invalidations"] == 1
        # lazily rebuilt artifacts still serve correct answers
        cold = QuerySession(session.graph)
        for engine in ("Neo4j", "GF"):
            assert (
                session.query(paper_query, engine=engine).occurrence_set()
                == cold.query(paper_query, engine=engine).occurrence_set()
            ), engine


class TestStaleIndexError:
    def test_constructor_injection_names_versions(self, paper_graph):
        expanded, _seconds = expand_descendant_edges(paper_graph)
        delta = GraphDelta.for_graph(paper_graph)
        node = delta.add_node("A")
        delta.add_edge(node, B0)
        patched = MutableDataGraph(paper_graph, delta).materialize()
        with pytest.raises(StaleIndexError, match="stale") as excinfo:
            BinaryJoinEngine(patched, expanded_graph=expanded)
        error = excinfo.value
        assert error.expected_version == patched.version == 1
        assert error.found_version == expanded.version == 0
        assert "version 1" in str(error) and "version 0" in str(error)

    def test_lazy_provider_injection(self, paper_graph, paper_query):
        expanded, _seconds = expand_descendant_edges(paper_graph)
        delta = GraphDelta.for_graph(paper_graph)
        node = delta.add_node("A")
        delta.add_edge(node, B0)
        patched = MutableDataGraph(paper_graph, delta).materialize()
        engine = BinaryJoinEngine(patched, expanded_graph=lambda: expanded)
        with pytest.raises(StaleIndexError):
            engine.match(paper_query)

    def test_subclasses_engine_error(self):
        from repro.exceptions import EngineError

        assert issubclass(StaleIndexError, EngineError)


class TestCancellationCheckpoints:
    class _SetEvent:
        @staticmethod
        def is_set() -> bool:
            return True

    def test_budget_clock_raises_on_cancel(self):
        budget = Budget(cancel_event=self._SetEvent())
        clock = BudgetClock(budget, check_interval=1)
        with pytest.raises(QueryCancelled):
            clock.check_time()

    def test_with_deadline_clamps_time_limit(self):
        import time

        budget = Budget(time_limit_seconds=100.0)
        clamped = budget.with_deadline(time.monotonic() + 1.0)
        assert clamped.time_limit_seconds <= 1.0
        assert budget.with_deadline(None) is budget
        expired = budget.with_deadline(time.monotonic() - 5.0)
        assert expired.time_limit_seconds == 0.0

    def test_engine_reports_cancelled_status(self, paper_graph, paper_query, monkeypatch):
        monkeypatch.setattr(
            Budget, "start_clock", lambda self: BudgetClock(self, check_interval=1)
        )
        budget = Budget(cancel_event=self._SetEvent())
        engine = BinaryJoinEngine(paper_graph, budget=budget)
        result = engine.match(paper_query, budget=budget)
        assert result.status is MatchStatus.CANCELLED
        assert not result.solved

    def test_gm_reports_cancelled_status(self, paper_graph, paper_query, monkeypatch):
        from repro.matching.gm import GraphMatcher

        monkeypatch.setattr(
            Budget, "start_clock", lambda self: BudgetClock(self, check_interval=1)
        )
        budget = Budget(cancel_event=self._SetEvent())
        matcher = GraphMatcher(paper_graph, budget=budget)
        report = matcher.match(paper_query, budget=budget)
        assert report.status is MatchStatus.CANCELLED
