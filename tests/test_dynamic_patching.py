"""Tests for the new patch paths (expanded graph, catalog), stale-index
errors, and cooperative cancellation checkpoints."""

import random

import pytest

from fixtures_paper import A1, B0, C0
from repro.dynamic import GraphDelta, MutableDataGraph, patch_expanded_graph
from repro.engines.base import expand_descendant_edges
from repro.engines.binary_join import BinaryJoinEngine
from repro.engines.wcoj import build_catalog, patch_catalog
from repro.exceptions import QueryCancelled, StaleIndexError
from repro.graph.generators import random_labeled_graph
from repro.matching.result import Budget, BudgetClock, MatchStatus
from repro.reachability.transitive_closure import TransitiveClosureIndex
from repro.session import QuerySession


def _random_insert_delta(graph, seed, num_nodes=2, num_edges=6):
    rng = random.Random(seed)
    delta = GraphDelta.for_graph(graph)
    new_nodes = [
        delta.add_node(rng.choice(graph.label_alphabet())) for _ in range(num_nodes)
    ]
    total = graph.num_nodes + len(new_nodes)
    for _ in range(num_edges):
        a, b = rng.randrange(total), rng.randrange(total)
        if a != b:
            delta.add_edge(a, b)
    return delta


class TestCatalogPatch:
    @pytest.mark.parametrize("seed", range(8))
    def test_patched_equals_rebuilt(self, seed):
        graph = random_labeled_graph(
            num_nodes=16, num_edges=40, num_labels=3, seed=seed
        )
        delta = _random_insert_delta(graph, seed)
        overlay = MutableDataGraph(graph, delta)
        effective = overlay.delta_since_base()
        catalog = build_catalog(graph)
        assert patch_catalog(catalog, graph, effective)
        rebuilt = build_catalog(overlay.materialize())
        assert catalog.edge_counts == rebuilt.edge_counts
        assert catalog.path_counts == rebuilt.path_counts

    def test_self_loop_paths_counted_once(self):
        graph = random_labeled_graph(num_nodes=6, num_edges=8, num_labels=2, seed=3)
        delta = GraphDelta.for_graph(graph).add_edge(0, 0)
        overlay = MutableDataGraph(graph, delta)
        effective = overlay.delta_since_base()
        catalog = build_catalog(graph)
        assert patch_catalog(catalog, graph, effective)
        rebuilt = build_catalog(overlay.materialize())
        assert catalog.path_counts == rebuilt.path_counts

    def test_removal_delta_rejected(self, paper_graph):
        catalog = build_catalog(paper_graph)
        before = dict(catalog.edge_counts)
        delta = GraphDelta.for_graph(paper_graph).remove_edge(A1, B0)
        assert not patch_catalog(catalog, paper_graph, delta)
        assert catalog.edge_counts == before  # untouched on rejection

    def test_truncated_catalog_rejected(self, paper_graph):
        catalog = build_catalog(paper_graph)
        catalog.truncated = True
        delta = GraphDelta.for_graph(paper_graph).add_edge(A1, 4)
        assert not patch_catalog(catalog, paper_graph, delta)

    def test_copy_is_independent(self, paper_graph):
        catalog = build_catalog(paper_graph)
        clone = catalog.copy()
        delta = GraphDelta.for_graph(paper_graph).add_edge(A1, 4)
        assert patch_catalog(clone, paper_graph, delta)
        assert clone.edge_counts != catalog.edge_counts


class TestExpandedGraphPatch:
    @pytest.mark.parametrize("seed", range(8))
    def test_patched_equals_rebuilt(self, seed):
        graph = random_labeled_graph(
            num_nodes=14, num_edges=30, num_labels=3, seed=seed + 50
        )
        closure = TransitiveClosureIndex(graph)
        expanded, _seconds = expand_descendant_edges(graph, closure=closure)
        delta = _random_insert_delta(graph, seed + 50)
        overlay = MutableDataGraph(graph, delta)
        effective = overlay.delta_since_base()
        if not effective:
            pytest.skip("degenerate delta")
        new_graph = overlay.materialize()
        assert closure.apply_delta(new_graph, effective)
        patched = patch_expanded_graph(
            expanded, new_graph, effective, closure.last_patch_additions()
        )
        rebuilt, _seconds = expand_descendant_edges(new_graph)
        assert patched == rebuilt
        assert patched.version == new_graph.version

    def test_removal_delta_rejected(self, paper_graph):
        expanded, _seconds = expand_descendant_edges(paper_graph)
        delta = GraphDelta.for_graph(paper_graph).remove_edge(A1, B0)
        assert patch_expanded_graph(expanded, paper_graph, delta, []) is None


class TestSessionApplyPatchesDerivedArtifacts:
    def _warm(self, session, paper_query):
        session.query(paper_query)
        session.transitive_closure
        session.expanded_graph
        session.catalog
        return session

    def test_insert_only_apply_patches_expanded_and_catalog(
        self, paper_graph, paper_query
    ):
        session = self._warm(QuerySession(paper_graph), paper_query)
        delta = GraphDelta.for_graph(session.graph)
        node = delta.add_node("A")
        delta.add_edge(node, B0)
        delta.add_edge(node, C0)
        report = session.apply(delta)
        assert "expanded_graph" in report.patched
        assert "catalog" in report.patched
        assert session.cache_counts("expanded_graph")["patches"] == 1
        assert session.cache_counts("catalog")["patches"] == 1
        assert session.cache_counts("expanded_graph")["invalidations"] == 0
        # patched artifacts equal a cold rebuild on the new graph
        cold = QuerySession(session.graph)
        assert session.expanded_graph == cold.expanded_graph
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
