"""Tests for the comparator query engines (Neo4j / EH / GF / RM stand-ins)."""

import pytest

from repro.baselines.bruteforce import bruteforce_homomorphisms
from repro.engines.base import expand_descendant_edges
from repro.engines.binary_join import BinaryJoinEngine
from repro.engines.relational import RelationalEngine
from repro.engines.treedecomp import TreeDecompEngine
from repro.engines.wcoj import WCOJEngine, build_catalog
from repro.exceptions import MemoryBudgetExceeded
from repro.graph.digraph import DataGraph
from repro.matching.result import Budget, MatchStatus
from repro.query.generators import random_pattern_query, to_child_only
from repro.query.pattern import PatternQuery

ENGINE_CLASSES = [BinaryJoinEngine, RelationalEngine, WCOJEngine, TreeDecompEngine]


@pytest.fixture(scope="module")
def child_query():
    return PatternQuery(
        ["A", "B", "C"],
        [(0, 1, "child"), (0, 2, "child"), (1, 2, "child")],
        name="CQ-triangle",
    )


@pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
class TestEnginesOnChildQueries:
    def test_child_query_matches_bruteforce(self, paper_graph, child_query, engine_class):
        engine = engine_class(paper_graph)
        result = engine.match(child_query)
        expected = frozenset(bruteforce_homomorphisms(paper_graph, child_query))
        assert result.occurrence_set() == expected
        assert result.algorithm == engine.name

    def test_child_only_paper_query(self, paper_graph, paper_query, engine_class):
        query = to_child_only(paper_query, name="CQ-paper")
        expected = frozenset(bruteforce_homomorphisms(paper_graph, query))
        result = engine_class(paper_graph).match(query)
        assert result.occurrence_set() == expected

    def test_random_child_queries(self, small_random_graph, engine_class):
        for seed in (1, 2, 3):
            query = to_child_only(random_pattern_query(small_random_graph, 4, seed=seed))
            expected = frozenset(bruteforce_homomorphisms(small_random_graph, query))
            result = engine_class(small_random_graph).match(query)
            assert result.occurrence_set() == expected, seed

    def test_match_cap(self, paper_graph, engine_class):
        query = PatternQuery(["A", "B"], [(0, 1, "child")], name="edge")
        result = engine_class(paper_graph, budget=Budget(max_matches=1)).match(query)
        assert result.num_matches == 1
        assert result.status is MatchStatus.MATCH_LIMIT

    def test_precompute_seconds_nonnegative(self, paper_graph, engine_class):
        engine = engine_class(paper_graph)
        assert engine.precompute_seconds >= 0.0


class TestDescendantHandling:
    def test_expand_descendant_edges(self, paper_graph):
        expanded, seconds = expand_descendant_edges(paper_graph)
        assert seconds >= 0.0
        # a1 reaches c0 through b0, so the closure adds the edge (a1, c0)... it
        # already exists; check a genuinely new closure edge instead: a1 -> c1
        # exists; a0 -> b3 exists; a0 reaches b3 only.  Use a2 => c1 via b2.
        assert expanded.has_edge(2, 8)  # a2 reaches c1 through b2
        assert expanded.num_edges >= paper_graph.num_edges

    @pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
    def test_closure_mode_answers_the_hybrid_query_itself(
        self, paper_graph, paper_query, paper_answer, engine_class
    ):
        """A child edge reads the data graph and a descendant edge the
        expanded one, so a hybrid query gets the paper's own answer — not
        the answer of its descendant-only relaxation."""
        from repro.query.generators import to_descendant_only

        relaxed = frozenset(
            bruteforce_homomorphisms(paper_graph, to_descendant_only(paper_query))
        )
        assert paper_answer < relaxed  # the two answers differ here
        result = engine_class(paper_graph).match(paper_query)
        assert result.occurrence_set() == paper_answer

    def test_descendant_only_query_on_all_engines(self, paper_graph, paper_query):
        from repro.query.generators import to_descendant_only

        query = to_descendant_only(paper_query, name="DQ-paper")
        expected = frozenset(bruteforce_homomorphisms(paper_graph, query))
        for engine_class in ENGINE_CLASSES:
            result = engine_class(paper_graph).match(query)
            assert result.occurrence_set() == expected, engine_class


@pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
def test_descendant_edge_maps_a_node_on_a_cycle_to_itself(engine_class):
    # 0 -> 1 -> 0 is a cycle, so 0 reaches itself through a path of length
    # 2; 2 reaches nothing.  The expanded graph gives 0 and 1 a self-loop.
    graph = DataGraph(["A", "B", "A"], [(0, 1), (1, 0), (2, 1)], name="cycle")
    query = PatternQuery(["A", "A"], [(0, 1, "descendant")], name="DQ-AA")
    expected = frozenset(bruteforce_homomorphisms(graph, query))
    assert expected == {(0, 0), (2, 0)}
    assert engine_class(graph).match(query).occurrence_set() == expected
    expanded, _seconds = expand_descendant_edges(graph)
    assert expanded.has_edge(0, 0) and expanded.has_edge(1, 1)
    assert not expanded.has_edge(2, 2)


class TestCatalog:
    def test_catalog_contents(self, paper_graph):
        catalog = build_catalog(paper_graph)
        assert catalog.edge_cardinality("A", "B") == 3
        assert catalog.edge_cardinality("B", "C") == 7
        assert catalog.edge_cardinality("C", "A") == 0
        assert not catalog.truncated
        assert catalog.build_seconds >= 0.0
        assert catalog.path_counts[("A", "B", "C")] > 0

    def test_catalog_cap_marks_truncated(self, small_random_graph):
        catalog = build_catalog(small_random_graph, max_entries=1)
        assert catalog.truncated

    def test_wcoj_engine_oom_on_catalog_cap(self, small_random_graph):
        with pytest.raises(MemoryBudgetExceeded):
            WCOJEngine(small_random_graph, catalog_max_entries=1)

    def test_wcoj_catalog_growth_with_labels(self):
        from repro.graph.generators import random_labeled_graph, with_label_count

        base = random_labeled_graph(150, 600, 20, seed=3)
        few_labels = with_label_count(base, 3, seed=1)
        rich = build_catalog(base)
        poor = build_catalog(few_labels)
        assert len(rich.path_counts) >= len(poor.path_counts)


class TestEngineFailureModes:
    def test_binary_join_oom(self, small_random_graph):
        query = to_child_only(random_pattern_query(small_random_graph, 4, seed=5))
        engine = BinaryJoinEngine(
            small_random_graph, budget=Budget(max_intermediate_results=2, max_matches=None)
        )
        result = engine.match(query)
        assert result.status in (MatchStatus.OUT_OF_MEMORY, MatchStatus.OK)

    def test_timeout(self, small_random_graph):
        query = to_child_only(random_pattern_query(small_random_graph, 5, seed=6, dense=True))
        engine = RelationalEngine(
            small_random_graph, budget=Budget(time_limit_seconds=0.0, max_matches=None)
        )
        result = engine.match(query)
        assert result.status in (MatchStatus.TIMEOUT, MatchStatus.OK)
