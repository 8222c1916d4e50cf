"""Tests for the brute-force oracle and the JM / TM / ISO baselines."""

import pytest

from repro.baselines.bruteforce import bruteforce_homomorphisms, bruteforce_isomorphisms
from repro.baselines.iso import ISOMatcher
from repro.baselines.jm import JMMatcher
from repro.baselines.tm import TMMatcher
from repro.matching.result import Budget, MatchStatus
from repro.query.classify import spanning_tree
from repro.query.generators import to_child_only
from repro.query.pattern import PatternQuery

from fixtures_paper import A1, A2, B0, B2, C0, C1, C2


class TestBruteForce:
    def test_homomorphisms_match_paper_answer(self, paper_graph, paper_query, paper_answer):
        assert frozenset(bruteforce_homomorphisms(paper_graph, paper_query)) == paper_answer

    def test_isomorphisms_subset_of_homomorphisms(self, paper_graph, paper_query):
        homomorphisms = set(bruteforce_homomorphisms(paper_graph, paper_query))
        isomorphisms = set(bruteforce_isomorphisms(paper_graph, paper_query))
        assert isomorphisms <= homomorphisms

    def test_homomorphism_allows_node_reuse(self):
        from repro.graph.digraph import DataGraph

        # One data node with label A and a self loop; query A -> A.
        graph = DataGraph(["A"], [(0, 0)])
        query = PatternQuery(["A", "A"], [(0, 1, "child")])
        assert bruteforce_homomorphisms(graph, query) == [(0, 0)]
        assert bruteforce_isomorphisms(graph, query) == []

    def test_limit(self, paper_graph, paper_query):
        assert len(bruteforce_homomorphisms(paper_graph, paper_query, limit=2)) == 2


class TestJMMatcher:
    def test_paper_answer(self, paper_graph, paper_context, paper_query, paper_answer):
        report = JMMatcher(paper_graph, context=paper_context).match(paper_query)
        assert report.occurrence_set() == paper_answer
        assert report.algorithm == "JM"
        assert report.status is MatchStatus.OK

    def test_reports_plan_statistics(self, paper_graph, paper_context, paper_query):
        report = JMMatcher(paper_graph, context=paper_context).match(paper_query)
        assert report.extra["plans_considered"] >= 1
        assert report.extra["peak_intermediate"] >= report.num_matches

    def test_single_node_query(self, paper_graph, paper_context):
        report = JMMatcher(paper_graph, context=paper_context).match(PatternQuery(["B"], []))
        assert report.num_matches == 4

    @pytest.mark.parametrize("cap", [1, 4])
    def test_single_node_query_stops_at_the_match_cap(self, paper_graph, paper_context, cap):
        matcher = JMMatcher(paper_graph, context=paper_context, budget=Budget(max_matches=cap))
        query = PatternQuery(["B"], [])
        report = matcher.match(query)
        streamed = matcher.match_stream(query).report()
        assert report.num_matches == len(report.occurrences) == cap
        assert report.status is MatchStatus.MATCH_LIMIT
        assert report.occurrences == streamed.occurrences
        assert streamed.status is MatchStatus.MATCH_LIMIT

    def test_out_of_memory_on_tiny_budget(self, small_random_graph):
        from repro.query.generators import random_pattern_query, to_descendant_only

        query = to_descendant_only(random_pattern_query(small_random_graph, 5, seed=2))
        matcher = JMMatcher(
            small_random_graph, budget=Budget(max_intermediate_results=3, max_matches=None)
        )
        report = matcher.match(query)
        assert report.status in (MatchStatus.OUT_OF_MEMORY, MatchStatus.OK)
        # With such a small cap the join must overflow unless the answer is trivially small.
        if report.status is MatchStatus.OK:
            assert report.extra["peak_intermediate"] <= 3

    def test_match_limit(self, paper_graph, paper_context, paper_query):
        report = JMMatcher(paper_graph, context=paper_context, budget=Budget(max_matches=2)).match(paper_query)
        assert report.num_matches == 2
        assert report.status is MatchStatus.MATCH_LIMIT

    def test_greedy_plan_for_large_queries(self, paper_graph, paper_context):
        # 11 nodes (past the DP limit of 10) and 10 edges (within DP's edge
        # limit): one A with five B children, each reaching its own C.
        size = 5
        edges = [(0, b, "child") for b in range(1, size + 1)]
        edges += [(b, b + size, "descendant") for b in range(1, size + 1)]
        query = PatternQuery(["A"] + ["B"] * size + ["C"] * size, edges, name="star")
        assert query.num_nodes > JMMatcher.DP_PLAN_NODE_LIMIT
        report = JMMatcher(paper_graph, context=paper_context).match(query)
        expected = frozenset(bruteforce_homomorphisms(paper_graph, query))
        assert len(expected) == 2**size + 3**size  # a1 via b0, a2 via b2
        assert report.occurrence_set() == expected
        assert report.extra["plans_considered"] == 1


class TestTMMatcher:
    def test_paper_answer(self, paper_graph, paper_context, paper_query, paper_answer):
        report = TMMatcher(paper_graph, context=paper_context).match(paper_query)
        assert report.occurrence_set() == paper_answer
        assert report.algorithm == "TM"

    def test_spanning_tree_split(self, paper_query):
        tree, non_tree = spanning_tree(paper_query)
        assert len(tree) == 2
        assert len(non_tree) == 1
        covered = set()
        for edge in tree:
            covered.update(edge.endpoints())
        assert covered == {0, 1, 2}

    def test_tree_solution_count_at_least_answer(self, paper_graph, paper_context, paper_query, paper_answer):
        report = TMMatcher(paper_graph, context=paper_context).match(paper_query)
        assert report.extra["tree_solutions"] >= len(paper_answer)
        assert report.extra["non_tree_edges"] == 1

    def test_match_limit(self, paper_graph, paper_context, paper_query):
        report = TMMatcher(paper_graph, context=paper_context, budget=Budget(max_matches=1)).match(paper_query)
        assert report.num_matches == 1
        assert report.status is MatchStatus.MATCH_LIMIT

    def test_out_of_memory_on_tree_solutions(self, paper_graph, paper_context, paper_query):
        matcher = TMMatcher(
            paper_graph, context=paper_context, budget=Budget(max_intermediate_results=1, max_matches=None)
        )
        report = matcher.match(paper_query)
        assert report.status is MatchStatus.OUT_OF_MEMORY

    def test_tree_only_query(self, paper_graph, paper_context, paper_answer):
        # Drop the non-tree edge; TM should handle a pure tree query.
        query = PatternQuery(["A", "B", "C"], [(0, 1, "child"), (0, 2, "child")], name="tree")
        report = TMMatcher(paper_graph, context=paper_context).match(query)
        expected = frozenset(bruteforce_homomorphisms(paper_graph, query))
        assert report.occurrence_set() == expected

    def test_single_node_query(self, paper_graph, paper_context):
        report = TMMatcher(paper_graph, context=paper_context).match(PatternQuery(["C"], []))
        assert report.num_matches == 3


class TestISOMatcher:
    def test_matches_bruteforce_isomorphisms(self, paper_graph, paper_context, paper_query):
        report = ISOMatcher(paper_graph, context=paper_context).match(paper_query)
        expected = frozenset(bruteforce_isomorphisms(paper_graph, paper_query))
        assert report.occurrence_set() == expected
        assert report.algorithm == "ISO"

    def test_child_only_query(self, paper_graph, paper_context, paper_query):
        query = to_child_only(paper_query, name="CQ-paper")
        report = ISOMatcher(paper_graph, context=paper_context).match(query)
        expected = frozenset(bruteforce_isomorphisms(paper_graph, query))
        assert report.occurrence_set() == expected

    def test_injectivity_enforced(self):
        from repro.graph.digraph import DataGraph

        graph = DataGraph(["A", "A"], [(0, 1), (1, 0)])
        query = PatternQuery(["A", "A"], [(0, 1, "child")])
        report = ISOMatcher(graph).match(query)
        # (0,1) and (1,0) are injective; (0,0)/(1,1) are not possible anyway.
        assert report.occurrence_set() == frozenset({(0, 1), (1, 0)})

    def test_match_limit(self, small_random_graph):
        from repro.query.generators import random_pattern_query

        query = to_child_only(random_pattern_query(small_random_graph, 3, seed=8))
        report = ISOMatcher(small_random_graph, budget=Budget(max_matches=1)).match(query)
        assert report.num_matches <= 1
