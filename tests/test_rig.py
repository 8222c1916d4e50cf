"""Tests for the runtime index graph structure and BuildRIG."""

import pytest

from repro.exceptions import MatchingError
from repro.query.pattern import PatternQuery
from repro.rig.build import RIGOptions, build_match_rig, build_rig
from repro.rig.graph import RuntimeIndexGraph
from repro.rig.stats import rig_statistics
from repro.simulation.context import ChildCheckMethod, MatchContext

from fixtures_paper import A0, A1, A2, B0, B1, B2, B3, C0, C1, C2


class TestRuntimeIndexGraphStructure:
    @pytest.fixture()
    def rig(self, paper_query):
        rig = RuntimeIndexGraph(paper_query)
        rig.set_candidates(0, [A1, A2])
        rig.set_candidates(1, [B0, B2])
        rig.set_candidates(2, [C0, C1, C2])
        edge_ab = paper_query.edge(0, 1)
        edge_bc = paper_query.edge(1, 2)
        rig.add_edge_candidates(edge_ab, A1, [B0])
        rig.add_edge_candidates(edge_ab, A2, [B2])
        rig.add_edge_candidates(edge_bc, B0, [C0, C1])
        rig.add_edge_candidates(edge_bc, B2, [C0, C1, C2])
        return rig

    def test_candidate_access(self, rig):
        assert set(rig.candidates(0)) == {A1, A2}
        assert rig.candidate_count(2) == 3

    def test_forward_backward_adjacency(self, rig):
        assert set(rig.forward_adjacency(0, 1, A1)) == {B0}
        assert set(rig.backward_adjacency(0, 1, B2)) == {A2}
        assert set(rig.forward_adjacency(1, 2, B2)) == {C0, C1, C2}
        assert set(rig.forward_adjacency(0, 1, A0)) == set()

    def test_edge_candidate_count(self, rig):
        assert rig.edge_candidate_count(0, 1) == 2
        assert rig.edge_candidate_count(1, 2) == 5

    def test_edge_candidates_iteration(self, rig):
        assert set(rig.edge_candidates(0, 1)) == {(A1, B0), (A2, B2)}

    def test_size_measures(self, rig):
        assert rig.num_rig_nodes() == 7
        assert rig.num_rig_edges() == 7
        assert rig.size() == 14
        assert not rig.is_empty()

    def test_add_edge_candidates_merges(self, rig, paper_query):
        edge_ab = paper_query.edge(0, 1)
        rig.add_edge_candidates(edge_ab, A1, [B2])
        assert set(rig.forward_adjacency(0, 1, A1)) == {B0, B2}

    def test_add_empty_heads_is_noop(self, rig, paper_query):
        before = rig.num_rig_edges()
        rig.add_edge_candidates(paper_query.edge(0, 1), A1, [])
        assert rig.num_rig_edges() == before

    def test_aggregates_are_memoised_until_the_rig_changes(self, rig, paper_query):
        assert (rig.num_rig_nodes(), rig.num_rig_edges(), rig.size()) == (7, 7, 14)
        assert not rig.is_empty()
        derived = rig.memo("derived", object)
        assert rig.memo("derived", object) is derived  # computed once
        # Each mutator drops every derived value.
        rig.add_edge_candidates(paper_query.edge(0, 1), A1, [B2])
        assert (rig.num_rig_edges(), rig.edge_candidate_count(0, 1), rig.size()) == (8, 3, 15)
        rig.set_candidates(2, [C0])
        assert (rig.num_rig_nodes(), rig.size()) == (5, 13)
        rig.set_candidates(1, [])
        assert rig.is_empty()
        rig.set_candidates(1, [B0, B2])
        assert not rig.is_empty() and rig.num_rig_nodes() == 5
        assert rig.memo("derived", object) is not derived

    def test_unknown_set_kind(self, paper_query):
        with pytest.raises(MatchingError):
            RuntimeIndexGraph(paper_query, set_kind="bogus")

    def test_roaring_set_kind(self, paper_query):
        rig = RuntimeIndexGraph(paper_query, set_kind="roaring")
        rig.set_candidates(0, [A1, A2])
        assert A1 in rig.candidates(0)

    def test_prune_unmatched_candidates(self, paper_query):
        rig = RuntimeIndexGraph(paper_query)
        rig.set_candidates(0, [A1])
        rig.set_candidates(1, [B0, B1])  # B1 gets no adjacency
        rig.set_candidates(2, [C0])
        rig.add_edge_candidates(paper_query.edge(0, 1), A1, [B0])
        rig.add_edge_candidates(paper_query.edge(0, 2), A1, [C0])
        rig.add_edge_candidates(paper_query.edge(1, 2), B0, [C0])
        assert rig.num_rig_nodes() == 4
        removed = rig.prune_unmatched_candidates()
        assert removed == 1
        assert set(rig.candidates(1)) == {B0}
        assert rig.num_rig_nodes() == 3  # the memoised aggregate was dropped


class TestBuildRIG:
    def test_refined_rig_matches_paper(self, paper_context, paper_query):
        """The refined RIG of Fig. 2(e): FB candidate sets, including (b2, c1)."""
        report = build_rig(paper_context, paper_query)
        rig = report.rig
        assert set(rig.candidates(0)) == {A1, A2}
        assert set(rig.candidates(1)) == {B0, B2}
        assert set(rig.candidates(2)) == {C0, C1, C2}
        # The redundant edge (b2, c1) survives double simulation (paper §4.5).
        assert C1 in set(rig.forward_adjacency(1, 2, B2))
        # Edge candidates of (A, B) are exactly the occurrence set.
        assert set(rig.edge_candidates(0, 1)) == {(A1, B0), (A2, B2)}

    def test_match_rig_is_larger(self, paper_context, paper_query):
        refined = build_rig(paper_context, paper_query).rig
        match_rig = build_match_rig(paper_context, paper_query).rig
        assert match_rig.num_rig_nodes() >= refined.num_rig_nodes()
        assert match_rig.num_rig_edges() >= refined.num_rig_edges()
        assert set(match_rig.candidates(1)) == {B0, B1, B2, B3}

    def test_prefilter_mode_between_match_and_refined(self, paper_context, paper_query):
        refined = build_rig(paper_context, paper_query).rig
        prefilter_only = build_rig(
            paper_context, paper_query, RIGOptions(filter_mode="prefilter")
        ).rig
        match_rig = build_match_rig(paper_context, paper_query).rig
        assert refined.num_rig_nodes() <= prefilter_only.num_rig_nodes() <= match_rig.num_rig_nodes()

    def test_unknown_filter_mode(self, paper_context, paper_query):
        with pytest.raises(ValueError):
            build_rig(paper_context, paper_query, RIGOptions(filter_mode="bogus"))

    def test_report_timings(self, paper_context, paper_query):
        report = build_rig(paper_context, paper_query)
        assert report.select_seconds >= 0.0
        assert report.expand_seconds >= 0.0
        assert report.total_seconds == pytest.approx(report.select_seconds + report.expand_seconds)
        assert report.simulation is not None
        assert report.candidates_after_selection >= report.rig.num_rig_nodes()

    def test_empty_rig_short_circuits(self, paper_context):
        query = PatternQuery(["Z", "A"], [(0, 1, "child")])
        report = build_rig(paper_context, query)
        assert report.rig.is_empty()
        assert report.rig.num_rig_edges() == 0

    def test_child_check_methods_build_same_rig(self, paper_context, paper_query):
        reference = build_rig(paper_context, paper_query).rig
        for method in ChildCheckMethod:
            options = RIGOptions(child_check=method)
            rig = build_rig(paper_context, paper_query, options).rig
            assert set(rig.edge_candidates(0, 1)) == set(reference.edge_candidates(0, 1))
            assert set(rig.edge_candidates(1, 2)) == set(reference.edge_candidates(1, 2))

    def test_basic_simulation_algorithm_option(self, paper_context, paper_query):
        options = RIGOptions(simulation_algorithm="basic")
        rig = build_rig(paper_context, paper_query, options).rig
        assert set(rig.candidates(1)) == {B0, B2}

    def test_roaring_rig(self, paper_context, paper_query):
        options = RIGOptions(set_kind="roaring")
        rig = build_rig(paper_context, paper_query, options).rig
        assert set(rig.candidates(0)) == {A1, A2}


class TestRIGStatistics:
    def test_statistics(self, paper_context, paper_graph, paper_query):
        rig = build_rig(paper_context, paper_query).rig
        stats = rig_statistics(rig, paper_graph)
        assert stats.rig_nodes == rig.num_rig_nodes()
        assert stats.rig_edges == rig.num_rig_edges()
        assert stats.rig_size == stats.rig_nodes + stats.rig_edges
        assert stats.graph_size == paper_graph.num_nodes + paper_graph.num_edges
        assert 0.0 < stats.size_ratio < 2.0
        assert stats.ratio_percent() == pytest.approx(100 * stats.size_ratio)
        assert stats.per_query_node[0] == 2

    def test_rig_much_smaller_than_match_rig_on_random_graph(self, small_context, small_random_graph):
        from repro.query.generators import random_pattern_query

        query = random_pattern_query(small_random_graph, 4, seed=2)
        refined = build_rig(small_context, query).rig
        match_rig = build_match_rig(small_context, query).rig
        assert refined.size() <= match_rig.size()
