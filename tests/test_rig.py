"""Tests for the runtime index graph structure and BuildRIG."""

import pytest

from repro.graph.digraph import DataGraph
from repro.matching.gm import GraphMatcher
from repro.query.pattern import PatternQuery
from repro.rig.build import GMVariant, build_match_rig, build_rig
from repro.rig.graph import RuntimeIndexGraph
from repro.rig.stats import rig_statistics
from repro.simulation.context import ChildCheckMethod, MatchContext
from repro.simulation.fbsim import SimulationOptions

from fixtures_paper import A0, A1, A2, B0, B1, B2, B3, C0, C1, C2


def install(rig, edge, pairs):
    """Hand ``pairs`` to the bulk call: both directions, by transposition."""
    forward, backward = {}, {}
    for tail, head in pairs:
        forward.setdefault(tail, []).append(head)
        backward.setdefault(head, []).append(tail)
    rig.set_edge_adjacency(
        edge,
        {tail: frozenset(heads) for tail, heads in forward.items()},
        {head: frozenset(tails) for head, tails in backward.items()},
    )


class TestRuntimeIndexGraphStructure:
    @pytest.fixture()
    def rig(self, paper_query):
        rig = RuntimeIndexGraph(paper_query)
        rig.set_candidates(0, [A1, A2])
        rig.set_candidates(1, [B0, B2])
        rig.set_candidates(2, [C0, C1, C2])
        edge_ab = paper_query.edge(0, 1)
        edge_bc = paper_query.edge(1, 2)
        install(rig, edge_ab, [(A1, B0), (A2, B2)])
        install(rig, edge_bc, [(B0, C0), (B0, C1), (B2, C0), (B2, C1), (B2, C2)])
        return rig

    def test_candidate_access(self, rig):
        assert set(rig.candidates(0)) == {A1, A2}
        assert rig.candidate_count(2) == 3

    def test_forward_backward_index(self, rig):
        assert rig.forward_index(0, 1)[A1] == {B0}
        assert rig.backward_index(0, 1)[B2] == {A2}
        assert rig.forward_index(1, 2)[B2] == {C0, C1, C2}
        assert A0 not in rig.forward_index(0, 1)

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

    def test_set_edge_adjacency_replaces_and_takes_ownership(self, rig, paper_query):
        forward, backward = {A1: frozenset([B0, B2])}, {B0: frozenset([A1]), B2: frozenset([A1])}
        rig.set_edge_adjacency(paper_query.edge(0, 1), forward, backward)
        assert rig.forward_index(0, 1) is forward and rig.backward_index(0, 1) is backward
        assert rig.forward_index(0, 1)[A1] == {B0, B2}
        assert rig.backward_index(0, 1)[B2] == {A1}
        assert A2 not in rig.forward_index(0, 1)  # replaced, not merged

    def test_add_empty_heads_is_noop(self, rig, paper_query):
        before = rig.num_rig_edges()
        install(rig, paper_query.edge(0, 2), [])
        assert rig.num_rig_edges() == before

    def test_physical_edges_count_each_stored_set_once(self, rig, paper_query):
        # Nothing shared: every pair is stored once per direction.
        assert rig.num_physical_edges() == 2 * rig.num_rig_edges() == 14
        heads, tails = frozenset([C0, C1]), frozenset([A1, A2])
        rig.set_edge_adjacency(
            paper_query.edge(0, 2), dict.fromkeys([A1, A2], heads), dict.fromkeys([C0, C1], tails)
        )
        assert rig.num_rig_edges() == 7 + 4  # logical: the pairs
        assert rig.num_physical_edges() == 14 + 2 + 2  # physical: two shared sets

    def test_aggregates_are_memoised_until_the_rig_changes(self, rig, paper_query):
        assert (rig.num_rig_nodes(), rig.num_rig_edges(), rig.size()) == (7, 7, 14)
        assert not rig.is_empty()
        derived = rig.memo("derived", object)
        assert rig.memo("derived", object) is derived  # computed once
        # Each mutator drops every derived value.
        install(rig, paper_query.edge(0, 1), [(A1, B0), (A1, B2), (A2, B2)])
        assert (rig.num_rig_edges(), rig.edge_candidate_count(0, 1), rig.size()) == (8, 3, 15)
        rig.set_candidates(2, [C0])
        assert (rig.num_rig_nodes(), rig.size()) == (5, 13)
        rig.set_candidates(1, [])
        assert rig.is_empty()
        rig.set_candidates(1, [B0, B2])
        assert not rig.is_empty() and rig.num_rig_nodes() == 5
        assert rig.memo("derived", object) is not derived

    def test_prune_unmatched_candidates(self, paper_query):
        rig = RuntimeIndexGraph(paper_query)
        rig.set_candidates(0, [A1])
        rig.set_candidates(1, [B0, B1])  # B1 gets no adjacency
        rig.set_candidates(2, [C0])
        install(rig, paper_query.edge(0, 1), [(A1, B0)])
        install(rig, paper_query.edge(0, 2), [(A1, C0)])
        install(rig, paper_query.edge(1, 2), [(B0, C0)])
        assert rig.num_rig_nodes() == 4
        removed = rig.prune_unmatched_candidates()
        assert removed == 1
        assert set(rig.candidates(1)) == {B0}
        assert rig.num_rig_nodes() == 3  # the memoised aggregate was dropped

    def test_prune_cascades_to_a_fixpoint(self, paper_query):
        rig = RuntimeIndexGraph(paper_query)
        rig.set_candidates(0, [A1, A2])
        rig.set_candidates(1, [B0, B2])
        rig.set_candidates(2, [C0])
        install(rig, paper_query.edge(0, 1), [(A1, B0), (A2, B2)])
        install(rig, paper_query.edge(0, 2), [(A1, C0), (A2, C0)])
        install(rig, paper_query.edge(1, 2), [(B0, C0)])
        # B2 has no C; only then does A2 lose its only B, on an earlier edge.
        assert rig.prune_unmatched_candidates() == 2
        assert (rig.candidates(0), rig.candidates(1), rig.candidates(2)) == ({A1}, {B0}, {C0})

    def test_prune_keeps_a_candidate_with_one_live_partner(self, paper_query):
        rig = RuntimeIndexGraph(paper_query)
        rig.set_candidates(0, [A1, A2])
        rig.set_candidates(1, [B0, B2])
        rig.set_candidates(2, [C0])
        install(rig, paper_query.edge(0, 1), [(A1, B0), (A1, B2), (A2, B0), (A2, B2)])
        install(rig, paper_query.edge(0, 2), [(A1, C0), (A2, C0)])
        install(rig, paper_query.edge(1, 2), [(B0, C0)])
        assert rig.prune_unmatched_candidates() == 1
        assert (rig.candidates(0), rig.candidates(1)) == ({A1, A2}, {B0})
        # Adjacency is restricted to the survivors: no pair names B2 any more.
        assert rig.forward_index(0, 1) == {A1: {B0}, A2: {B0}}
        assert rig.backward_index(0, 1) == {B0: {A1, A2}}
        assert rig.num_rig_edges() == 2 + 2 + 1

    def test_prune_restricts_a_shared_set_once(self, paper_query):
        rig = RuntimeIndexGraph(paper_query)
        rig.set_candidates(0, [A1, A2])
        rig.set_candidates(1, [B0, B2])
        rig.set_candidates(2, [C0])
        shared, tails = frozenset([B0, B2]), frozenset([A1, A2])
        rig.set_edge_adjacency(
            paper_query.edge(0, 1), {A1: shared, A2: shared}, {B0: tails, B2: tails}
        )
        install(rig, paper_query.edge(0, 2), [(A1, C0), (A2, C0)])
        kept = rig.forward_index(0, 2)[A1]
        install(rig, paper_query.edge(1, 2), [(B0, C0)])
        assert rig.prune_unmatched_candidates() == 1
        forward = rig.forward_index(0, 1)
        assert forward[A1] == {B0} and forward[A1] is forward[A2]  # still one object
        assert B2 not in rig.backward_index(0, 1)
        assert rig.forward_index(0, 2)[A1] is kept  # lost nothing: not copied

    def test_prune_empties_the_rig_when_one_edge_has_no_pairs(self, paper_query):
        rig = RuntimeIndexGraph(paper_query)
        rig.set_candidates(0, [A1, A2])
        rig.set_candidates(1, [B0, B2])
        rig.set_candidates(2, [C0, C1])
        install(rig, paper_query.edge(0, 1), [(A1, B0), (A2, B2)])
        install(rig, paper_query.edge(0, 2), [(A1, C0), (A2, C1)])
        install(rig, paper_query.edge(1, 2), [])
        assert rig.prune_unmatched_candidates() == 6
        assert rig.is_empty() and rig.num_rig_nodes() == 0

    def test_prune_of_an_exact_rig_removes_nothing(self, paper_context, paper_query):
        rig = build_rig(paper_context, paper_query).rig
        before = {node: set(rig.candidates(node)) for node in rig.query.nodes()}
        assert rig.prune_unmatched_candidates() == 0
        assert {node: rig.candidates(node) for node in rig.query.nodes()} == before


class TestBuildRIG:
    def test_refined_rig_matches_paper(self, paper_context, paper_query):
        """The refined RIG of Fig. 2(e): FB candidate sets, including (b2, c1)."""
        report = build_rig(paper_context, paper_query)
        rig = report.rig
        assert set(rig.candidates(0)) == {A1, A2}
        assert set(rig.candidates(1)) == {B0, B2}
        assert set(rig.candidates(2)) == {C0, C1, C2}
        # The redundant edge (b2, c1) survives double simulation (paper §4.5).
        assert C1 in rig.forward_index(1, 2)[B2]
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
        prefilter_only = build_rig(paper_context, paper_query, GMVariant.GM_F).rig
        match_rig = build_match_rig(paper_context, paper_query).rig
        assert refined.num_rig_nodes() <= prefilter_only.num_rig_nodes() <= match_rig.num_rig_nodes()

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
            simulation = SimulationOptions(child_check=method)
            rig = build_rig(paper_context, paper_query, simulation=simulation).rig
            assert set(rig.edge_candidates(0, 1)) == set(reference.edge_candidates(0, 1))
            assert set(rig.edge_candidates(1, 2)) == set(reference.edge_candidates(1, 2))

    def test_match_rig_keeps_a_candidate_without_a_partner(self):
        # ``G^m_Q``'s candidate sets are the match sets: A at 1 has no
        # partner and stays.
        context = MatchContext(DataGraph("AAB", [(0, 2)]))
        query = PatternQuery(["A", "B"], [(0, 1, "child")])
        rig = build_match_rig(context, query).rig
        assert set(rig.candidates(0)) == {0, 1}
        assert set(rig.edge_candidates(0, 1)) == {(0, 2)}


class TestSharedAdjacency:
    """The ownership rule of ``RuntimeIndexGraph``: equal answers share one
    read-only set object, and only ``cos(q)`` is ever mutated."""

    @pytest.fixture()
    def rig(self):
        # Two cycles joined by 2 -> 3: every A reaches every B (and itself).
        graph = DataGraph("AAABBB", [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
        query = PatternQuery(["A", "B"], [(0, 1, "descendant")])
        return build_rig(MatchContext(graph), query).rig

    def test_one_component_one_object_in_both_directions(self, rig):
        forward, backward = rig.forward_index(0, 1), rig.backward_index(0, 1)
        assert set(forward) == {0, 1, 2} and set(backward) == {3, 4, 5}
        assert forward[0] is forward[1] is forward[2] and forward[0] == {3, 4, 5}
        assert backward[3] is backward[4] is backward[5] and backward[3] == {0, 1, 2}
        assert rig.num_rig_edges() == 9 and rig.num_physical_edges() == 6

    def test_logical_and_physical_edges_reach_report_and_explain(self):
        graph = DataGraph("AAABBB", [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
        matcher = GraphMatcher(graph)
        query = PatternQuery(["A", "B"], [(0, 1, "descendant")])
        extra = matcher.match(query).extra
        assert (extra["rig_edges"], extra["rig_physical_edges"]) == (9, 6)
        artifacts = matcher.explain(query).artifacts
        assert (artifacts["rig_edges"], artifacts["rig_physical_edges"]) == (9, 6)

    def test_equal_masks_share_across_components(self):
        # 0 and 1 are separate acyclic components that reach the same heads.
        graph = DataGraph("AABB", [(0, 2), (1, 2), (2, 3)])
        query = PatternQuery(["A", "B"], [(0, 1, "descendant")])
        forward = build_rig(MatchContext(graph), query).rig.forward_index(0, 1)
        assert forward[0] is forward[1] and forward[0] == {2, 3}

    def test_adjacency_is_immutable(self, rig):
        assert type(rig.forward_index(0, 1)[0]) is frozenset
        assert type(rig.candidates(0)) is set
        assert type(rig.candidates(1) & rig.forward_index(0, 1)[0]) is set

    @pytest.mark.parametrize(
        "variant, child_check",
        [(v, c) for v in GMVariant for c in ChildCheckMethod] + [(None, None)],
        ids=lambda value: "match" if value is None else value.value,
    )
    def test_every_build_path_stores_builtin_sets(
        self, paper_context, paper_query, variant, child_check
    ):
        # MJoin intersects adjacency lists and pruning calls ``isdisjoint``
        # on them, whichever way BuildRIG filled the RIG.
        if variant is None:
            rig = build_match_rig(paper_context, paper_query).rig
        else:
            simulation = SimulationOptions(child_check=child_check)
            rig = build_rig(paper_context, paper_query, variant, simulation).rig
        assert not rig.is_empty()
        for node in rig.query.nodes():
            assert type(rig.candidates(node)) is set
        for edge in rig.query.edges():
            endpoints = edge.endpoints()
            for index, partners in (
                (rig.forward_index(*endpoints), rig.candidates(edge.target)),
                (rig.backward_index(*endpoints), rig.candidates(edge.source)),
            ):
                assert index
                for adjacency in index.values():
                    assert type(adjacency) is frozenset
                    assert type(partners & adjacency) is set

    def test_pruning_never_mutates_installed_adjacency(self):
        graph = DataGraph("AABB", [(0, 2), (0, 3), (1, 2)])
        query = PatternQuery(["A", "B"], [(0, 1, "child")])
        rig = build_match_rig(MatchContext(graph), query).rig
        rig.set_candidates(0, [1])  # head 3's only tail is gone
        indexes = [rig.forward_index(0, 1), rig.backward_index(0, 1)]
        before = [{key: (id(value), set(value)) for key, value in index.items()} for index in indexes]
        assert before[1] == {2: (id(indexes[1][2]), {0, 1}), 3: (id(indexes[1][3]), {0})}
        assert rig.prune_unmatched_candidates() == 1
        assert set(rig.candidates(0)) == {1} and set(rig.candidates(1)) == {2}
        after = [{key: (id(value), set(value)) for key, value in index.items()} for index in indexes]
        assert after == before  # the installed dicts and sets are untouched ...
        # ... and the RIG holds restricted copies; a set that lost nothing is reused.
        assert rig.forward_index(0, 1) == {1: {2}} and rig.forward_index(0, 1)[1] is indexes[0][1]
        assert rig.backward_index(0, 1) == {2: {1}}
        assert rig.num_rig_edges() == 1

    def test_shared_layout_allocates_a_fraction_of_the_per_pair_layout(self):
        """Memory guard, no timing: on the sparse shape (uniform random,
        2.6 edges/node, 20 labels — ``perf``'s ``sparse`` generator) the RIGs
        of the D-queries retain < 25 % of what one private set per candidate
        (the ``add_edge_candidates`` layout) retains for the same pairs."""
        import tracemalloc

        from repro.graph.generators import random_labeled_graph
        from repro.query.generators import all_template_queries

        graph = random_labeled_graph(600, 1560, 20, seed=11)
        context = MatchContext(graph)
        queries = list(all_template_queries(graph, seed=3, kinds=("D",)).values())
        context.descendant_label_bits(0)  # per-context tables are not RIG memory

        def retained(build):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                kept = build()
                return tracemalloc.get_traced_memory()[0] - before, kept
            finally:
                tracemalloc.stop()

        shared_bytes, rigs = retained(lambda: [build_rig(context, query).rig for query in queries])
        logical = sum(rig.num_rig_edges() for rig in rigs)
        assert logical > 50_000  # the guard is about something

        def per_pair_layout():
            layout = []
            for rig in rigs:
                for edge in rig.query.edges():
                    for index in (rig.forward_index(*edge.endpoints()), rig.backward_index(*edge.endpoints())):
                        layout.append({key: set(partners) for key, partners in index.items()})
            return layout

        private_bytes, _ = retained(per_pair_layout)
        assert shared_bytes < 0.25 * private_bytes, (shared_bytes, private_bytes)
        assert sum(rig.num_physical_edges() for rig in rigs) < 0.25 * 2 * logical


class TestRIGStatistics:
    def test_statistics(self, paper_context, paper_graph, paper_query):
        rig = build_rig(paper_context, paper_query).rig
        stats = rig_statistics(rig, paper_graph)
        assert stats.rig_nodes == rig.num_rig_nodes()
        assert stats.rig_edges == rig.num_rig_edges()
        assert 0 < stats.rig_physical_edges == rig.num_physical_edges() <= 2 * stats.rig_edges
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
