"""Tests for MatchContext, node pre-filtering and the FB-simulation algorithms."""

from unittest import mock

import pytest

from repro.graph.digraph import DataGraph
from repro.matching.gm import GraphMatcher
from repro.query.pattern import EdgeType, PatternQuery
from repro.simulation.context import ChildCheckMethod, Cones, MatchContext
from repro.simulation.dual import dual_simulation
from repro.simulation.fbsim import (
    SimulationOptions,
    backward_simulation,
    fbsim,
    fbsim_basic,
    forward_simulation,
)
from repro.simulation.matchsets import match_sets, node_prefilter

from fixtures_paper import A0, A1, A2, B0, B1, B2, B3, C0, C1, C2


class TestMatchContext:
    def test_match_set_is_inverted_list(self, paper_context, paper_query):
        assert paper_context.match_set(paper_query, 0) == frozenset({A0, A1, A2})
        assert paper_context.match_set(paper_query, 1) == frozenset({B0, B1, B2, B3})

    def test_match_sets_are_copies(self, paper_context, paper_query):
        sets = paper_context.match_sets(paper_query)
        sets[0].clear()
        assert paper_context.match_set(paper_query, 0)  # unchanged

    def test_edge_match_child(self, paper_context, paper_query):
        edge = paper_query.edge(0, 1)
        assert paper_context.edge_match(edge, A1, B0)
        assert not paper_context.edge_match(edge, A1, B2)

    def test_edge_match_descendant(self, paper_context, paper_query):
        edge = paper_query.edge(1, 2)
        assert paper_context.edge_match(edge, B0, C0)
        assert not paper_context.edge_match(edge, B0, C2)
        assert not paper_context.edge_match(edge, B3, C0)

    def test_edge_match_descendant_self_pair_needs_cycle(self, paper_query):
        graph = DataGraph(["A", "B", "C"], [(0, 1), (1, 2), (2, 2)])
        context = MatchContext(graph)
        edge = paper_query.edge(1, 2)
        assert not context.edge_match(edge, 1, 1)  # not on a cycle
        assert context.edge_match(edge, 2, 2)  # self-loop cycle

    def test_forward_and_backward_reachable_sets(self, paper_context):
        forward = paper_context.forward_reachable_set({A1})
        assert B0 in forward and C0 in forward and C1 in forward
        backward = paper_context.backward_reachable_set({C2})
        assert A2 in backward and B1 in backward and B2 in backward
        assert A1 not in backward

    def test_heads_reached_child_vs_descendant(self, paper_context, paper_query):
        child_edge = paper_query.edge(0, 1)
        descendant_edge = paper_query.edge(1, 2)
        everyone = set(paper_context.graph.nodes())
        assert paper_context.heads_reached(child_edge, everyone, {A1}) == {B0, C0, C1}
        assert C0 in paper_context.heads_reached(descendant_edge, everyone, {B0})

    def test_tails_reaching_child(self, paper_context, paper_query):
        child_edge = paper_query.edge(0, 1)
        assert A1 in paper_context.tails_reaching(child_edge, set(paper_context.graph.nodes()), {B0})

    def test_label_summaries(self, paper_context):
        bit_c = paper_context.label_bit("C")
        assert paper_context.descendant_label_bits(B0) & bit_c
        assert not paper_context.descendant_label_bits(B3) & bit_c
        bit_a = paper_context.label_bit("A")
        assert paper_context.ancestor_label_bits(C0) & bit_a
        assert paper_context.label_bit("missing") == 0


class TestNodePrefilter:
    def test_prefilter_subset_of_match_sets(self, paper_context, paper_query):
        filtered = node_prefilter(paper_context, paper_query)
        full = match_sets(paper_context, paper_query)
        for node in paper_query.nodes():
            assert filtered[node] <= full[node]

    def test_prefilter_prunes_obvious_nodes(self, paper_context, paper_query):
        filtered = node_prefilter(paper_context, paper_query)
        # a0 has no C child, so it cannot match query node A (needs a direct C child).
        assert A0 not in filtered[0]
        # b3 has no descendant labelled C.
        assert B3 not in filtered[1]

    def test_prefilter_keeps_answer_nodes(self, paper_context, paper_query, paper_answer):
        filtered = node_prefilter(paper_context, paper_query)
        for occurrence in paper_answer:
            for query_node, data_node in enumerate(occurrence):
                assert data_node in filtered[query_node]

    def test_prefilter_on_isolated_query_node(self, paper_context):
        single = PatternQuery(["A"], [])
        filtered = node_prefilter(paper_context, single)
        assert filtered[0] == {A0, A1, A2}


class TestFBSimulationPaperExample:
    """The simulations must reproduce Table 1 of the paper."""

    def test_forward_simulation(self, paper_context, paper_query):
        forward = forward_simulation(paper_context, paper_query)
        assert forward[0] == {A1, A2}
        assert forward[1] == {B0, B1, B2}
        assert forward[2] == {C0, C1, C2}

    def test_backward_simulation(self, paper_context, paper_query):
        backward = backward_simulation(paper_context, paper_query)
        assert backward[0] == {A0, A1, A2}
        assert backward[1] == {B0, B2, B3}
        assert backward[2] == {C0, C1, C2}

    def test_double_simulation_basic(self, paper_context, paper_query):
        result = fbsim_basic(paper_context, paper_query)
        assert result.candidates[0] == {A1, A2}
        assert result.candidates[1] == {B0, B2}
        assert result.candidates[2] == {C0, C1, C2}
        assert result.algorithm == "FBSimBas"

    def test_double_simulation_dag(self, paper_context, paper_query):
        # The paper query is a dag: FBSim's loop runs with no back edges.
        result = fbsim(paper_context, paper_query)
        assert result.candidates == fbsim_basic(paper_context, paper_query).candidates
        assert result.candidates[1] == {B0, B2}
        assert result.algorithm == "FBSim"

    def test_sandwich_property(self, paper_context, paper_query, paper_answer):
        """os(q) ⊆ FB(q) ⊆ ms(q) for every query node."""
        result = fbsim(paper_context, paper_query)
        for node in paper_query.nodes():
            occurrence_set = {occ[node] for occ in paper_answer}
            assert occurrence_set <= result.candidates[node]
            assert result.candidates[node] <= set(paper_context.match_set(paper_query, node))

    def test_result_metadata(self, paper_context, paper_query):
        result = fbsim_basic(paper_context, paper_query)
        assert result.passes >= 1
        assert result.pruned >= 1
        assert not result.is_empty()
        assert result.total_candidates() == 2 + 2 + 3
        assert len(result.pruned_per_pass) == result.passes


class TestFBSimulationOptions:
    def test_initial_candidates_respected(self, paper_context, paper_query):
        initial = paper_context.match_sets(paper_query)
        initial[2] = {C0}
        result = fbsim_basic(paper_context, paper_query, initial=initial)
        assert result.candidates[2] <= {C0}

    def test_max_passes_gives_superset(self, paper_context, paper_query):
        exact = fbsim_basic(paper_context, paper_query)
        approx = fbsim_basic(
            paper_context, paper_query, options=SimulationOptions(max_passes=1)
        )
        for node in paper_query.nodes():
            assert exact.candidates[node] <= approx.candidates[node]
        assert approx.passes <= 1

    def test_child_check_methods_agree(self, paper_context, paper_query):
        reference = fbsim_basic(paper_context, paper_query).candidates
        for method in ChildCheckMethod:
            result = fbsim_basic(
                paper_context, paper_query, options=SimulationOptions(child_check=method)
            )
            assert result.candidates == reference, method

    def test_change_flags_do_not_change_result(self, paper_context, paper_query):
        with_flags = fbsim(paper_context, paper_query, options=SimulationOptions(use_change_flags=True))
        without_flags = fbsim(paper_context, paper_query, options=SimulationOptions(use_change_flags=False))
        assert with_flags.candidates == without_flags.candidates

    def test_fbsim_handles_cyclic_query(self, paper_context):
        cyclic = PatternQuery(
            ["A", "B", "C"],
            [(0, 1, "child"), (1, 2, "descendant"), (2, 0, "descendant")],
        )
        result = fbsim(paper_context, cyclic)
        # The paper graph is acyclic, so a cyclic query has an empty answer
        # and double simulation must detect it (empty candidate sets).
        assert result.is_empty()

    def test_empty_match_set_query(self, paper_context):
        query = PatternQuery(["Z", "A"], [(0, 1, "child")])
        result = fbsim_basic(paper_context, query)
        assert result.is_empty()


def _alternating_path(length: int) -> DataGraph:
    """``a0 -> b0 -> a1 -> b1 -> ...``: a cycle query ``A -> B -> A`` loses
    the path's ends a few nodes per pass, so the fixpoint takes many passes."""
    labels = ["A", "B"] * length
    return DataGraph(labels, [(node, node + 1) for node in range(2 * length - 1)])


#: ``A -> B -> A``: one dag edge and one back edge.
CYCLE = PatternQuery(["A", "B"], [(0, 1, "child"), (1, 0, "child")])


class TestFBSimulationAccounting:
    """The pass and prune counts the Fig. 12 ablations report."""

    @pytest.mark.parametrize("simulate", [fbsim, fbsim_basic])
    def test_a_cut_stops_at_exactly_max_passes(self, simulate):
        context = MatchContext(_alternating_path(10))
        assert simulate(context, CYCLE).passes > 3
        for cut in (1, 2, 3):
            result = simulate(context, CYCLE, options=SimulationOptions(max_passes=cut))
            assert result.passes == len(result.pruned_per_pass) == cut

    @pytest.mark.parametrize("simulate", [fbsim, fbsim_basic])
    def test_pruned_per_pass_sums_to_the_candidates_removed(self, simulate):
        context = MatchContext(_alternating_path(10))
        initial = sum(len(nodes) for nodes in context.match_sets(CYCLE).values())
        result = simulate(context, CYCLE)
        assert result.is_empty()  # a path holds no cycle
        assert sum(result.pruned_per_pass) == result.pruned == initial
        assert all(pruned > 0 for pruned in result.pruned_per_pass[:-1])
        assert result.pruned_per_pass[-1] == 0

    @pytest.mark.parametrize("simulate", [fbsim, fbsim_basic])
    def test_the_callers_cone_memo_is_the_one_used(self, simulate, paper_context, paper_query):
        cones = Cones()
        simulate(paper_context, paper_query, cones=cones)
        assert cones.computed > 0  # the descendant edge swept its cones here

    def test_checks_count_the_checks_run(self, paper_context, paper_query):
        # Three edges, two passes, six checks a pass without flags.  Pass 1
        # prunes A (forward A -> B) and B (backward A -> B); C never changes,
        # so DagMap's pass 2 skips the forward checks of B => C and A -> C.
        def checks(simulate, **options):
            return simulate(paper_context, paper_query, options=SimulationOptions(**options))

        assert [checks(fbsim_basic).checks, checks(fbsim, use_change_flags=False).checks] == [12, 12]
        dag_map = checks(fbsim)
        assert (dag_map.passes, dag_map.pruned_per_pass, dag_map.checks) == (2, [3, 0], 10)
        # GM pre-filters first, which leaves its one pass nothing to prune.
        artifacts = GraphMatcher(paper_context.graph).explain(paper_query).artifacts
        assert (artifacts["simulation_passes"], artifacts["simulation_checks"]) == (1, 6)

    @pytest.mark.parametrize("method", list(ChildCheckMethod))
    @pytest.mark.parametrize("simulate", [fbsim, fbsim_basic])
    def test_each_child_check_method_takes_its_own_path(self, simulate, method, paper_context):
        child_only = PatternQuery(["A", "B", "C"], [(0, 1, "child"), (0, 2, "child")])
        with mock.patch.object(
            paper_context, "tails_reaching", wraps=paper_context.tails_reaching
        ) as tails_reaching, mock.patch.object(
            paper_context, "heads_reached", wraps=paper_context.heads_reached
        ) as heads_reached, mock.patch.object(
            DataGraph, "has_edge_binary_search", autospec=True,
            side_effect=DataGraph.has_edge_binary_search,
        ) as binary_search:
            simulate(paper_context, child_only, options=SimulationOptions(child_check=method))
        calls = {
            "tails_reaching": tails_reaching.called,
            "heads_reached": heads_reached.called,
            "has_edge_binary_search": binary_search.called,
        }
        expected = {
            ChildCheckMethod.BIT_BAT: {"tails_reaching", "heads_reached"},
            ChildCheckMethod.BIN_SEARCH: {"has_edge_binary_search"},
            ChildCheckMethod.BIT_ITER: set(),
        }[method]
        assert {name for name, called in calls.items() if called} == expected


class TestDualSimulation:
    def test_dual_equals_double_on_child_only_query(self, paper_context):
        query = PatternQuery(["A", "B"], [(0, 1, "child")])
        dual = dual_simulation(paper_context, query)
        double = fbsim_basic(paper_context, query)
        assert dual.candidates == double.candidates
        assert dual.algorithm == "DualSim"

    def test_dual_overprunes_descendant_edges(self, paper_context, paper_query):
        """Dual simulation treats (B,C) as a direct edge and may prune valid nodes."""
        dual = dual_simulation(paper_context, paper_query)
        double = fbsim_basic(paper_context, paper_query)
        for node in paper_query.nodes():
            assert dual.candidates[node] <= double.candidates[node]
