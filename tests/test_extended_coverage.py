"""Additional coverage: exceptions, RIG construction variants, ordering
properties, approximate simulation, engine details and the remaining
experiment drivers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.experiments import (
    fig09_child_queries,
    fig10_label_scaling,
    fig11_size_scaling,
    fig15_transitive_reduction,
    fig16_wcoj_engine,
    fig17_rm_human,
    fig18_reachability_engines,
    table5_engines,
)
from repro.exceptions import (
    BudgetExceeded,
    MemoryBudgetExceeded,
    ReproError,
    TimeoutExceeded,
)
from repro.graph.generators import random_labeled_graph
from repro.matching.mjoin import mjoin
from repro.matching.ordering import bj_order, jo_order, ri_order
from repro.matching.result import Budget
from repro.query.generators import random_pattern_query
from repro.rig.build import GMVariant, build_match_rig, build_rig
from repro.simulation.context import MatchContext
from repro.simulation.fbsim import SimulationOptions, fbsim

TINY_BUDGET = Budget(max_matches=200, time_limit_seconds=5.0, max_intermediate_results=50_000)


class TestExceptions:
    def test_hierarchy(self):
        assert issubclass(TimeoutExceeded, BudgetExceeded)
        assert issubclass(MemoryBudgetExceeded, BudgetExceeded)
        assert issubclass(BudgetExceeded, ReproError)

    def test_messages(self):
        assert "timeout" in str(TimeoutExceeded(3.0))
        assert TimeoutExceeded(3.0).limit_seconds == 3.0
        assert "intermediate" in str(MemoryBudgetExceeded(10))
        assert MemoryBudgetExceeded(10).limit_items == 10
        error = BudgetExceeded("reason", "detail")
        assert error.reason == "reason" and error.detail == "detail"


class TestRIGConstructionVariants:
    @pytest.mark.parametrize("variant", [*GMVariant, None], ids=lambda v: v.value if v else "match")
    def test_mjoin_answer_independent_of_node_selection(
        self, paper_context, paper_query, paper_answer, variant
    ):
        if variant is None:
            rig = build_match_rig(paper_context, paper_query).rig
        else:
            rig = build_rig(paper_context, paper_query, variant).rig
        occurrences, _, _ = mjoin(rig)
        assert frozenset(occurrences) == paper_answer


@st.composite
def graph_query_pair(draw):
    seed = draw(st.integers(min_value=0, max_value=5_000))
    num_nodes = draw(st.integers(min_value=3, max_value=6))
    rng = random.Random(seed)
    graph = random_labeled_graph(30, 90, 3, seed=seed)
    query = random_pattern_query(graph, num_nodes, seed=seed + 1, dense=rng.random() < 0.5)
    return graph, query


class TestOrderingProperties:
    @settings(max_examples=30, deadline=None)
    @given(data=graph_query_pair())
    def test_all_orderings_are_permutations(self, data):
        graph, query = data
        context = MatchContext(graph)
        rig = build_rig(context, query).rig
        for order in (jo_order(query, rig), ri_order(query), bj_order(rig.query, rig)):
            assert sorted(order) == list(rig.query.nodes()) or sorted(order) == list(query.nodes())

    @settings(max_examples=20, deadline=None)
    @given(data=graph_query_pair())
    def test_jo_connected_prefix(self, data):
        graph, query = data
        context = MatchContext(graph)
        rig = build_rig(context, query).rig
        order = jo_order(rig.query, rig)
        placed = set()
        for index, node in enumerate(order):
            if index:
                assert any(neighbor in placed for neighbor in rig.query.neighbors(node))
            placed.add(node)


class TestApproximateSimulation:
    @settings(max_examples=20, deadline=None)
    @given(data=graph_query_pair(), max_passes=st.integers(min_value=1, max_value=3))
    def test_truncated_fb_is_superset_of_exact_fb(self, data, max_passes):
        graph, query = data
        context = MatchContext(graph)
        exact = fbsim(context, query)
        approx = fbsim(context, query, options=SimulationOptions(max_passes=max_passes))
        for node in query.nodes():
            assert exact.candidates[node] <= approx.candidates[node]

    @pytest.mark.parametrize("max_passes", [1, 2])
    def test_truncated_simulation_still_answers_the_paper_query(
        self, paper_context, paper_query, paper_answer, max_passes
    ):
        # A pass budget can stop node selection short of its fixpoint (one
        # pass does here); BuildRIG then prunes the expanded RIG instead, and
        # the answer is the same either way.
        simulation = SimulationOptions(max_passes=max_passes)
        rig = build_rig(paper_context, paper_query, simulation=simulation).rig
        occurrences, _, _ = mjoin(rig)
        assert frozenset(occurrences) == paper_answer


class TestRemainingExperimentDrivers:
    """Smoke-run every driver not already covered, at a very small scale."""

    def test_fig09(self):
        report = fig09_child_queries(datasets=("ep",), scale=0.08, budget=TINY_BUDGET, per_class=1)
        assert {row[2] for row in report.rows} == {"GM", "TM", "JM", "ISO"}

    def test_fig10(self):
        report = fig10_label_scaling(label_counts=(5, 10), templates=("HQ2",), scale=0.08, budget=TINY_BUDGET)
        assert {row[0] for row in report.rows} == {5, 10}

    def test_fig11(self):
        report = fig11_size_scaling(fractions=(0.5, 1.0), templates=("HQ8",), scale=0.08, budget=TINY_BUDGET)
        sizes = sorted({row[0] for row in report.rows})
        assert len(sizes) == 2 and sizes[0] < sizes[1]

    def test_fig15(self):
        report = fig15_transitive_reduction(datasets=("em",), templates=("HQ3",), scale=0.08, budget=TINY_BUDGET)
        assert {row[2] for row in report.rows} == {"GM", "GM-NR", "TM"}

    def test_fig16(self):
        report = fig16_wcoj_engine(
            catalog_datasets=("em", "hu"), query_datasets=("am",), scale=0.08,
            budget=TINY_BUDGET, templates=("CQ17",),
        )
        parts = {row[0] for row in report.rows}
        assert parts == {"a", "b"}

    def test_table5(self):
        report = table5_engines(datasets=("em",), scale=0.08, budget=TINY_BUDGET, per_class=1)
        assert {row[2] for row in report.rows} == {"EH", "Neo4j", "GM"}

    def test_fig17(self):
        report = fig17_rm_human(node_counts=(8,), per_size=1, scale=0.08, budget=TINY_BUDGET)
        assert {row[0] for row in report.rows} == {"dense", "sparse"}

    def test_fig18(self):
        report = fig18_reachability_engines(
            label_counts=(5,), node_counts=(80,), scale=0.08, budget=TINY_BUDGET, templates=("HQ4",)
        )
        index_rows = [row for row in report.rows if row[0] == "a"]
        assert {row[4] for row in index_rows} == {"BFL", "TC", "CAT"}
        query_rows = [row for row in report.rows if row[0] == "b"]
        assert {row[4] for row in query_rows} == {"Neo4j", "GF", "GM"}
