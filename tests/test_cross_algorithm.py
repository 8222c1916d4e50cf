"""Integration tests: every matcher must compute the same query answers.

The brute-force enumerator is the oracle.  Random graphs and random queries
(hybrid, child-only and descendant-only) are evaluated with GM (all variants
and orderings), JM, TM and — for child-only queries — the four engines, and
all answers are compared.  This is the library's end-to-end correctness net.

The second half is the evaluator contract suite: every name a
:class:`QuerySession` can resolve is an
:class:`~repro.matching.stream.Evaluator`, so one set of parametrised cases
checks ``match`` / ``iter_matches`` / ``count`` / capped runs / abandoned
streams / unsupported options for all of them.
"""

import pytest

from fixtures_paper import build_paper_graph, build_paper_query
from repro.baselines.bruteforce import bruteforce_homomorphisms, bruteforce_isomorphisms
from repro.baselines.iso import ISOMatcher
from repro.baselines.jm import JMMatcher
from repro.baselines.tm import TMMatcher
from repro.engines.binary_join import BinaryJoinEngine
from repro.engines.relational import RelationalEngine
from repro.engines.treedecomp import TreeDecompEngine
from repro.engines.wcoj import WCOJEngine
from repro.exceptions import EngineError
from repro.graph.digraph import DataGraph
from repro.graph.generators import layered_graph, random_dag, random_labeled_graph
from repro.matching.gm import GMVariant, GraphMatcher
from repro.matching.ordering import OrderingMethod
from repro.matching.result import Budget, MatchStatus
from repro.matching.stream import Evaluator
from repro.query.generators import random_pattern_query, to_child_only, to_descendant_only
from repro.query.pattern import EdgeType, PatternQuery
from repro.reachability.base import BFSReachability
from repro.reachability.bfl import BloomFilterLabeling
from repro.reachability.transitive_closure import TransitiveClosureIndex
from repro.session import QuerySession
from repro.simulation.context import MatchContext

UNLIMITED = Budget(max_matches=None, time_limit_seconds=None, max_intermediate_results=None)


def _graphs():
    return [
        random_labeled_graph(40, 140, 3, seed=1, name="rand40"),
        random_labeled_graph(50, 120, 4, seed=2, name="rand50"),
        random_dag(45, 130, 3, seed=3, name="dag45"),
        layered_graph(4, 12, 2, 3, seed=4, name="layer48"),
    ]


GRAPHS = _graphs()


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.name)
@pytest.mark.parametrize("kind", ["H", "C", "D"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gm_jm_tm_match_bruteforce(graph, kind, seed):
    context = MatchContext(graph)
    query = random_pattern_query(graph, 4, seed=seed * 7 + 1)
    if kind == "C":
        query = to_child_only(query, name=query.name)
    elif kind == "D":
        query = to_descendant_only(query, name=query.name)

    expected = frozenset(bruteforce_homomorphisms(graph, query))
    gm = GraphMatcher(graph, context=context, budget=UNLIMITED).match(query)
    jm = JMMatcher(graph, context=context, budget=UNLIMITED).match(query)
    tm = TMMatcher(graph, context=context, budget=UNLIMITED).match(query)
    assert gm.occurrence_set() == expected
    assert jm.occurrence_set() == expected
    assert tm.occurrence_set() == expected


@pytest.mark.parametrize("graph", GRAPHS[:2], ids=lambda g: g.name)
@pytest.mark.parametrize("variant", list(GMVariant))
def test_gm_variants_match_bruteforce(graph, variant):
    context = MatchContext(graph)
    query = random_pattern_query(graph, 5, seed=11)
    expected = frozenset(bruteforce_homomorphisms(graph, query))
    matcher = GraphMatcher(graph, context=context, variant=variant, budget=UNLIMITED)
    assert matcher.match(query).occurrence_set() == expected


@pytest.mark.parametrize("graph", GRAPHS[:2], ids=lambda g: g.name)
@pytest.mark.parametrize("ordering", list(OrderingMethod))
def test_gm_orderings_match_bruteforce(graph, ordering):
    context = MatchContext(graph)
    query = random_pattern_query(graph, 5, seed=13)
    expected = frozenset(bruteforce_homomorphisms(graph, query))
    matcher = GraphMatcher(graph, context=context, ordering=ordering, budget=UNLIMITED)
    assert matcher.match(query).occurrence_set() == expected


@pytest.mark.parametrize("graph", GRAPHS[:2], ids=lambda g: g.name)
@pytest.mark.parametrize("seed", [4, 5])
def test_engines_match_bruteforce_on_child_queries(graph, seed):
    query = to_child_only(random_pattern_query(graph, 4, seed=seed))
    expected = frozenset(bruteforce_homomorphisms(graph, query))
    for engine_class in (BinaryJoinEngine, RelationalEngine, WCOJEngine, TreeDecompEngine):
        result = engine_class(graph, budget=UNLIMITED).match(query)
        assert result.occurrence_set() == expected, engine_class.__name__


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.name)
@pytest.mark.parametrize(
    "index_class", [BloomFilterLabeling, TransitiveClosureIndex, BFSReachability],
    ids=lambda cls: cls.__name__,
)
def test_per_pair_matchers_agree_with_bruteforce_on_any_injected_index(graph, index_class):
    """ISO, TM and JM ask per-pair questions of ``context.reachability``:
    whichever index is injected there, the answers are brute force's."""
    query = random_pattern_query(graph, 4, seed=21, descendant_probability=1.0)
    context = MatchContext(graph, reachability=index_class(graph))
    homomorphisms = frozenset(bruteforce_homomorphisms(graph, query))
    for matcher_class in (TMMatcher, JMMatcher):
        report = matcher_class(graph, context=context, budget=UNLIMITED).match(query)
        assert report.occurrence_set() == homomorphisms, matcher_class.name
    report = ISOMatcher(graph, context=context, budget=UNLIMITED).match(query)
    assert report.occurrence_set() == frozenset(bruteforce_isomorphisms(graph, query))


def test_larger_hybrid_query_consistency():
    """A 7-node hybrid query on a denser graph: GM vs JM vs TM (no oracle)."""
    graph = random_labeled_graph(80, 400, 4, seed=9, name="dense80")
    context = MatchContext(graph)
    query = random_pattern_query(graph, 7, seed=17)
    gm = GraphMatcher(graph, context=context, budget=UNLIMITED).match(query)
    jm = JMMatcher(graph, context=context, budget=UNLIMITED).match(query)
    tm = TMMatcher(graph, context=context, budget=UNLIMITED).match(query)
    assert gm.occurrence_set() == jm.occurrence_set() == tm.occurrence_set()


# ---------------------------------------------------------------------- #
# the evaluator contract, over every evaluator name
# ---------------------------------------------------------------------- #

EVALUATOR_NAMES = QuerySession.available_matchers()

#: A hybrid query: every evaluator, the comparator engines included, answers
#: its child and descendant edges exactly as brute force does.
CONTRACT_QUERY = random_pattern_query(GRAPHS[0], 4, seed=4, name="contract")


def _oracle(name, graph, query):
    enumerate_all = bruteforce_isomorphisms if name == "ISO" else bruteforce_homomorphisms
    return set(enumerate_all(graph, query))


def _vee():
    """x -> z <- y with two A-labelled sources: 4 homomorphisms, 2 injective."""
    graph = DataGraph(["A", "A", "B"], [(0, 2), (1, 2)], name="vee")
    query = PatternQuery(
        ["A", "A", "B"], [(0, 2, EdgeType.CHILD), (1, 2, EdgeType.CHILD)], name="vee-q"
    )
    return graph, query


@pytest.fixture(scope="module")
def contract_session():
    return QuerySession(GRAPHS[0], budget=UNLIMITED)


@pytest.mark.parametrize("name", EVALUATOR_NAMES)
class TestEvaluatorContract:
    def test_is_an_evaluator_with_the_inherited_drivers(self, contract_session, name):
        evaluator = contract_session.matcher(name)
        assert isinstance(evaluator, Evaluator)
        for method in ("match_stream", "count", "explain"):
            assert getattr(type(evaluator), method) is getattr(Evaluator, method), method
        assert (type(evaluator).match is Evaluator.match) == (name != "JM")

    def test_match_equals_iter_matches_equals_bruteforce(self, contract_session, name):
        evaluator = contract_session.matcher(name)
        expected = _oracle(name, GRAPHS[0], CONTRACT_QUERY)
        assert expected  # a vacuous agreement would prove nothing
        report = evaluator.match(CONTRACT_QUERY)
        streamed = list(evaluator.iter_matches(CONTRACT_QUERY))
        assert report.status is MatchStatus.OK
        assert report.algorithm == evaluator.name
        assert report.occurrence_set() == set(streamed) == expected
        assert report.num_matches == len(streamed) == len(expected)

    def test_count_equals_match(self, contract_session, name):
        evaluator = contract_session.matcher(name)
        assert evaluator.count(CONTRACT_QUERY) == evaluator.match(CONTRACT_QUERY).num_matches
        assert contract_session.count(CONTRACT_QUERY, engine=name) == evaluator.count(
            CONTRACT_QUERY
        )

    @pytest.mark.parametrize("cap", [1, 3])
    def test_capped_run_is_a_prefix_of_the_uncapped_enumeration(
        self, contract_session, name, cap
    ):
        evaluator = contract_session.matcher(name)
        full = list(evaluator.iter_matches(CONTRACT_QUERY))
        assert len(full) > cap
        budget = Budget(max_matches=cap, time_limit_seconds=None)
        report = evaluator.match_stream(CONTRACT_QUERY, budget=budget).report()
        assert report.occurrences == full[:cap]
        assert report.status is MatchStatus.MATCH_LIMIT
        assert evaluator.count(CONTRACT_QUERY, budget=budget) == cap

    def test_closing_a_stream_early_finalises_cancelled(self, contract_session, name):
        stream = contract_session.stream(CONTRACT_QUERY, engine=name)
        yielded = [next(stream), next(stream)]
        stream.close()
        report = stream.report(drain=False)
        assert report.status is MatchStatus.CANCELLED
        assert report.num_matches == len(yielded) == 2
        assert report.occurrences == yielded

    def test_explain_analyze_root_rows_equal_the_report(self, contract_session, name):
        evaluator = contract_session.matcher(name)
        plan = evaluator.explain(CONTRACT_QUERY, analyze=True)
        assert plan.root.actual["rows"] == evaluator.match(CONTRACT_QUERY).num_matches
        assert plan.execution["rows"] == plan.root.actual["rows"]

    def test_injective_is_honoured_or_refused_never_ignored(self, name):
        # An evaluator handed injective=True answers the 2 injective matches
        # or says it cannot — returning all 4 is the silent wrong answer.
        graph, query = _vee()
        session = QuerySession(graph)
        assert len(bruteforce_homomorphisms(graph, query)) == 4
        injective = {(0, 1, 2), (1, 0, 2)}
        calls = (
            lambda: session.query(query, engine=name, injective=True).occurrence_set(),
            lambda: set(session.stream(query, engine=name, injective=True)),
        )
        for call in calls:
            try:
                answer = call()
            except EngineError as exc:
                assert name in str(exc) and "injective" in str(exc)
                assert not name.startswith("GM") and name != "ISO"
            else:
                assert answer == injective

    def test_order_is_honoured_or_refused(self, contract_session, name):
        evaluator = contract_session.matcher(name)
        order = list(range(CONTRACT_QUERY.num_nodes))[::-1]
        if "order" in evaluator.options:
            report = evaluator.match(CONTRACT_QUERY, order=order)
            assert report.extra["search_order"] == order
            assert report.occurrence_set() == _oracle(name, GRAPHS[0], CONTRACT_QUERY)
        else:
            with pytest.raises(EngineError, match="order"):
                evaluator.match_stream(CONTRACT_QUERY, order=order)


# Occurrence order of TM / ISO ``match`` on the paper fixture, recorded from
# their eager bodies before those were replaced by the shared draining
# ``Evaluator.match``.
PAPER_ORDER = [(1, 3, 7), (1, 3, 8), (2, 5, 7), (2, 5, 9)]


@pytest.mark.parametrize("matcher_class", [TMMatcher, ISOMatcher], ids=["TM", "ISO"])
def test_tm_iso_match_keep_their_eager_occurrence_order(matcher_class):
    matcher = matcher_class(build_paper_graph())
    query = build_paper_query()
    report = matcher.match(query)
    assert report.status is MatchStatus.OK
    assert report.occurrences == PAPER_ORDER
    assert report.num_matches == 4
    capped = matcher.match(query, budget=Budget(max_matches=2))
    assert capped.status is MatchStatus.MATCH_LIMIT
    assert capped.occurrences == PAPER_ORDER[:2]
    if matcher_class is TMMatcher:
        assert capped.extra["tree_solutions"] == 2
        assert capped.extra["non_tree_edges"] == 1


def test_failed_run_keeps_the_empty_report_shape():
    """A timed-out ``match`` reports no occurrences and no per-run statistics."""
    graph = GRAPHS[0]
    expired = Budget(max_matches=None, time_limit_seconds=-1.0)
    report = GraphMatcher(graph, budget=expired).match(CONTRACT_QUERY)
    assert report.status is MatchStatus.TIMEOUT
    assert report.occurrences == [] and report.num_matches == 0
    assert report.extra == {} and report.matching_seconds > 0


def test_store_snapshot_stream_forwards_injective_and_keep_occurrences():
    from repro.store import VersionedGraphStore

    graph, query = _vee()
    store = VersionedGraphStore(graph)
    try:
        with store.pin() as snapshot:
            assert set(snapshot.stream(query, injective=True)) == {(0, 1, 2), (1, 0, 2)}
            counting = snapshot.stream(query, keep_occurrences=False)
            assert counting.report().occurrences == []
            assert counting.num_yielded == 4
            with pytest.raises(EngineError, match="injective"):
                snapshot.stream(query, engine="JM", injective=True)
    finally:
        store.close()
