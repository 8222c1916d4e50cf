"""Set-at-a-time reachability on the SCC condensation vs per-node references.

``MatchContext.expand_reachability`` / ``tails_reaching`` / ``heads_reached``
and the condensation-based label summaries replace one BFS per candidate;
every test here rebuilds their answer the slow, obviously-right way —
``forward_reachable_set((tail,))``, :class:`BFSReachability`, per-pair
``edge_match``, brute-force homomorphisms, the old label fixpoint — on
graphs with cycles, self-loops, isolated nodes and overlapping candidate
sets, for every reachability index kind and across graph versions.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import bruteforce_homomorphisms
from repro.dynamic import GraphDelta
from repro.graph.digraph import DataGraph
from repro.matching.gm import GraphMatcher
from repro.query.pattern import PatternQuery
from repro.reachability.base import BFSReachability
from repro.reachability.factory import REACHABILITY_KINDS
from repro.rig.build import build_rig
from repro.session import QuerySession
from repro.simulation.context import MatchContext

from test_simulation_properties import graph_and_query

KINDS = tuple(REACHABILITY_KINDS)


@st.composite
def digraph_with_candidates(draw):
    """A digraph (self-loops and isolated nodes allowed) plus a tail set and
    a head set drawn independently, so they usually overlap."""
    num_nodes = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    edges = draw(st.sets(st.tuples(node, node), max_size=3 * num_nodes))
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=num_nodes, max_size=num_nodes))
    graph = DataGraph(labels, sorted(edges), name="expansion")
    return graph, draw(st.sets(node)), draw(st.sets(node))


def reference_expansion(context, tails, heads):
    """``tail -> heads`` by one whole-graph BFS per tail."""
    expansion = {}
    for tail in tails:
        matched = heads & context.forward_reachable_set((tail,))
        if matched:
            expansion[tail] = matched
    return expansion


def assert_matches_reference(context, tails, heads):
    expected = reference_expansion(context, tails, heads)
    oracle = BFSReachability(context.graph)
    for tail in tails:
        assert expected.get(tail, set()) == {
            head for head in heads if oracle.reaches_strict(tail, head)
        }
    expansion = context.expand_reachability(tails, heads)
    assert all(len(matched) == len(set(matched)) for matched in expansion.values())
    assert {tail: set(matched) for tail, matched in expansion.items()} == expected
    assert context.tails_reaching(tails, heads) == set(expected)
    assert context.heads_reached(heads, tails) == set().union(*expected.values())


def old_label_fixpoint(context):
    """The label summaries as the repeat-until-no-change loops computed them."""
    graph = context.graph
    descendant = [0] * graph.num_nodes
    ancestor = [0] * graph.num_nodes
    changed = True
    while changed:
        changed = False
        for node in graph.nodes():
            down, up = descendant[node], ancestor[node]
            for child in graph.successors(node):
                down |= descendant[child] | context.label_bit(graph.label(child))
            for parent in graph.predecessors(node):
                up |= ancestor[parent] | context.label_bit(graph.label(parent))
            if (down, up) != (descendant[node], ancestor[node]):
                descendant[node], ancestor[node] = down, up
                changed = True
    return descendant, ancestor


# ---------------------------------------------------------------------- #
# (1) expansion and both semijoins, every index kind
# ---------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(data=digraph_with_candidates())
def test_expansion_and_semijoins_equal_per_tail_bfs(data):
    graph, tails, heads = data
    for kind in KINDS:
        assert_matches_reference(MatchContext(graph, reachability_kind=kind), tails, heads)


@pytest.mark.parametrize("kind", KINDS)
def test_self_pair_needs_a_cycle(kind):
    # 0 has a self-loop (a cyclic singleton), 1 <-> 2 is a cycle, 3 -> 4 is not.
    graph = DataGraph("AAAAA", [(0, 0), (1, 2), (2, 1), (3, 4)])
    context = MatchContext(graph, reachability_kind=kind)
    everyone = set(graph.nodes())
    expansion = context.expand_reachability(everyone, everyone)
    assert {tail: set(matched) for tail, matched in expansion.items()} == {
        0: {0}, 1: {1, 2}, 2: {1, 2}, 3: {4},
    }
    assert context.tails_reaching(everyone, everyone) == {0, 1, 2, 3}
    assert context.heads_reached(everyone, everyone) == {0, 1, 2, 4}


def test_index_built_for_another_graph_is_not_trusted():
    graph = DataGraph("AAA", [(0, 1), (1, 2)])
    other = DataGraph("AAA", [(2, 1), (1, 0)])
    context = MatchContext(graph, reachability=MatchContext(other).reachability)
    assert context.expand_reachability({0, 2}, {0, 2}) == {0: [2]}


# ---------------------------------------------------------------------- #
# (2) across graph versions: patched and rebuilt indexes
# ---------------------------------------------------------------------- #


def test_patched_condensation_ids_are_not_topological():
    """After a BFL patch new components sit at the end of the id range even
    when they are ancestors, so the sweep cannot rely on id order."""
    graph = DataGraph("ABCD", [(0, 1), (1, 2)])  # 3 is isolated
    session = QuerySession(graph)
    session.query(PatternQuery(["A", "C"], [(0, 1, "descendant")]))
    delta = GraphDelta.for_graph(graph)
    top = delta.add_node("A")
    bottom = delta.add_node("D")
    delta.add_edge(top, 0).add_edge(2, 3).add_edge(3, bottom)
    report = session.apply(delta)
    assert "reachability" in report.patched
    context = session.context
    dag = context.reachability.condensation().dag
    ids_ascend = [child > parent for parent, child in dag.edges()]
    assert any(ids_ascend) and not all(ids_ascend)
    everyone = set(session.graph.nodes())
    assert_matches_reference(context, everyone, everyone)
    assert set(context.expand_reachability({top}, everyone)[top]) == {0, 1, 2, 3, bottom}
    descendant, ancestor = old_label_fixpoint(context)
    for node in everyone:
        assert context.descendant_label_bits(node) == descendant[node]
        assert context.ancestor_label_bits(node) == ancestor[node]


def test_scc_merging_insert_falls_back_to_a_rebuild():
    graph = DataGraph("ABC", [(0, 1), (1, 2)])
    session = QuerySession(graph)
    query = PatternQuery(["C", "A"], [(0, 1, "descendant")])
    assert session.query(query).num_matches == 0
    report = session.apply(GraphDelta.for_graph(graph).add_edge(2, 0))
    assert "reachability" in report.invalidated
    assert session.query(query).occurrence_set() == {(2, 0)}
    everyone = set(session.graph.nodes())
    assert_matches_reference(session.context, everyone, everyone)


def test_insert_only_deltas_through_a_session():
    outcomes = Counter()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        data=graph_and_query(),
        deltas=st.lists(
            st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), min_size=1, max_size=3),
            min_size=1,
            max_size=3,
        ),
        tail_seed=st.integers(0, 99),
        materialize=st.booleans(),
    )
    def run(data, deltas, tail_seed, materialize):
        graph, query = data
        for kind in KINDS:
            session = QuerySession(graph, reachability_kind=kind)
            for inserts in [()] + deltas:
                if inserts:
                    delta = GraphDelta.for_graph(session.graph)
                    new_node = delta.add_node(graph.label(0))
                    for source, target in inserts:
                        # ``target == new_node`` hangs the fresh node below the
                        # graph; the other edges may close cycles (SCC merges).
                        delta.add_edge(source % new_node, target % (new_node + 1))
                    # ``materialize=False`` leaves an overlay graph behind.
                    report = session.apply(delta, materialize=materialize)
                    outcomes.update(
                        (kind, outcome)
                        for outcome in ("patched", "invalidated")
                        if "reachability" in getattr(report, outcome)
                    )
                current = session.graph
                expected = set(bruteforce_homomorphisms(current, query))
                assert session.query(query, engine="GM").occurrence_set() == expected
                tails = {node for node in current.nodes() if (node + tail_seed) % 3}
                heads = {node for node in current.nodes() if (node * 7 + tail_seed) % 4}
                assert_matches_reference(session.context, tails, heads)

    run()
    assert outcomes["bfl", "patched"] and outcomes["bfl", "invalidated"]
    assert outcomes["tc", "patched"] and outcomes["bfs", "patched"]
    assert outcomes["interval", "invalidated"]


# ---------------------------------------------------------------------- #
# (3) the whole RIG against a per-pair construction
# ---------------------------------------------------------------------- #


def per_pair_rig(context, query):
    """Exact double simulation, then every edge's pairs, by ``edge_match``."""
    candidates = context.match_sets(query)
    changed = True
    while changed:
        changed = False
        for edge in query.edges():
            tails, heads = candidates[edge.source], candidates[edge.target]
            live_tails = {u for u in tails if any(context.edge_match(edge, u, v) for v in heads)}
            live_heads = {v for v in heads if any(context.edge_match(edge, u, v) for u in live_tails)}
            if (live_tails, live_heads) != (tails, heads):
                candidates[edge.source], candidates[edge.target] = live_tails, live_heads
                changed = True
    pairs = {
        edge.endpoints(): {
            (u, v)
            for u in candidates[edge.source]
            for v in candidates[edge.target]
            if context.edge_match(edge, u, v)
        }
        for edge in query.edges()
    }
    return candidates, pairs


@settings(max_examples=40, deadline=None)
@given(data=graph_and_query(), kind=st.sampled_from(KINDS))
def test_built_rig_equals_per_pair_rig(data, kind):
    graph, query = data
    context = MatchContext(graph, reachability_kind=kind)
    report = build_rig(context, query)
    candidates, pairs = per_pair_rig(context, report.query)
    if any(not nodes for nodes in candidates.values()):
        assert report.rig.is_empty()
        return
    for node in report.query.nodes():
        assert set(report.rig.candidates(node)) == candidates[node]
    for endpoints, expected in pairs.items():
        built = list(report.rig.edge_candidates(*endpoints))
        assert len(built) == len(expected) and set(built) == expected


# ---------------------------------------------------------------------- #
# (4) no whole-graph BFS is left in GM
# ---------------------------------------------------------------------- #


def test_gm_makes_no_whole_graph_bfs(monkeypatch):
    # 40 A-nodes above one hub above 40 B-nodes: both candidate sets are over
    # the 32 that used to switch expansion to one BFS per tail.
    width = 40
    hub = 2 * width
    labels = ["A"] * width + ["B"] * width + ["H"]
    edges = [(a, hub) for a in range(width)] + [(hub, width + b) for b in range(width)]
    graph = DataGraph(labels, edges)
    calls = Counter()
    for name in ("forward_reachable_set", "backward_reachable_set"):
        original = getattr(MatchContext, name)

        def counted(self, nodes, name=name, original=original):
            calls[name] += 1
            return original(self, nodes)

        monkeypatch.setattr(MatchContext, name, counted)
    report = GraphMatcher(graph).match(PatternQuery(["A", "B"], [(0, 1, "descendant")]))
    assert report.num_matches == width * width
    assert not calls
    MatchContext(graph).forward_reachable_set((0,))
    assert calls == {"forward_reachable_set": 1}  # the counter does count


# ---------------------------------------------------------------------- #
# (5) label summaries
# ---------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(data=digraph_with_candidates(), kind=st.sampled_from(KINDS))
def test_label_summaries_equal_the_old_fixpoint(data, kind):
    graph = data[0]
    context = MatchContext(graph, reachability_kind=kind)
    descendant, ancestor = old_label_fixpoint(context)
    for node in graph.nodes():
        assert context.descendant_label_bits(node) == descendant[node]
        assert context.ancestor_label_bits(node) == ancestor[node]


# ---------------------------------------------------------------------- #
# (6) BuildRIG's phase timings reach the report of the run that paid them
# ---------------------------------------------------------------------- #


def test_phase_seconds_on_a_rig_cache_miss_only():
    graph = DataGraph("ABAB", [(0, 1), (1, 2), (2, 3)])
    query = PatternQuery(["A", "B"], [(0, 1, "descendant")])
    session = QuerySession(graph)
    plan = session.explain(query)
    assert plan.artifacts["rig_cached"] is False
    assert plan.artifacts["rig_expand_seconds"] >= 0.0
    session = QuerySession(graph)
    miss, hit = session.query(query), session.query(query)
    assert miss.extra["rig_cached"] is False and hit.extra["rig_cached"] is True
    assert miss.extra["rig_select_seconds"] >= 0.0 and miss.extra["rig_expand_seconds"] >= 0.0
    assert "rig_select_seconds" not in hit.extra and "rig_expand_seconds" not in hit.extra
    assert "rig_expand_seconds" not in session.explain(query).artifacts
