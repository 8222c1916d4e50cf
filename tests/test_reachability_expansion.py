"""Set-at-a-time reachability on the SCC condensation vs per-node references.

``MatchContext.expand_reachability`` / ``tails_reaching`` / ``heads_reached``
and the condensation-based label summaries replace one BFS per candidate;
every test here rebuilds their answer the slow, obviously-right way —
``forward_reachable_set((tail,))``, :class:`BFSReachability`, per-pair
``edge_match``, brute-force homomorphisms, the old label fixpoint — on
graphs with cycles, self-loops, isolated nodes and overlapping candidate
sets, and across folded graph versions.  One
build's memo of condensation cones (``Cones``) is driven through shrinking
candidate sets the way fbsim passes drive it, and the post-expand prune
BuildRIG skips after an exact simulation is checked to be a no-op there.
"""

import sys
import threading
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulation.context as context_module
from repro.baselines.bruteforce import bruteforce_homomorphisms
from repro.dynamic import GraphDelta
from repro.graph.digraph import DataGraph
from repro.graph.generators import random_labeled_graph
from repro.matching.gm import GraphMatcher
from repro.query.generators import all_template_queries, random_pattern_query
from repro.query.pattern import PatternQuery
from repro.reachability.base import BFSReachability
from repro.rig.build import GMVariant, build_rig
from repro.rig.graph import RuntimeIndexGraph
from repro.session import QuerySession
from repro.store import VersionedGraphStore
from repro.simulation.context import ChildCheckMethod, Cones, MatchContext
from repro.simulation.fbsim import SimulationOptions
from repro.simulation.matchsets import node_prefilter

from test_simulation_properties import graph_and_query

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


def transposed(index):
    """``{b: {a, ...}}`` from ``{a: {b, ...}}``, one pair at a time."""
    result = {}
    for first, seconds in index.items():
        for second in seconds:
            result.setdefault(second, set()).add(first)
    return result


def assert_matches_reference(context, tails, heads):
    expected = reference_expansion(context, tails, heads)
    oracle = BFSReachability(context.graph)
    for tail in tails:
        assert expected.get(tail, set()) == {
            head for head in heads if oracle.reaches_strict(tail, head)
        }
    forward, backward = context.expand_reachability(tails, heads)
    assert forward == expected
    assert backward == transposed(expected)
    assert {type(matched) for index in (forward, backward) for matched in index.values()} <= {
        frozenset
    }
    # One object per distinct answer, in each direction.
    for index in (forward, backward):
        assert len({id(matched) for matched in index.values()}) == len(set(index.values()))
    assert context.tails_reaching(tails, heads) == set(expected)
    assert context.heads_reached(heads, tails) == set(backward)


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
# (1) expansion and both semijoins
# ---------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(data=digraph_with_candidates())
def test_expansion_and_semijoins_equal_per_tail_bfs(data):
    graph, tails, heads = data
    assert_matches_reference(MatchContext(graph), tails, heads)


def test_self_pair_needs_a_cycle():
    # 0 has a self-loop (a cyclic singleton), 1 <-> 2 is a cycle, 3 -> 4 is not.
    graph = DataGraph("AAAAA", [(0, 0), (1, 2), (2, 1), (3, 4)])
    context = MatchContext(graph)
    everyone = set(graph.nodes())
    forward, backward = context.expand_reachability(everyone, everyone)
    assert forward == {0: {0}, 1: {1, 2}, 2: {1, 2}, 3: {4}}
    assert backward == {0: {0}, 1: {1, 2}, 2: {1, 2}, 4: {3}}
    assert context.tails_reaching(everyone, everyone) == {0, 1, 2, 3}
    assert context.heads_reached(everyone, everyone) == {0, 1, 2, 4}
    rig = build_rig(context, PatternQuery(["A", "A"], [(0, 1, "descendant")])).rig
    assert set(rig.edge_candidates(0, 1)) == {(0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 4)}
    assert index_pairs(rig.backward_index(0, 1), flip=True) == set(rig.edge_candidates(0, 1))


def test_index_built_for_another_graph_is_not_trusted():
    graph = DataGraph("AAA", [(0, 1), (1, 2)])
    other = DataGraph("AAA", [(2, 1), (1, 0)])
    context = MatchContext(graph, reachability=MatchContext(other).reachability)
    assert context.expand_reachability({0, 2}, {0, 2}) == ({0: {2}}, {2: {0}})


# ---------------------------------------------------------------------- #
# (2) across graph versions: folded and cold contexts
# ---------------------------------------------------------------------- #


def test_folded_condensation_ids_are_not_topological():
    """A fold appends new components at the end of the id range even when
    they are ancestors, and a merge keeps one id of the cycle: the sweep
    cannot rely on id order, only on the ranks, which stay topological."""
    graph = DataGraph("ABCD", [(0, 1), (1, 2)])  # 3 is isolated
    session = QuerySession(graph)
    session.query(PatternQuery(["A", "C"], [(0, 1, "descendant")]))
    delta = GraphDelta.for_graph(graph)
    top = delta.add_node("A")
    bottom = delta.add_node("D")
    delta.add_edge(top, 0).add_edge(2, 3).add_edge(3, bottom)
    assert "reachability" in session.apply(delta).patched
    arrays = session.context._components()
    edges = [(parent, child) for parent, children in enumerate(arrays.children) for child in children]
    ids_ascend = [child > parent for parent, child in edges]
    assert any(ids_ascend) and not all(ids_ascend)
    assert all(arrays.rank[parent] < arrays.rank[child] for parent, child in edges)
    # 2 -> 0 closes the cycle 0 -> 1 -> 2 -> 0: one cyclic component, the
    # others of the cycle emptied.
    assert "reachability" in session.apply(GraphDelta.for_graph(session.graph).add_edge(2, 0)).patched
    arrays = session.context._components()
    merged = arrays.component_of[0]
    assert arrays.component_of[1] == arrays.component_of[2] == merged and arrays.cyclic[merged]
    assert sorted(arrays.members[merged]) == [0, 1, 2]
    assert sum(1 for members in arrays.members if members) == 4
    context = session.context
    everyone = set(session.graph.nodes())
    assert_matches_reference(context, everyone, everyone)
    assert context.expand_reachability({top}, everyone)[0][top] == {0, 1, 2, 3, bottom}
    descendant, ancestor = old_label_fixpoint(context)
    for node in everyone:
        assert context.descendant_label_bits(node) == descendant[node]
        assert context.ancestor_label_bits(node) == ancestor[node]


def test_scc_merging_insert_is_folded():
    """The insert that closes a cycle is patched like any other: the new
    version answers like brute force, a version pinned before the write
    answers as before, and only a removal invalidates the context."""
    graph = DataGraph("ABC", [(0, 1), (1, 2)])
    store = VersionedGraphStore(graph)
    query = PatternQuery(["C", "A"], [(0, 1, "descendant")])
    with store.pin() as warm:
        assert warm.query(query).num_matches == 0
    pinned = store.pin()
    report = store.apply(GraphDelta.for_graph(graph).add_edge(2, 0))
    assert "reachability" in report.patched and "reachability" not in report.invalidated
    with store.pin() as head:
        assert head.query(query).occurrence_set() == set(bruteforce_homomorphisms(head.graph, query))
        assert head.query(query).occurrence_set() == {(2, 0)}
        everyone = set(head.graph.nodes())
        assert_matches_reference(head.session.context, everyone, everyone)
    assert pinned.query(query).num_matches == 0
    pinned.release()
    report = store.apply(GraphDelta.for_graph(store.graph).remove_edge(1, 2))
    assert "reachability" in report.invalidated
    with store.pin() as head:
        assert head.query(query).occurrence_set() == set(bruteforce_homomorphisms(head.graph, query))


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
    )
    def run(data, deltas, tail_seed):
        graph, query = data
        session = QuerySession(graph)
        for inserts in [()] + deltas:
            if inserts:
                live = sum(1 for members in session.context._components().members if members)
                delta = GraphDelta.for_graph(session.graph)
                new_node = delta.add_node(graph.label(0))
                for source, target in inserts:
                    # ``target == new_node`` hangs the fresh node below the
                    # graph; the other edges may close cycles (SCC merges).
                    delta.add_edge(source % new_node, target % (new_node + 1))
                report = session.apply(delta)
                outcomes.update(
                    outcome
                    for outcome in ("patched", "invalidated")
                    if "reachability" in getattr(report, outcome)
                )
                merged = live + 1 - sum(
                    1 for members in session.context._components().members if members
                )
                outcomes["merged"] += merged > 0
            current = session.graph
            expected = set(bruteforce_homomorphisms(current, query))
            assert session.query(query, engine="GM").occurrence_set() == expected
            tails = {node for node in current.nodes() if (node + tail_seed) % 3}
            heads = {node for node in current.nodes() if (node * 7 + tail_seed) % 4}
            assert_matches_reference(session.context, tails, heads)

    run()
    assert outcomes["patched"] and outcomes["merged"]
    assert not outcomes["invalidated"]


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


@st.composite
def looped_graph_and_query(draw):
    """Like ``graph_and_query`` but self-loops are allowed (cyclic singleton
    components) and a query node may carry a label the graph does not have."""
    graph = draw(digraph_with_candidates())[0]
    query = random_pattern_query(
        graph,
        draw(st.integers(min_value=2, max_value=4)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        dense=draw(st.booleans()),
    )
    unknown = draw(st.sets(st.sampled_from(list(query.nodes())), max_size=1))
    labels = ["Z" if node in unknown else query.label(node) for node in query.nodes()]
    return graph, query.relabeled(labels)


def index_pairs(index, flip=False):
    pairs = [(key, partner) for key, partners in index.items() for partner in partners]
    assert len(pairs) == len(set(pairs))
    return {(partner, key) if flip else (key, partner) for key, partner in pairs}


@settings(max_examples=40, deadline=None)
@given(data=st.one_of(graph_and_query(), looped_graph_and_query()))
def test_built_rig_equals_per_pair_rig(data):
    graph, query = data
    # The per-pair reference asks a BFS, not the condensation it checks.
    context = MatchContext(graph, reachability=BFSReachability(graph))
    candidates, pairs = None, None
    for child_check in ChildCheckMethod:
        report = build_rig(context, query, simulation=SimulationOptions(child_check=child_check))
        if candidates is None:
            candidates, pairs = per_pair_rig(context, report.query)
        rig = report.rig
        if any(not nodes for nodes in candidates.values()):
            assert rig.is_empty()
            continue
        for node in report.query.nodes():
            assert set(rig.candidates(node)) == candidates[node]
        for endpoints, expected in pairs.items():
            forward = rig.forward_index(*endpoints)
            backward = rig.backward_index(*endpoints)
            assert all(map(len, forward.values())) and all(map(len, backward.values()))
            assert index_pairs(forward) == expected
            assert index_pairs(backward, flip=True) == expected
            assert set(rig.edge_candidates(*endpoints)) == expected
            assert rig.edge_candidate_count(*endpoints) == len(expected)


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
@given(data=digraph_with_candidates())
def test_label_summaries_equal_the_old_fixpoint(data):
    graph = data[0]
    context = MatchContext(graph)
    descendant, ancestor = old_label_fixpoint(context)
    for node in graph.nodes():
        assert context.descendant_label_bits(node) == descendant[node]
        assert context.ancestor_label_bits(node) == ancestor[node]


def label_set_prefilter(context, query):
    """``node_prefilter`` as its docstring reads: per candidate, the label
    sets of its children / parents / BFS descendants / BFS ancestors."""
    graph = context.graph

    def labels_of(nodes):
        return {graph.label(node) for node in nodes}

    survivors = {}
    for node in query.nodes():
        survivors[node] = set()
        for candidate in graph.inverted_list(query.label(node)):
            seen = {
                (True, True): labels_of(graph.successors(candidate)),
                (False, True): labels_of(graph.predecessors(candidate)),
                (True, False): labels_of(context.forward_reachable_set((candidate,))),
                (False, False): labels_of(context.backward_reachable_set((candidate,))),
            }
            wanted = [
                (True, query.edge(node, child).is_child, query.label(child))
                for child in query.children(node)
            ] + [
                (False, query.edge(parent, node).is_child, query.label(parent))
                for parent in query.parents(node)
            ]
            if all(label in seen[outgoing, direct] for outgoing, direct, label in wanted):
                survivors[node].add(candidate)
    return survivors


@settings(max_examples=80, deadline=None)
@given(data=looped_graph_and_query())
def test_bitset_prefilter_equals_the_label_set_reference(data):
    graph, query = data
    context = MatchContext(graph)
    assert node_prefilter(context, query) == label_set_prefilter(context, query)


@pytest.mark.parametrize("edge_kind", ["child", "descendant"])
@pytest.mark.parametrize("unknown_is_head", [True, False])
def test_prefilter_empties_a_node_constrained_by_an_unknown_label(edge_kind, unknown_is_head):
    # ``label_bit("Z")`` is 0; OR-ing it into the needed bits used to drop a
    # reachability constraint on Z silently while the direct one pruned all.
    graph = DataGraph("AAB", [(0, 1), (1, 2), (2, 0)])
    labels, constrained = (["A", "Z"], 0) if unknown_is_head else (["Z", "A"], 1)
    query = PatternQuery(labels, [(0, 1, edge_kind)])
    survivors = node_prefilter(MatchContext(graph), query)
    assert survivors == {constrained: set(), 1 - constrained: set()}
    known = PatternQuery(["A", "B"] if unknown_is_head else ["B", "A"], [(0, 1, edge_kind)])
    assert all(node_prefilter(MatchContext(graph), known).values())


def test_direct_label_tables_are_built_lazily_and_apart_from_the_summaries():
    # ``perf`` calls ``descendant_label_bits`` during set-up; the child /
    # parent tables must not ride along (they are paid by the first query
    # with a direct edge).
    graph = DataGraph("ABCA", [(0, 1), (1, 2), (3, 1)])
    context = MatchContext(graph)
    a, b, c = (context.label_bit(label) for label in "ABC")
    assert context.descendant_label_bits(0) == b | c
    node_prefilter(context, PatternQuery(["A", "C"], [(0, 1, "descendant")]))
    assert context._direct_labels is None
    assert node_prefilter(context, PatternQuery(["A", "B"], [(0, 1, "child")])) == {0: {0, 3}, 1: {1}}
    children = context.label_bits(outgoing=True, direct=True)
    assert list(children) == [b, c, 0, b]
    assert list(context.label_bits(outgoing=False, direct=True)) == [0, a, b, 0]
    assert context.label_bits(outgoing=True, direct=True) is children  # built once per context


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


# ---------------------------------------------------------------------- #
# (7) one build's cones: each swept once, every answer still the reference
# ---------------------------------------------------------------------- #


@settings(max_examples=80, deadline=None)
@given(
    data=digraph_with_candidates(),
    steps=st.lists(
        st.one_of(
            st.sampled_from(["tails", "heads", "expand"]),
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=11)),
        ),
        max_size=12,
    ),
)
def test_one_builds_cones_answer_like_per_tail_bfs(data, steps):
    """Semijoins prune the candidate sets as fbsim's checks do, other query
    edges shrink them (a drop), and BuildRIG expands in between; one memo
    serves all of it, and every answer equals the per-tail BFS."""
    graph, tails, heads = data
    context = MatchContext(graph)
    component_of = context._components().component_of
    cones, asked = Cones(), []
    for step in steps:
        expected = reference_expansion(context, tails, heads)
        down = (True, frozenset(component_of[tail] for tail in tails))
        up = (False, frozenset(component_of[head] for head in heads))
        if step == "tails":
            tails = context.tails_reaching(tails, heads, cones)
            assert tails == set(expected)
            asked.append(up)
        elif step == "heads":
            heads = context.heads_reached(heads, tails, cones)
            assert heads == set(transposed(expected))
            asked.append(down)
        elif step == "expand":
            forward, backward = context.expand_reachability(tails, heads, cones=cones)
            assert forward == expected and backward == transposed(expected)
            asked += [down, up]
        else:
            from_tails, node = step
            (tails if from_tails else heads).discard(node)
    assert cones.computed == len(set(asked))
    assert cones.served == len(asked) - len(set(asked))


def rig_signature(rig):
    """Everything a RIG answers with: candidates, pairs, stored sets."""
    return (
        {node: frozenset(rig.candidates(node)) for node in rig.query.nodes()},
        {
            edge.endpoints(): frozenset(rig.edge_candidates(*edge.endpoints()))
            for edge in rig.query.edges()
        },
        rig.num_physical_edges(),
    )


def test_threads_sharing_one_context_build_the_sequential_rigs():
    # The condensation arrays are built lazily by whichever thread asks first;
    # each build's cones are its own.  More threads than cores, short slices.
    graph = random_labeled_graph(300, 780, 6, seed=5)
    queries = list(all_template_queries(graph, seed=3, kinds=("D", "H")).values())
    shared = MatchContext(graph)
    expected = [rig_signature(build_rig(shared, query).rig) for query in queries]

    context = MatchContext(graph)
    workers = 4
    start = threading.Barrier(workers)
    built = [None] * workers

    def build_all(slot):
        order = list(range(len(queries)))[slot:] + list(range(len(queries)))[:slot]
        start.wait()
        built[slot] = {index: rig_signature(build_rig(context, queries[index]).rig) for index in order}

    threads = [threading.Thread(target=build_all, args=(slot,)) for slot in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for signatures in built:
        assert [signatures[index] for index in range(len(queries))] == expected


def test_each_cone_is_swept_once_per_build_and_counted(monkeypatch):
    # 0 -> 1 -> 2 is an A -> B -> C path.  B at 3 reaches no C (the
    # pre-filter drops it), so pass 1 drops A at 4 and pass 2 re-checks the
    # two edges at A: 4 cones swept, 2 served in pass 2 and 4 in expansion.
    graph = DataGraph("ABCBA", [(0, 1), (1, 2), (4, 3)])
    query = PatternQuery(["A", "B", "C"], [(0, 1, "descendant"), (1, 2, "descendant")])
    swept = []
    strict_closure = context_module._strict_closure

    def recording(adjacency, seeds):
        seeds = frozenset(seeds)
        swept.append((id(adjacency), seeds))
        return strict_closure(adjacency, seeds)

    monkeypatch.setattr(context_module, "_strict_closure", recording)
    matcher = GraphMatcher(graph)
    report = matcher.build_rig(query)
    assert report.simulation.passes == 2
    # One sweep per distinct (direction, component set): a return to one
    # sweep per call repeats keys here.
    assert report.condensation_sweeps == len(swept) == len(set(swept)) == 4
    assert report.condensation_sweeps_served == 6
    artifacts = matcher.explain(query).artifacts
    assert (artifacts["condensation_sweeps"], artifacts["condensation_sweeps_served"]) == (4, 6)
    extra = matcher.match(query).extra
    assert "condensation_sweeps" not in extra and "condensation_sweeps_served" not in extra


# ---------------------------------------------------------------------- #
# (8) the post-expand prune runs only where it can remove something
# ---------------------------------------------------------------------- #


#: Builds that stop short of the simulation's fixpoint: (variant, options).
INEXACT_BUILDS = {
    "GM-F": (GMVariant.GM_F, None),
    "max_passes=1": (GMVariant.GM, SimulationOptions(max_passes=1)),
}


@settings(max_examples=60, deadline=None)
@given(data=st.one_of(graph_and_query(), looped_graph_and_query()))
def test_post_expand_prune_is_skipped_exactly_after_a_fixpoint(data):
    """An exact simulation leaves nothing to prune, so the build skips it;
    GM-F and one-pass simulations still prune, down to the exact RIG."""
    graph, query = data
    context = MatchContext(graph)
    prune = RuntimeIndexGraph.prune_unmatched_candidates
    calls = []

    def build(variant=GMVariant.GM, simulation=None):
        calls.clear()
        with mock.patch.object(
            RuntimeIndexGraph,
            "prune_unmatched_candidates",
            lambda rig: calls.append(prune(rig)) or calls[-1],
        ):
            return build_rig(context, query, variant, simulation)

    exact = build()
    assert exact.simulation.pruned_per_pass[-1] == 0 and calls == []
    assert prune(exact.rig) == 0
    for name, (variant, simulation) in INEXACT_BUILDS.items():
        report = build(variant, simulation)
        simulation = report.simulation
        if simulation is None:
            expanded = all(node_prefilter(context, report.query).values())
        else:
            expanded = all(simulation.candidates.values()) and simulation.pruned_per_pass[-1] > 0
        assert len(calls) == expanded, name
        # The prune reaches the exact RIG; an empty one was never expanded.
        if exact.rig.is_empty():
            assert report.rig.is_empty(), name
        else:
            assert rig_signature(report.rig)[0] == rig_signature(exact.rig)[0], name


def test_a_build_short_of_the_fixpoint_still_prunes():
    # A at 4 reaches only B at 3, which reaches no C: GM-F's label test drops
    # 3 but keeps 4, and only the post-expand prune drops 4.
    graph = DataGraph("ABCBA", [(0, 1), (1, 2), (4, 3)])
    query = PatternQuery(["A", "B", "C"], [(0, 1, "descendant"), (1, 2, "descendant")])
    report = build_rig(MatchContext(graph), query, GMVariant.GM_F)
    assert report.candidates_after_selection == 4
    assert rig_signature(report.rig)[0] == {0: {0}, 1: {1}, 2: {2}}
