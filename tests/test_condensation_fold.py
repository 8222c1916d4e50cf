"""A folded match context equals a cold one.

``MatchContext.with_delta`` carries the SCC condensation and the four label
tables across insert deltas: new nodes, self-loops, duplicate edges, edges
that agree with the topological ranks, edges that force a Pearce-Kelly
re-rank, and back edges that merge components.  After every fold the carried
context is compared with ``MatchContext(folded graph)`` — the same node
partition up to renaming, the same ``cyclic`` per node, ranks that increase
along every dag edge, the same strict descendants per node, identical label
tables and label bits — and its set-at-a-time reachability with one BFS per
tail.  The context a fold started from must come out unchanged, and the BFL
index a folded context builds labels that context's own arrays exactly.
"""

import copy
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import GraphDelta
from repro.graph.digraph import DataGraph
from repro.graph.generators import random_labeled_graph
from repro.simulation.context import MatchContext

from test_reachability_expansion import assert_matches_reference

LABELS = "ABCDEFG"

#: Op kinds, weighted toward the back edges that merge components.
OPS = ("back", "back", "back", "edge", "edge", "self", "duplicate", "node")


@st.composite
def graph_and_deltas(draw):
    num_nodes = draw(st.integers(min_value=1, max_value=10))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    edges = draw(st.sets(st.tuples(node, node), max_size=2 * num_nodes))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=num_nodes, max_size=num_nodes))
    op = st.tuples(st.sampled_from(OPS), st.integers(0, 999), st.integers(0, 999))
    deltas = draw(st.lists(st.lists(op, min_size=1, max_size=4), min_size=1, max_size=5))
    return DataGraph(labels, sorted(edges), name="fold"), deltas


def build_delta(graph, ops):
    """The concrete insert delta the drawn ops mean on ``graph``."""
    delta = GraphDelta.for_graph(graph)
    edges = sorted(graph.edges())
    for kind, first, second in ops:
        count = delta.base_num_nodes + delta.num_added_nodes
        if kind == "node":
            delta.add_node(LABELS[first % len(LABELS)])
        elif kind == "self":
            node = first % count
            delta.add_edge(node, node)
        elif kind == "duplicate" and edges:
            delta.add_edge(*edges[first % len(edges)])
        elif kind == "back" and first % count < graph.num_nodes:
            # An edge from a node reached from ``source`` back to it.
            source = first % count
            reached = sorted(graph.bfs_forward(source))
            delta.add_edge(reached[second % len(reached)], source)
        else:
            delta.add_edge(first % count, second % count)
    return delta


def snapshot(context):
    return copy.deepcopy(
        (context._component_arrays, context._labels, context._direct_labels)
    )


def warm(context, direct):
    """Build the arrays and the label tables (the direct ones when asked)."""
    context.label_bits(outgoing=True, direct=direct)


def assert_same_as_cold(folded):
    graph = folded.graph
    cold = MatchContext(graph)
    arrays, reference = folded._components(), cold._components()

    def blocks(condensation):
        return {
            node: frozenset(condensation.members[condensation.component_of[node]])
            for node in graph.nodes()
        }

    assert blocks(arrays) == blocks(reference)
    for node in graph.nodes():
        assert arrays.cyclic[arrays.component_of[node]] == reference.cyclic[reference.component_of[node]]
    assert sorted(node for members in arrays.members for node in members) == list(graph.nodes())

    # The dag: symmetric, between live components, ranked topologically.
    for component, children in enumerate(arrays.children):
        assert component not in children and len(set(children)) == len(children)
        for child in children:
            assert arrays.members[component] and arrays.members[child]
            assert component in arrays.parents[child]
            assert arrays.rank[component] < arrays.rank[child]
    assert sum(map(len, arrays.children)) == sum(map(len, arrays.parents))
    live = [rank for rank, members in zip(arrays.rank, arrays.members) if members]
    assert len(set(live)) == len(live)

    # Strict descendants: the components below, and the own one when cyclic.
    for node in graph.nodes():
        component = arrays.component_of[node]
        below = {component} if arrays.cyclic[component] else set()
        frontier = [component]
        seen = set()
        while frontier:
            for child in arrays.children[frontier.pop()]:
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        below |= seen
        strict = {member for c in below for member in arrays.members[c]}
        assert strict == folded.forward_reachable_set((node,))

    for outgoing in (True, False):
        for direct in (True, False):
            assert list(folded.label_bits(outgoing, direct)) == list(cold.label_bits(outgoing, direct))
    for label in graph.label_alphabet():
        assert folded.label_bit(label) == cold.label_bit(label)


@settings(max_examples=150, deadline=None)
@given(
    data=graph_and_deltas(),
    direct=st.booleans(),
    seeds=st.lists(st.integers(0, 999), min_size=2, max_size=2),
)
def test_folded_context_equals_cold_context(data, direct, seeds):
    graph, deltas = data
    context = MatchContext(graph)
    warm(context, direct)
    for ops in deltas:
        new_graph, effective = graph.with_delta(build_delta(graph, ops))
        if not effective:
            continue
        before = snapshot(context)
        folded = context.with_delta(new_graph, effective)
        assert snapshot(context) == before
        assert folded._component_arrays is not None
        # A label new to the graph renumbers the label bits: the tables go.
        carried = set(new_graph.label_alphabet()) == set(graph.label_alphabet())
        assert (folded._labels is not None) == carried
        had_direct = context._direct_labels is not None
        assert (folded._direct_labels is not None) == (carried and had_direct)
        assert_same_as_cold(folded)
        warm(folded, direct)
        tails = {node for node in new_graph.nodes() if (node + seeds[0]) % 3}
        heads = {node for node in new_graph.nodes() if (node * 7 + seeds[1]) % 4}
        assert_matches_reference(folded, tails, heads)
        graph, context = new_graph, folded


@settings(max_examples=300, deadline=None)
@given(data=graph_and_deltas())
def test_bfl_labels_the_folded_condensation(data):
    """The per-pair index of a folded context labels the context's own
    arrays — sparse ranks, emptied ids and all — and answers like a BFS."""
    graph, deltas = data
    context = MatchContext(graph)
    context._components()
    for ops in deltas:
        new_graph, effective = graph.with_delta(build_delta(graph, ops))
        if not effective:
            continue
        context = context.with_delta(new_graph, effective)
        index = context.reachability
        arrays = context._components()
        assert index._cond is arrays
        assert index.label_size_bits() == 2 * 64 * sum(1 for members in arrays.members if members)
        for u in new_graph.nodes():
            on_cycle = any(new_graph.reaches_bfs(child, u) for child in new_graph.successors(u))
            assert index.reaches_strict(u, u) == on_cycle, u
            for v in new_graph.nodes():
                assert index.reaches(u, v) == new_graph.reaches_bfs(u, v), (u, v)
        graph = new_graph


def test_fold_merges_a_long_cycle_and_reranks_around_it():
    # 0 -> 1 -> 2 -> 3 -> 4 with side branches; 4 -> 1 merges 1..4, and
    # 5 -> 0 and 4 -> 6 sit outside the cycle on either side.
    graph = DataGraph("ABCABCA", [(0, 1), (1, 2), (2, 3), (3, 4), (5, 0), (4, 6)])
    context = MatchContext(graph)
    warm(context, direct=True)
    new_graph, effective = graph.with_delta(GraphDelta.for_graph(graph).add_edge(4, 1))
    folded = context.with_delta(new_graph, effective)
    arrays = folded._components()
    assert len({arrays.component_of[node] for node in (1, 2, 3, 4)}) == 1
    assert_same_as_cold(folded)


def test_relabel_keeps_the_condensation_and_rebuilds_the_label_tables():
    graph = DataGraph("ABC", [(0, 1), (1, 2), (2, 1)])
    context = MatchContext(graph)
    warm(context, direct=True)
    delta = GraphDelta.for_graph(graph).relabel(0, "C").add_edge(2, 0)
    new_graph, effective = graph.with_delta(delta)
    folded = context.with_delta(new_graph, effective)
    assert folded._component_arrays is not None
    assert folded._labels is None and folded._direct_labels is None
    assert_same_as_cold(folded)


def test_new_label_rebuilds_the_label_tables_and_removal_goes_cold():
    graph = DataGraph("AB", [(0, 1)])
    context = MatchContext(graph)
    warm(context, direct=True)
    delta = GraphDelta.for_graph(graph)
    delta.add_edge(1, delta.add_node("Z"))
    new_graph, effective = graph.with_delta(delta)
    folded = context.with_delta(new_graph, effective)
    assert folded._component_arrays is not None and folded._labels is None
    assert_same_as_cold(folded)
    removal, effective = new_graph.with_delta(GraphDelta.for_graph(new_graph).remove_edge(0, 1))
    cold = folded.with_delta(removal, effective)
    assert cold._component_arrays is None
    assert_same_as_cold(cold)


def test_folds_while_readers_build_the_tables():
    """A fold reads whatever tables concurrent readers of the old context
    have published so far; every fold must still equal the cold context."""
    graph = random_labeled_graph(150, 300, 5, seed=11)
    new_graph, effective = graph.with_delta(
        build_delta(graph, [("back", node, node * 7) for node in range(0, 150, 5)])
    )
    cold = MatchContext(new_graph)
    expected = [
        list(cold.label_bits(outgoing, direct)) for outgoing in (True, False) for direct in (True, False)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            context = MatchContext(graph)
            context._components()
            readers = [
                threading.Thread(target=context.label_bits, args=(outgoing, True))
                for outgoing in (True, False, True, False)
            ]
            for reader in readers:
                reader.start()
            folds = [context.with_delta(new_graph, effective) for _ in range(4)]
            for reader in readers:
                reader.join(timeout=30)
                assert not reader.is_alive()
            for folded in folds:
                assert [
                    list(folded.label_bits(outgoing, direct))
                    for outgoing in (True, False)
                    for direct in (True, False)
                ] == expected
    finally:
        sys.setswitchinterval(interval)
