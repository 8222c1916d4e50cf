"""Tests for GraphDelta, the ``DataGraph.with_delta`` fold and the edit recorder."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures_paper import A1, B0, C0, C2, build_paper_graph
from repro.dynamic import GraphDelta, MutableDataGraph, merged_delta
from repro.exceptions import GraphError
from repro.graph.digraph import DataGraph
from repro.graph.generators import random_labeled_graph


class TestGraphDelta:
    def test_add_node_assigns_dense_ids(self):
        delta = GraphDelta(base_num_nodes=5)
        assert delta.add_node("A") == 5
        assert delta.add_node("B") == 6
        assert delta.num_added_nodes == 2
        assert delta.added_nodes == [(5, "A"), (6, "B")]

    def test_edges_may_reference_new_nodes(self):
        delta = GraphDelta(base_num_nodes=3)
        node = delta.add_node("X")
        delta.add_edge(0, node)
        delta.add_edge(node, 2)
        assert delta.added_edges == [(0, 3), (3, 2)]

    def test_out_of_range_edge_rejected(self):
        delta = GraphDelta(base_num_nodes=3)
        with pytest.raises(GraphError):
            delta.add_edge(0, 3)
        with pytest.raises(GraphError):
            delta.remove_edge(-1, 0)

    def test_shape_flags(self):
        insert_only = GraphDelta(4).add_edge(0, 1)
        assert insert_only.is_insert_only
        assert not insert_only.has_removals
        with_removal = GraphDelta(4).remove_edge(0, 1)
        assert with_removal.has_removals and not with_removal.is_insert_only
        with_relabel = GraphDelta(4).relabel(2, "Z")
        assert with_relabel.has_relabels and not with_relabel.is_insert_only
        assert not with_relabel.has_removals

    def test_dict_round_trip_preserves_op_order(self):
        delta = GraphDelta(2)
        delta.add_edge(0, 1)
        node = delta.add_node("N")
        delta.relabel(0, "M")
        delta.remove_edge(0, 1)
        delta.add_edge(node, 0)
        restored = GraphDelta.from_dict(delta.to_dict())
        assert restored.ops == delta.ops
        assert restored.base_num_nodes == delta.base_num_nodes

    def test_from_dict_rejects_unknown_op(self):
        with pytest.raises(GraphError):
            GraphDelta.from_dict({"base_num_nodes": 1, "ops": [["drop_table", 0]]})

    @pytest.mark.parametrize(
        "payload",
        [
            {"base_num_nodes": 2, "ops": [["add_edge", 0]]},          # arity
            {"base_num_nodes": 2, "ops": [["add_edge", "x", "y"]]},   # types
            {"base_num_nodes": 2, "ops": [["relabel", 0, "L", 9]]},   # arity
            {"base_num_nodes": "many", "ops": []},                    # base
        ],
    )
    def test_from_dict_wraps_malformed_payloads(self, payload):
        # corrupt documents surface as GraphError, never IndexError/ValueError
        with pytest.raises(GraphError):
            GraphDelta.from_dict(payload)

    def test_merged_delta(self):
        first = GraphDelta(2)
        first.add_node("A")
        second = GraphDelta(3)
        second.add_edge(2, 0)
        merged = merged_delta(first, second)
        assert merged.num_added_nodes == 1
        assert merged.added_edges == [(2, 0)]
        with pytest.raises(GraphError):
            merged_delta(first, GraphDelta(99))


class TestMutableDataGraph:
    def test_overlay_reads_through_to_base(self, paper_graph):
        overlay = MutableDataGraph(paper_graph)
        assert overlay.num_nodes == paper_graph.num_nodes
        assert overlay.num_edges == paper_graph.num_edges
        assert overlay.version == paper_graph.version
        for node in paper_graph.nodes():
            assert overlay.successors(node) == paper_graph.successors(node)
            assert overlay.label(node) == paper_graph.label(node)
        assert overlay.label_alphabet() == paper_graph.label_alphabet()
        assert not overlay.delta_since_base()
        assert overlay.materialize() is paper_graph

    def test_add_edge_and_node_visible_in_all_views(self, paper_graph):
        overlay = MutableDataGraph(paper_graph)
        new = overlay.add_node("D")
        assert overlay.add_edge(A1, new)
        assert overlay.has_edge(A1, new)
        assert overlay.has_edge_binary_search(A1, new)
        assert new in overlay.successors(A1)
        assert A1 in overlay.predecessors(new)
        assert new in overlay.successor_set(A1)
        assert overlay.inverted_list("D") == (new,)
        assert "D" in overlay.label_alphabet()
        assert overlay.num_edges == paper_graph.num_edges + 1
        assert overlay.version == paper_graph.version + 2  # two single-op batches

    def test_duplicate_add_edge_is_noop(self, paper_graph):
        overlay = MutableDataGraph(paper_graph)
        assert overlay.add_edge(A1, B0) is False
        assert overlay.num_edges == paper_graph.num_edges
        assert not overlay.delta_since_base()

    def test_remove_edge(self, paper_graph):
        overlay = MutableDataGraph(paper_graph)
        overlay.remove_edge(A1, B0)
        assert not overlay.has_edge(A1, B0)
        assert B0 not in overlay.successors(A1)
        assert A1 not in overlay.predecessors(B0)
        assert overlay.num_edges == paper_graph.num_edges - 1
        with pytest.raises(GraphError):
            overlay.remove_edge(A1, B0)

    def test_remove_then_readd(self, paper_graph):
        overlay = MutableDataGraph(paper_graph)
        overlay.remove_edge(A1, B0)
        assert overlay.add_edge(A1, B0)
        assert overlay.has_edge(A1, B0)
        assert overlay.num_edges == paper_graph.num_edges

    def test_relabel_moves_inverted_lists(self, paper_graph):
        overlay = MutableDataGraph(paper_graph)
        assert overlay.relabel(C0, "A")
        assert C0 not in overlay.inverted_list("C")
        assert C0 in overlay.inverted_list("A")
        assert overlay.label(C0) == "A"
        # untouched label delegates to the base tuple (no copy)
        assert overlay.inverted_list("B") is paper_graph.inverted_list("B")

    def test_apply_batched_delta_bumps_version_once(self, paper_graph):
        delta = GraphDelta.for_graph(paper_graph)
        node = delta.add_node("E")
        delta.add_edge(A1, node)
        delta.add_edge(node, C0)
        overlay = MutableDataGraph(paper_graph, delta)
        assert overlay.version == paper_graph.version + 1
        assert overlay.num_nodes == paper_graph.num_nodes + 1
        materialized = overlay.materialize()
        assert materialized.version == overlay.version
        assert materialized.has_edge(A1, node) and materialized.has_edge(node, C0)

    def test_apply_noop_batch_keeps_version(self, paper_graph):
        delta = GraphDelta.for_graph(paper_graph)
        delta.add_edge(A1, B0)  # already present
        delta.relabel(A1, "A")  # unchanged label
        overlay = MutableDataGraph(paper_graph, delta)
        assert overlay.version == paper_graph.version
        assert not overlay.delta_since_base()
        assert overlay.materialize() is paper_graph

    def test_apply_rejects_mismatched_base(self, paper_graph):
        delta = GraphDelta(base_num_nodes=paper_graph.num_nodes + 1)
        with pytest.raises(GraphError):
            MutableDataGraph(paper_graph, delta)

    def test_delta_since_base_skips_noops(self, paper_graph):
        overlay = MutableDataGraph(paper_graph)
        overlay.add_edge(A1, B0)  # already exists: no-op
        overlay.relabel(A1, "A")  # same label: no-op
        overlay.add_edge(A1, C2)
        effective = overlay.delta_since_base()
        assert len(effective) == 1
        assert effective.added_edges == [(A1, C2)]

    def test_traversals_see_overlay(self, paper_graph):
        overlay = MutableDataGraph(paper_graph)
        sink = overlay.add_node("Z")
        overlay.add_edge(C0, sink)
        assert sink in overlay.bfs_forward(A1)
        assert A1 in overlay.bfs_backward(sink)
        assert overlay.reaches_bfs(A1, sink)
        assert not overlay.reaches_bfs(sink, A1)




class TestWithDelta:
    def test_missing_edge_removal_raises_and_leaves_base(self, paper_graph):
        delta = GraphDelta.for_graph(paper_graph).add_edge(A1, C2).remove_edge(C2, A1)
        before = sorted(paper_graph.edges())
        with pytest.raises(GraphError):
            paper_graph.with_delta(delta)
        assert sorted(paper_graph.edges()) == before
        assert paper_graph.version == 0

    def test_noop_batch_returns_self(self, paper_graph):
        delta = GraphDelta.for_graph(paper_graph).add_edge(A1, B0).relabel(A1, "A")
        graph, effective = paper_graph.with_delta(delta)
        assert graph is paper_graph and not effective

    def test_mismatched_base_rejected(self, paper_graph):
        with pytest.raises(GraphError):
            paper_graph.with_delta(GraphDelta(paper_graph.num_nodes + 1))

    def test_fold_never_calls_the_constructor(self, paper_graph, monkeypatch):
        calls = []
        original = DataGraph.__init__

        def counting(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DataGraph, "__init__", counting)
        delta = GraphDelta.for_graph(paper_graph)
        node = delta.add_node("D")
        delta.add_edge(A1, node).relabel(C0, "A").remove_edge(A1, B0)
        graph, _ = paper_graph.with_delta(delta)
        assert graph.num_nodes == paper_graph.num_nodes + 1
        assert calls == []


#: Drawn op kinds; each is resolved against the current state by ``_resolve``.
KINDS = ("add_node", "add_edge", "remove_edge", "add_then_remove", "relabel", "empty_label", "noop")
LABELS = ("L0", "L1", "L2", "L3")


@st.composite
def graph_and_batches(draw):
    """A random base graph plus a few batches of drawn mutations."""
    num_nodes = draw(st.integers(min_value=2, max_value=14))
    num_edges = draw(st.integers(min_value=0, max_value=25))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    graph = random_labeled_graph(
        num_nodes, min(num_edges, num_nodes * (num_nodes - 1)), num_labels=3, seed=seed
    )
    choice = st.integers(min_value=0, max_value=10_000)
    mixed = st.lists(st.tuples(st.sampled_from(KINDS), choice, choice), min_size=1, max_size=8)
    noops = st.lists(st.tuples(st.just("noop"), choice, choice), min_size=1, max_size=3)
    batches = draw(st.lists(st.one_of(mixed, noops), min_size=1, max_size=4))
    return graph, batches


def _resolve(batch, labels, edges):
    """Turn drawn choices into a delta against the model ``labels`` / ``edges``.

    Applies each op to the model as well and returns ``(delta, expected)``,
    ``expected`` being the ops that change the model: the effective delta.
    """
    delta = GraphDelta(len(labels))
    expected = []

    def add(source, target):
        delta.add_edge(source, target)
        if (source, target) not in edges:
            edges.add((source, target))
            expected.append(("add_edge", source, target))

    def remove(source, target):
        delta.remove_edge(source, target)
        edges.remove((source, target))
        expected.append(("remove_edge", source, target))

    def relabel(node, label):
        delta.relabel(node, label)
        if labels[node] != label:
            labels[node] = label
            expected.append(("relabel", node, label))

    for kind, a, b in batch:
        n = len(labels)
        if kind == "add_node":
            label = LABELS[a % len(LABELS)]
            delta.add_node(label)
            labels.append(label)
            expected.append(("add_node", label))
        elif kind == "add_edge":
            add(a % n, b % n)
        elif kind == "remove_edge":
            if edges:
                remove(*sorted(edges)[a % len(edges)])
        elif kind == "add_then_remove":
            add(a % n, b % n)
            remove(a % n, b % n)
        elif kind == "relabel":
            relabel(a % n, LABELS[b % len(LABELS)])
        elif kind == "empty_label":
            victim = labels[a % n]
            others = [label for label in LABELS if label != victim]
            for node in range(n):
                if labels[node] == victim:
                    relabel(node, others[b % len(others)])
        else:  # noop: re-insert a present edge, relabel a node to its own label
            if edges:
                add(*sorted(edges)[a % len(edges)])
            relabel(b % n, labels[b % n])
    return delta, expected


def _state(graph):
    """Every read of ``graph``, by value."""
    return (
        graph.version,
        graph.num_nodes,
        graph.num_edges,
        graph.labels,
        sorted(graph.edges()),
        graph.label_alphabet(),
        graph.num_labels(),
        graph.max_inverted_list_size(),
        graph.inverted_lists(),
        [
            (
                graph.successors(node),
                graph.predecessors(node),
                graph.successor_set(node),
                graph.predecessor_set(node),
                graph.out_degree(node),
                graph.in_degree(node),
            )
            for node in graph.nodes()
        ],
        [(graph.inverted_list(label), graph.inverted_set(label)) for label in graph.label_alphabet()],
    )


def _assert_shares_untouched(base, folded, effective):
    touched_nodes = {
        node for op in effective.ops if op[0] in ("add_edge", "remove_edge") for node in op[1:]
    }
    for node in base.nodes():
        if node not in touched_nodes:
            assert folded.successors(node) is base.successors(node)
            assert folded.predecessors(node) is base.predecessors(node)
            assert folded.successor_set(node) is base.successor_set(node)
            assert folded.predecessor_set(node) is base.predecessor_set(node)
    touched_labels = {op[1] for op in effective.ops if op[0] == "add_node"}
    for op in effective.ops:
        if op[0] == "relabel":
            touched_labels.add(op[2])
            if op[1] < base.num_nodes:
                touched_labels.add(base.label(op[1]))
    for label in set(base.label_alphabet()) - touched_labels:
        assert folded.inverted_list(label) is base.inverted_list(label)
        assert folded.inverted_set(label) is base.inverted_set(label)


@given(graph_and_batches())
@settings(max_examples=60, deadline=None)
def test_fold_equals_cold_rebuild(case):
    """Each fold equals a cold ``DataGraph(labels, edges)`` of the same state,
    reports exactly the effective ops, shares what it did not touch, and
    leaves its base as it was."""
    graph, batches = case
    labels, edges = list(graph.labels), set(graph.edges())
    for batch in batches:
        delta, expected = _resolve(batch, labels, edges)
        before = _state(graph)
        folded, effective = graph.with_delta(delta)
        cold = DataGraph(labels, edges)
        assert folded == cold
        assert _state(folded)[1:] == _state(cold)[1:]
        assert effective.ops == tuple(expected)
        if expected:
            assert folded.version == graph.version + 1
        else:
            assert folded is graph
        _assert_shares_untouched(graph, folded, effective)
        # replaying the effective delta reproduces the fold
        assert _state(graph.with_delta(effective)[0]) == _state(folded)
        assert _state(graph) == before
        graph = folded
