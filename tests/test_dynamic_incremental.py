"""Incremental reachability maintenance: patched index == rebuilt index."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import GraphDelta, MutableDataGraph, should_patch
from repro.dynamic.maintenance import patch_partitions
from repro.engines.relational import build_edge_partitions
from repro.graph.generators import random_labeled_graph
from repro.reachability.base import BFSReachability
from repro.reachability.bfl import BloomFilterLabeling
from repro.reachability.transitive_closure import TransitiveClosureIndex


def _all_pairs_agree(index, graph):
    for source in graph.nodes():
        for target in graph.nodes():
            expected = graph.reaches_bfs(source, target)
            assert index.reaches(source, target) == expected, (
                f"{type(index).__name__}: reaches({source}, {target}) != {expected}"
            )


@st.composite
def insert_only_case(draw):
    """A random graph plus an insert-only delta (nodes + arbitrary edges)."""
    num_nodes = draw(st.integers(min_value=2, max_value=16))
    num_edges = draw(st.integers(min_value=0, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    graph = random_labeled_graph(
        num_nodes, min(num_edges, num_nodes * (num_nodes - 1)), num_labels=3, seed=seed
    )
    delta = GraphDelta.for_graph(graph)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        delta.add_node(draw(st.sampled_from(["A", "B", "C"])))
    total = graph.num_nodes + delta.num_added_nodes
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        delta.add_edge(
            draw(st.integers(min_value=0, max_value=total - 1)),
            draw(st.integers(min_value=0, max_value=total - 1)),
        )
    return graph, delta


class TestIncrementalBFL:
    """BFL cannot patch: it refuses every delta, and the caller rebuilds."""

    @given(insert_only_case())
    @settings(max_examples=30, deadline=None)
    def test_refused_delta_leaves_the_index_answering_for_its_graph(self, case):
        graph, delta = case
        overlay = MutableDataGraph(graph, delta)
        index = BloomFilterLabeling(graph)
        assert index.apply_delta(overlay.materialize(), overlay.delta_since_base()) is False
        assert index.graph is graph
        _all_pairs_agree(index, graph)

    def test_removal_delta_refused(self, paper_graph):
        index = BloomFilterLabeling(paper_graph)
        delta = GraphDelta.for_graph(paper_graph)
        delta.remove_edge(*next(iter(paper_graph.edges())))
        assert index.apply_delta(paper_graph, delta) is False

    def test_relabel_only_delta_is_refused(self, paper_graph):
        index = BloomFilterLabeling(paper_graph)
        delta = GraphDelta.for_graph(paper_graph).relabel(0, "Z")
        overlay = MutableDataGraph(paper_graph, delta)
        assert index.apply_delta(overlay.materialize(), overlay.delta_since_base()) is False
        _all_pairs_agree(index, paper_graph)

    def test_mismatched_base_refused(self, paper_graph):
        index = BloomFilterLabeling(paper_graph)
        assert index.apply_delta(paper_graph, GraphDelta(base_num_nodes=99)) is False


class TestIncrementalClosure:
    @given(insert_only_case())
    @settings(max_examples=50, deadline=None)
    def test_patched_equals_rebuilt(self, case):
        """The patched closure is exact — even for cycle-closing inserts."""
        graph, delta = case
        overlay = MutableDataGraph(graph, delta)
        patched_graph = overlay.materialize()
        index = TransitiveClosureIndex(graph)
        assert index.apply_delta(patched_graph, overlay.delta_since_base()) is True
        rebuilt = TransitiveClosureIndex(patched_graph)
        for node in patched_graph.nodes():
            assert index.reachable_set(node) == rebuilt.reachable_set(node), node

    def test_removal_delta_refused(self, paper_graph):
        index = TransitiveClosureIndex(paper_graph)
        delta = GraphDelta.for_graph(paper_graph)
        delta.remove_edge(*next(iter(paper_graph.edges())))
        assert index.apply_delta(paper_graph, delta) is False


class TestBFSIndexDelta:
    def test_bfs_reachability_patches_any_delta(self, paper_graph):
        index = BFSReachability(paper_graph)
        delta = GraphDelta.for_graph(paper_graph)
        delta.remove_edge(*next(iter(paper_graph.edges())))
        overlay = MutableDataGraph(paper_graph, delta)
        patched = overlay.materialize()
        assert index.apply_delta(patched, overlay.delta_since_base()) is True
        _all_pairs_agree(index, patched)


class TestShouldPatch:
    def test_removals_always_rebuild(self, paper_graph):
        delta = GraphDelta.for_graph(paper_graph).remove_edge(1, 3)
        assert should_patch(paper_graph, delta) is False

    def test_small_insert_patches(self, paper_graph):
        delta = GraphDelta.for_graph(paper_graph).add_edge(0, 9)
        assert should_patch(paper_graph, delta) is True

    def test_bulk_insert_rebuilds(self):
        graph = random_labeled_graph(100, 200, num_labels=3, seed=1)
        delta = GraphDelta.for_graph(graph)
        for index in range(90):
            delta.add_edge(index % 100, (index * 7 + 1) % 100)
        assert should_patch(graph, delta) is False


class TestArtifactPatchHelpers:
    def test_partitions_patch_insert_only(self, paper_graph):
        partitions = build_edge_partitions(paper_graph)
        delta = GraphDelta.for_graph(paper_graph)
        new = delta.add_node("D")
        delta.add_edge(0, new)
        overlay = MutableDataGraph(paper_graph, delta)
        patched = overlay.materialize()
        assert patch_partitions(partitions, patched, overlay.delta_since_base())
        rebuilt = build_edge_partitions(patched)
        assert {k: sorted(v) for k, v in partitions.items()} == {
            k: sorted(v) for k, v in rebuilt.items()
        }

    def test_partitions_patch_refuses_relabels(self, paper_graph):
        partitions = build_edge_partitions(paper_graph)
        before = {k: list(v) for k, v in partitions.items()}
        delta = GraphDelta.for_graph(paper_graph).relabel(0, "C")
        assert patch_partitions(partitions, paper_graph, delta) is False
        assert {k: list(v) for k, v in partitions.items()} == before
