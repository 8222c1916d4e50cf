"""BFL's ``apply_delta`` stub: it refuses every delta and the index keeps
answering for its own graph."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import GraphDelta, MutableDataGraph
from repro.graph.generators import random_labeled_graph
from repro.reachability.bfl import BloomFilterLabeling


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
