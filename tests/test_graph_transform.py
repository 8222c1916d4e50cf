"""Tests for SCC condensation, subgraph extraction and graph statistics."""

import pytest

from repro.exceptions import GraphError
from repro.graph.digraph import DataGraph
from repro.graph.generators import random_labeled_graph
from repro.graph.transform import (
    condensation,
    graph_statistics,
    induced_subgraph,
    node_prefix_subgraph,
    relabel_nodes,
    reverse_graph,
    strongly_connected_components,
    undirected_double,
)


@pytest.fixture()
def cyclic_graph():
    # Two 3-cycles (0,1,2) and (3,4,5) connected by 2 -> 3, plus a tail 5 -> 6.
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3), (5, 6)]
    return DataGraph(["X"] * 7, edges, name="cyclic")


class TestSCC:
    def test_components(self, cyclic_graph):
        components = {frozenset(c) for c in strongly_connected_components(cyclic_graph)}
        assert frozenset({0, 1, 2}) in components
        assert frozenset({3, 4, 5}) in components
        assert frozenset({6}) in components

    def test_acyclic_graph_all_singletons(self):
        graph = DataGraph(["X"] * 4, [(0, 1), (1, 2), (2, 3)])
        assert all(len(c) == 1 for c in strongly_connected_components(graph))

    def test_condensation_structure(self, cyclic_graph):
        result = condensation(cyclic_graph)
        assert sum(1 for members in result.members if members) == 3
        # component of 0,1,2 is the same
        assert result.component_of[0] == result.component_of[1] == result.component_of[2]
        assert result.component_of[0] != result.component_of[3]
        assert [result.cyclic[result.component_of[node]] for node in (0, 3, 6)] == [True, True, False]

    def test_condensation_is_acyclic(self, cyclic_graph):
        # Kahn's order over ``children`` reaches every live component.
        result = condensation(cyclic_graph)
        live = [component for component, members in enumerate(result.members) if members]
        waiting = {component: len(result.parents[component]) for component in live}
        ready = [component for component in live if not waiting[component]]
        ordered = 0
        while ready:
            ordered += 1
            for child in result.children[ready.pop()]:
                waiting[child] -= 1
                if not waiting[child]:
                    ready.append(child)
        assert ordered == len(live) == 3

    def test_cyclic_flags_mark_the_components_on_a_cycle(self):
        graph = random_labeled_graph(60, 90, 3, seed=5)
        graph = DataGraph(
            [graph.label(node) for node in graph.nodes()], sorted(graph.edges()) + [(7, 7)]
        )
        result = condensation(graph)
        assert result.cyclic[result.component_of[7]]
        for node in graph.nodes():
            on_cycle = any(graph.reaches_bfs(child, node) for child in graph.successors(node))
            assert result.cyclic[result.component_of[node]] == on_cycle, node

    def test_ranks_increase_along_children(self, cyclic_graph):
        result = condensation(cyclic_graph)
        for component, children in enumerate(result.children):
            for child in children:
                assert result.rank[component] < result.rank[child]
                assert component in result.parents[child]
        assert sorted(map(len, result.children)) == sorted(map(len, result.parents))

    def test_condensation_preserves_reachability(self, cyclic_graph):
        result = condensation(cyclic_graph)
        # 0 reaches 6 in the original; the corresponding components must too.
        assert _component_reaches(result, result.component_of[0], result.component_of[6])
        assert not _component_reaches(result, result.component_of[6], result.component_of[0])

    def test_condensation_on_random_graph(self):
        graph = random_labeled_graph(80, 300, 3, seed=11)
        result = condensation(graph)
        assert sum(len(members) for members in result.members) == graph.num_nodes
        for component, members in enumerate(result.members):
            assert all(result.component_of[node] == component for node in members)
        component_of = result.component_of
        for source in graph.nodes():
            for target in graph.nodes():
                assert _component_reaches(
                    result, component_of[source], component_of[target]
                ) == graph.reaches_bfs(source, target), (source, target)


def _component_reaches(result, source, target):
    """Is ``target`` ``source`` or below it along the condensation's children?"""
    seen = {source}
    stack = [source]
    while stack:
        for child in result.children[stack.pop()]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return target in seen


class TestSubgraphs:
    def test_induced_subgraph(self, cyclic_graph):
        sub = induced_subgraph(cyclic_graph, [0, 1, 2, 3])
        assert sub.num_nodes == 4
        assert sub.has_edge(2, 3)
        assert not any(target > 3 for _, target in sub.edges())

    def test_induced_subgraph_out_of_range(self, cyclic_graph):
        with pytest.raises(GraphError):
            induced_subgraph(cyclic_graph, [0, 99])

    def test_node_prefix_subgraph(self, cyclic_graph):
        sub = node_prefix_subgraph(cyclic_graph, 3)
        assert sub.num_nodes == 3
        assert set(sub.edges()) == {(0, 1), (1, 2), (2, 0)}

    def test_node_prefix_larger_than_graph(self, cyclic_graph):
        sub = node_prefix_subgraph(cyclic_graph, 100)
        assert sub.num_nodes == cyclic_graph.num_nodes

    def test_relabel_nodes(self, cyclic_graph):
        relabelled = relabel_nodes(cyclic_graph, lambda node, label: f"N{node % 2}")
        assert relabelled.label(0) == "N0"
        assert relabelled.label(1) == "N1"
        assert set(relabelled.edges()) == set(cyclic_graph.edges())

    def test_reverse_graph(self, cyclic_graph):
        reversed_graph = reverse_graph(cyclic_graph)
        assert reversed_graph.has_edge(6, 5)
        assert not reversed_graph.has_edge(5, 6)
        assert reversed_graph.num_edges == cyclic_graph.num_edges

    def test_undirected_double(self):
        graph = DataGraph(["A", "B"], [(0, 1)])
        doubled = undirected_double(graph)
        assert doubled.has_edge(0, 1) and doubled.has_edge(1, 0)
        assert doubled.num_edges == 2


class TestStatistics:
    def test_statistics_fields(self, cyclic_graph):
        stats = graph_statistics(cyclic_graph)
        assert stats.num_nodes == 7
        assert stats.num_edges == 8
        assert stats.num_labels == 1
        assert stats.avg_degree == pytest.approx(8 / 7, abs=0.01)
        assert stats.max_inverted_list == 7

    def test_statistics_row(self, cyclic_graph):
        row = graph_statistics(cyclic_graph).as_row()
        assert row[0] == "cyclic"
        assert row[1] == 7

    def test_statistics_empty_graph(self):
        stats = graph_statistics(DataGraph([], []))
        assert stats.avg_degree == 0.0
        assert stats.max_out_degree == 0
