"""Property-based tests: every reachability index must agree with BFS truth."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DataGraph
from repro.graph.transform import condensation
from repro.reachability.bfl import BloomFilterLabeling
from repro.reachability.transitive_closure import TransitiveClosureIndex


@st.composite
def random_graphs(draw, max_nodes: int = 18, max_extra_edges: int = 40):
    """Small random directed graphs (possibly cyclic, possibly disconnected)."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    num_edges = draw(st.integers(min_value=0, max_value=max_extra_edges))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    edges = set()
    for _ in range(num_edges):
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u != v:
            edges.add((u, v))
    return DataGraph(["X"] * num_nodes, sorted(edges), name=f"prop-{seed}")


def wide_cyclic_graph() -> DataGraph:
    """150 nodes, so a closure mask spans three machine words: a 64-node
    cycle feeding an acyclic chain with one cycle inside it and random
    forward shortcuts, plus four isolated nodes."""
    rng = random.Random(150)
    edges = {(v, (v + 1) % 64) for v in range(64)}
    edges |= {(v, v + 1) for v in range(63, 145)}
    edges.add((130, 100))
    edges |= {tuple(sorted(rng.sample(range(64, 146), 2))) for _ in range(40)}
    return DataGraph(["X"] * 150, sorted(edges), name="wide-cyclic")


@settings(max_examples=40, deadline=None)
@given(graph=random_graphs())
@example(graph=wide_cyclic_graph())
def test_transitive_closure_matches_bfs(graph):
    index = TransitiveClosureIndex(graph)
    closure_edges = []
    for u in graph.nodes():
        reached = [v for v in graph.nodes() if graph.reaches_bfs(u, v)]
        assert [v for v in graph.nodes() if index.reaches(u, v)] == reached
        assert index.reachable_set(u) == reached
        closure_edges.extend((u, v) for v in reached if v != u)
    assert index.closure_edges() == closure_edges
    assert index.num_closure_edges() == len(closure_edges)


@settings(max_examples=40, deadline=None)
@given(graph=random_graphs())
def test_bfl_matches_bfs(graph):
    index = BloomFilterLabeling(graph)
    for u in graph.nodes():
        for v in graph.nodes():
            assert index.reaches(u, v) == graph.reaches_bfs(u, v)


@settings(max_examples=40, deadline=None)
@given(graph=random_graphs())
def test_bfl_on_a_given_condensation_matches_bfs(graph):
    given_condensation = condensation(graph)
    index = BloomFilterLabeling(graph, condensation=given_condensation)
    assert index._cond is given_condensation
    for u in graph.nodes():
        for v in graph.nodes():
            assert index.reaches(u, v) == graph.reaches_bfs(u, v)


@settings(max_examples=40, deadline=None)
@given(graph=random_graphs())
def test_condensation_ranks_order_reachability(graph):
    """A node reaches another of a different component only upward in rank:
    the order BFL's passes and its rank cut rely on."""
    result = condensation(graph)
    component_of, rank = result.component_of, result.rank
    for u in graph.nodes():
        for v in graph.nodes():
            if component_of[u] != component_of[v] and graph.reaches_bfs(u, v):
                assert rank[component_of[u]] < rank[component_of[v]], (u, v)


@settings(max_examples=30, deadline=None)
@given(graph=random_graphs())
def test_strict_reachability_consistency(graph):
    """reaches_strict(u, u) holds exactly when u lies on a directed cycle."""
    index = BloomFilterLabeling(graph)
    for u in graph.nodes():
        on_cycle = any(graph.reaches_bfs(child, u) for child in graph.successors(u))
        assert index.reaches_strict(u, u) == on_cycle
