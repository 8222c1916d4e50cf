"""Synthetic data-graph generators.

The paper evaluates on nine real SNAP graphs.  Those graphs are not
redistributable inside this repository, so the benchmark harness uses the
generators below to produce graphs with the *shape* that drives the paper's
results: label-alphabet size (selectivity of inverted lists), degree
distribution (uniform vs power-law vs dense), and reachability density
(layered/dag-like vs cyclic).  All generators are deterministic given a seed.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.exceptions import GraphError
from repro.graph.digraph import DataGraph


def _make_labels(num_nodes: int, num_labels: int, rng: random.Random) -> List[str]:
    """Draw a label for every node uniformly from ``L0 .. L{num_labels-1}``."""
    if num_labels <= 0:
        raise GraphError("num_labels must be positive")
    alphabet = [f"L{i}" for i in range(num_labels)]
    return [rng.choice(alphabet) for _ in range(num_nodes)]


def _check_sizes(num_nodes: int, num_edges: int) -> None:
    if num_nodes <= 0:
        raise GraphError("num_nodes must be positive")
    if num_edges < 0:
        raise GraphError("num_edges must be non-negative")


def random_labeled_graph(
    num_nodes: int,
    num_edges: int,
    num_labels: int,
    seed: int = 0,
    name: str = "random",
) -> DataGraph:
    """Uniform-random directed graph (Erdős–Rényi G(n, m) style).

    Edges are drawn uniformly without replacement; self-loops are excluded.
    """
    _check_sizes(num_nodes, num_edges)
    rng = random.Random(seed)
    labels = _make_labels(num_nodes, num_labels, rng)
    edges = set()
    max_possible = num_nodes * (num_nodes - 1)
    target = min(num_edges, max_possible)
    while len(edges) < target:
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u != v:
            edges.add((u, v))
    return DataGraph(labels, sorted(edges), name=name)


def random_dag(
    num_nodes: int,
    num_edges: int,
    num_labels: int,
    seed: int = 0,
    name: str = "dag",
) -> DataGraph:
    """Random directed *acyclic* graph.

    Edges always point from a smaller to a larger node id under a random
    permutation, which guarantees acyclicity while keeping the degree
    distribution roughly uniform.
    """
    _check_sizes(num_nodes, num_edges)
    rng = random.Random(seed)
    labels = _make_labels(num_nodes, num_labels, rng)
    order = list(range(num_nodes))
    rng.shuffle(order)
    rank = {node: index for index, node in enumerate(order)}
    edges = set()
    max_possible = num_nodes * (num_nodes - 1) // 2
    target = min(num_edges, max_possible)
    attempts = 0
    while len(edges) < target and attempts < 50 * target + 100:
        attempts += 1
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u == v:
            continue
        if rank[u] > rank[v]:
            u, v = v, u
        edges.add((u, v))
    return DataGraph(labels, sorted(edges), name=name)


def layered_graph(
    num_layers: int,
    nodes_per_layer: int,
    edges_per_node: int,
    num_labels: int,
    skip_probability: float = 0.1,
    seed: int = 0,
    name: str = "layered",
) -> DataGraph:
    """Layered dag resembling citation / dependency networks.

    Nodes are arranged in layers; each node points to ``edges_per_node``
    random nodes in the next layer and, with ``skip_probability``, to a node
    two layers ahead.  This produces long reachability chains, the regime in
    which reachability (descendant) query edges have many matches.
    """
    if num_layers <= 0 or nodes_per_layer <= 0:
        raise GraphError("num_layers and nodes_per_layer must be positive")
    rng = random.Random(seed)
    num_nodes = num_layers * nodes_per_layer
    labels = _make_labels(num_nodes, num_labels, rng)

    def layer_nodes(layer: int) -> range:
        return range(layer * nodes_per_layer, (layer + 1) * nodes_per_layer)

    edges = set()
    for layer in range(num_layers - 1):
        next_layer = list(layer_nodes(layer + 1))
        skip_layer = list(layer_nodes(layer + 2)) if layer + 2 < num_layers else []
        for node in layer_nodes(layer):
            for _ in range(edges_per_node):
                edges.add((node, rng.choice(next_layer)))
            if skip_layer and rng.random() < skip_probability:
                edges.add((node, rng.choice(skip_layer)))
    return DataGraph(labels, sorted(edges), name=name)


def power_law_graph(
    num_nodes: int,
    num_edges: int,
    num_labels: int,
    exponent: float = 1.8,
    seed: int = 0,
    name: str = "powerlaw",
) -> DataGraph:
    """Directed graph with a power-law-ish degree distribution.

    Target endpoints are drawn with probability proportional to
    ``(rank + 1) ** -exponent`` (a Zipf-like attachment), which concentrates
    in-degree on a few hub nodes — the shape of the web / social graphs used
    in the paper (berkstan, google, epinions).
    """
    _check_sizes(num_nodes, num_edges)
    rng = random.Random(seed)
    labels = _make_labels(num_nodes, num_labels, rng)
    weights = [(rank + 1) ** (-exponent) for rank in range(num_nodes)]
    population = list(range(num_nodes))
    edges = set()
    attempts = 0
    while len(edges) < num_edges and attempts < 50 * num_edges + 100:
        attempts += 1
        u = rng.randrange(num_nodes)
        v = rng.choices(population, weights=weights, k=1)[0]
        if u != v:
            edges.add((u, v))
    return DataGraph(labels, sorted(edges), name=name)


def clustered_graph(
    num_clusters: int,
    nodes_per_cluster: int,
    intra_edges_per_node: int,
    inter_edges_per_cluster: int,
    num_labels: int,
    seed: int = 0,
    name: str = "clustered",
) -> DataGraph:
    """Dense clusters with sparse inter-cluster edges.

    This resembles the dense biological graphs (human, yeast) where most
    nodes sit in highly connected neighbourhoods, which is the challenging
    regime for isomorphism-style pruning.
    """
    if num_clusters <= 0 or nodes_per_cluster <= 0:
        raise GraphError("num_clusters and nodes_per_cluster must be positive")
    rng = random.Random(seed)
    num_nodes = num_clusters * nodes_per_cluster
    labels = _make_labels(num_nodes, num_labels, rng)

    def cluster_nodes(cluster: int) -> range:
        return range(cluster * nodes_per_cluster, (cluster + 1) * nodes_per_cluster)

    edges = set()
    for cluster in range(num_clusters):
        members = list(cluster_nodes(cluster))
        for node in members:
            for _ in range(intra_edges_per_node):
                target = rng.choice(members)
                if target != node:
                    edges.add((node, target))
        for _ in range(inter_edges_per_cluster):
            other = rng.randrange(num_clusters)
            if other == cluster:
                continue
            source = rng.choice(members)
            target = rng.choice(list(cluster_nodes(other)))
            edges.add((source, target))
    return DataGraph(labels, sorted(edges), name=name)


def with_label_count(
    graph: DataGraph, num_labels: int, seed: int = 0, name: Optional[str] = None
) -> DataGraph:
    """Re-draw node labels from a smaller/larger alphabet, keeping the edges.

    This implements the "varying data labels" experiment (Fig. 10): the graph
    structure is fixed while the label-alphabet size changes, which changes
    inverted-list cardinalities.
    """
    rng = random.Random(seed)
    labels = _make_labels(graph.num_nodes, num_labels, rng)
    return DataGraph(labels, graph.edges(), name=name or f"{graph.name}-L{num_labels}")
