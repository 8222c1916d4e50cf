"""Structural transforms and statistics over data graphs.

Includes the strongly-connected-component condensation (the one
reachability structure: GM's set-at-a-time expansions and the BFL per-pair
index both run on it),
induced-subgraph extraction (used by the size-scalability experiment of
Fig. 11), label re-mapping, graph reversal and summary statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, NamedTuple, Tuple

from repro.exceptions import GraphError
from repro.graph.digraph import DataGraph


# ---------------------------------------------------------------------- #
# strongly connected components (iterative Tarjan)
# ---------------------------------------------------------------------- #


def strongly_connected_components(graph: DataGraph) -> List[List[int]]:
    """Return the strongly connected components of ``graph``.

    Uses an iterative Tarjan traversal so that very deep graphs do not hit
    Python's recursion limit.  Components are returned in reverse topological
    order of the condensation (standard Tarjan output order).
    """
    n = graph.num_nodes
    index_counter = 0
    indices = [-1] * n
    lowlinks = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []

    for root in range(n):
        if indices[root] != -1:
            continue
        # Each work item is (node, iterator over successors).
        work = [(root, iter(graph.successors(root)))]
        indices[root] = lowlinks[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, successors = work[-1]
            advanced = False
            for child in successors:
                if indices[child] == -1:
                    indices[child] = lowlinks[child] = index_counter
                    index_counter += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, iter(graph.successors(child))))
                    advanced = True
                    break
                if on_stack[child]:
                    lowlinks[node] = min(lowlinks[node], indices[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


class Condensation(NamedTuple):
    """The SCC condensation of a data graph as flat per-component arrays.

    Component ids are dense but not all live: a fold appends an id per new
    node and empties every id but one of a contracted cycle.  An emptied id
    has no members, no neighbours and is never reached.
    """

    #: Data node -> component id.
    component_of: List[int]
    #: Component -> its data nodes.
    members: List[Tuple[int, ...]]
    #: Component -> child / parent components in the condensation dag.
    children: List[Tuple[int, ...]]
    parents: List[Tuple[int, ...]]
    #: Component -> does a member reach itself by a path of length >= 1?
    cyclic: List[bool]
    #: Component -> a rank that increases along every dag edge.  Distinct
    #: among live components, and sparse after a fold.
    rank: List[int]


def condensation(graph: DataGraph) -> Condensation:
    """The condensation of ``graph``, by Tarjan."""
    components = strongly_connected_components(graph)
    component_of = [0] * graph.num_nodes
    for component, nodes in enumerate(components):
        for node in nodes:
            component_of[node] = component
    successors = graph.successors
    children: List[Tuple[int, ...]] = []
    cyclic: List[bool] = []
    for component, nodes in enumerate(components):
        below = {component_of[child] for node in nodes for child in successors(node)}
        # A singleton's own id is among its children only by a self-loop.
        cyclic.append(len(nodes) > 1 or component in below)
        below.discard(component)
        children.append(tuple(below))
    above: List[List[int]] = [[] for _ in components]
    for component, below in enumerate(children):
        for child in below:
            above[child].append(component)
    # Tarjan emits a component after every component below it.
    rank = list(range(len(components) - 1, -1, -1))
    return Condensation(
        component_of, list(map(tuple, components)), children, list(map(tuple, above)), cyclic, rank
    )


# ---------------------------------------------------------------------- #
# subgraphs and relabelling
# ---------------------------------------------------------------------- #


def induced_subgraph(graph: DataGraph, nodes: Iterable[int], name: str | None = None) -> DataGraph:
    """Return the subgraph induced by ``nodes`` with ids compacted to 0..k-1."""
    keep = sorted(set(nodes))
    for node in keep:
        if not (0 <= node < graph.num_nodes):
            raise GraphError(f"node {node} outside graph")
    remap = {node: index for index, node in enumerate(keep)}
    labels = [graph.label(node) for node in keep]
    edges = [
        (remap[source], remap[target])
        for source in keep
        for target in graph.successors(source)
        if target in remap
    ]
    return DataGraph(labels, edges, name=name or f"{graph.name}-sub{len(keep)}")


def node_prefix_subgraph(graph: DataGraph, num_nodes: int, name: str | None = None) -> DataGraph:
    """Induced subgraph over the first ``num_nodes`` node ids.

    This is how the paper builds "increasingly larger randomly chosen subsets
    of the DBLP data" for the size-scalability experiment (Fig. 11): node ids
    are already randomised by the generators, so a prefix is a random subset.
    """
    num_nodes = min(num_nodes, graph.num_nodes)
    return induced_subgraph(graph, range(num_nodes), name=name or f"{graph.name}-{num_nodes}")


def relabel_nodes(graph: DataGraph, mapping: Callable[[int, str], str], name: str | None = None) -> DataGraph:
    """Return a copy of ``graph`` with labels rewritten by ``mapping(node, label)``."""
    labels = [mapping(node, graph.label(node)) for node in graph.nodes()]
    return DataGraph(labels, graph.edges(), name=name or f"{graph.name}-relabel")


def reverse_graph(graph: DataGraph, name: str | None = None) -> DataGraph:
    """Return the graph with every edge reversed."""
    edges = [(target, source) for source, target in graph.edges()]
    return DataGraph(graph.labels, edges, name=name or f"{graph.name}-rev")


def undirected_double(graph: DataGraph, name: str | None = None) -> DataGraph:
    """Store each edge in both directions.

    The paper does exactly this to compare against RapidMatch, which treats
    graphs as undirected: "we store each edge of data graphs in both
    directions and use them as input to GM" (§7.5).
    """
    edges = set()
    for source, target in graph.edges():
        edges.add((source, target))
        edges.add((target, source))
    return DataGraph(graph.labels, sorted(edges), name=name or f"{graph.name}-undir")


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class GraphStatistics:
    """Summary statistics of a data graph (Table 2 of the paper)."""

    name: str
    num_nodes: int
    num_edges: int
    num_labels: int
    avg_degree: float
    max_out_degree: int
    max_in_degree: int
    max_inverted_list: int

    def as_row(self) -> Tuple[str, int, int, int, float]:
        """Return the (name, |V|, |E|, |L|, d_avg) row used by Table 2."""
        return (self.name, self.num_nodes, self.num_edges, self.num_labels, self.avg_degree)


def graph_statistics(graph: DataGraph) -> GraphStatistics:
    """Compute :class:`GraphStatistics` for ``graph``."""
    n = graph.num_nodes
    max_out = max((graph.out_degree(v) for v in graph.nodes()), default=0)
    max_in = max((graph.in_degree(v) for v in graph.nodes()), default=0)
    avg_degree = (graph.num_edges / n) if n else 0.0
    return GraphStatistics(
        name=graph.name,
        num_nodes=n,
        num_edges=graph.num_edges,
        num_labels=graph.num_labels(),
        avg_degree=round(avg_degree, 2),
        max_out_degree=max_out,
        max_in_degree=max_in,
        max_inverted_list=graph.max_inverted_list_size(),
    )
