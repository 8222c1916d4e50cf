"""Structural classification of pattern queries.

The paper groups its designed query templates into four classes (§7.1):
*acyclic* (the undirected version is a forest/tree), *cyclic* (contains an
undirected cycle), *clique* (the undirected version is complete) and *combo*
(more than two undirected cycles).  This module implements that
classification plus dag tests / topological orders over the *directed*
query, which the simulation algorithms need.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional, Tuple

from repro.query.pattern import PatternQuery


class QueryClass(Enum):
    """Undirected structural class of a pattern query (paper §7.1)."""

    ACYCLIC = "acyclic"
    CYCLIC = "cyclic"
    CLIQUE = "clique"
    COMBO = "combo"


def _undirected_cycle_count(query: PatternQuery) -> int:
    """Number of independent undirected cycles (circuit rank)."""
    undirected = query.undirected_edge_pairs()
    # circuit rank = |E| - |V| + number of connected components
    components = 1 if query.is_connected() else _component_count(query)
    return len(undirected) - query.num_nodes + components


def _component_count(query: PatternQuery) -> int:
    seen = set()
    count = 0
    for start in query.nodes():
        if start in seen:
            continue
        count += 1
        frontier = [start]
        seen.add(start)
        while frontier:
            node = frontier.pop()
            for neighbor in query.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
    return count


def is_undirected_clique(query: PatternQuery) -> bool:
    """True if every pair of query nodes is connected by some edge."""
    n = query.num_nodes
    if n < 2:
        return True
    expected = n * (n - 1) // 2
    return len(query.undirected_edge_pairs()) == expected


def classify_query(query: PatternQuery) -> QueryClass:
    """Classify ``query`` as acyclic / cyclic / clique / combo.

    Clique takes precedence over combo (a 4-clique has 3 independent cycles
    but the paper lists clique templates separately); combo means more than
    two independent undirected cycles; a single or double cycle is cyclic.
    """
    cycles = _undirected_cycle_count(query)
    if cycles <= 0:
        return QueryClass.ACYCLIC
    if is_undirected_clique(query):
        return QueryClass.CLIQUE
    if cycles > 2:
        return QueryClass.COMBO
    return QueryClass.CYCLIC


# ---------------------------------------------------------------------- #
# directed structure: dag test, topological order, dag + back-edge split
# ---------------------------------------------------------------------- #


def topological_order(query: PatternQuery) -> Optional[List[int]]:
    """Topological order of the directed query, or None if it has a cycle."""
    in_degree = [len(query.parents(node)) for node in query.nodes()]
    order = [node for node in query.nodes() if in_degree[node] == 0]
    head = 0
    while head < len(order):
        node = order[head]
        head += 1
        for child in query.children(node):
            in_degree[child] -= 1
            if in_degree[child] == 0:
                order.append(child)
    if len(order) != query.num_nodes:
        return None
    return order


def is_dag(query: PatternQuery) -> bool:
    """True if the directed query has no directed cycle."""
    return topological_order(query) is not None


def dag_decomposition(query: PatternQuery) -> Tuple[List, List]:
    """Split the query's edges into a dag edge set and a back-edge set.

    This is the ``Qdag`` / ``Ebac`` decomposition used by FBSim (Algorithm
    3): a DFS over the directed query marks edges closing a directed cycle
    as back edges; removing them leaves a dag.  Returns
    ``(dag_edges, back_edges)`` as lists of :class:`PatternEdge`.
    """
    color = {node: 0 for node in query.nodes()}  # 0=white, 1=gray, 2=black
    back_edges = []
    dag_edges = []

    for root in query.nodes():
        if color[root] != 0:
            continue
        stack = [(root, iter(query.children(root)))]
        color[root] = 1
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                edge = query.edge(node, child)
                if color[child] == 1:
                    back_edges.append(edge)
                else:
                    dag_edges.append(edge)
                    if color[child] == 0:
                        color[child] = 1
                        stack.append((child, iter(query.children(child))))
                        advanced = True
                        break
            if not advanced:
                color[node] = 2
                stack.pop()
    return dag_edges, back_edges
