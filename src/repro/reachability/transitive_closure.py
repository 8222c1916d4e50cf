"""Materialised transitive closure.

Exact reachability with O(1) query time at the cost of an O(V * E) build and
O(V^2 / 64) memory.  This is the scheme the paper has to hand GraphflowDB in
the D-query comparison (Fig. 18): because GF cannot map edges to paths, the
paper materialises the transitive closure as an explicit edge set first —
whose construction time "grows very fast as the number of graph nodes
increases", the effect the Fig. 18(a) benchmark reproduces.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bitmap.intbitset import IntBitSet
from repro.graph.digraph import DataGraph
from repro.reachability.base import ReachabilityIndex


class TransitiveClosureIndex(ReachabilityIndex):
    """Stores, for every node, the bit set of all nodes it reaches."""

    def _build(self, graph: DataGraph) -> None:
        n = graph.num_nodes
        closure: List[IntBitSet] = [IntBitSet() for _ in range(n)]
        # One BFS per node: O(V * (V + E)) worst case, but a small constant,
        # and exact on cyclic graphs without a condensation.
        for source in range(n):
            reachable = closure[source]
            reachable.add(source)
            visited = [False] * n
            visited[source] = True
            frontier = [source]
            while frontier:
                next_frontier: List[int] = []
                for node in frontier:
                    for child in graph.successors(node):
                        if not visited[child]:
                            visited[child] = True
                            reachable.add(child)
                            next_frontier.append(child)
                frontier = next_frontier
        self._closure = closure

    def reaches(self, source: int, target: int) -> bool:
        return target in self._closure[source]

    def reachable_set(self, source: int) -> IntBitSet:
        """The full set of nodes reachable from ``source`` (including itself)."""
        return self._closure[source]

    def closure_edges(self) -> List[Tuple[int, int]]:
        """Materialise the closure as an edge list (u, v) with u != v.

        This is what the GF comparison feeds to the engine as an expanded
        data graph for descendant-edge workloads.
        """
        edges: List[Tuple[int, int]] = []
        for source, reachable in enumerate(self._closure):
            for target in reachable:
                if target != source:
                    edges.append((source, target))
        return edges

    def num_closure_edges(self) -> int:
        """Number of (u, v) pairs with u reaching v, u != v."""
        return sum(len(reachable) - 1 for reachable in self._closure)
