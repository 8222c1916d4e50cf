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

from repro.graph.digraph import DataGraph
from repro.reachability.base import ReachabilityIndex


def _members(mask: int) -> List[int]:
    """The positions of the set bits of ``mask``, ascending."""
    return [node for node, bit in enumerate(reversed(bin(mask))) if bit == "1"]


class TransitiveClosureIndex(ReachabilityIndex):
    """Stores, for every node, the bit mask of all nodes it reaches: one
    Python ``int`` per node, bit ``v`` set when ``v`` is reachable."""

    def _build(self, graph: DataGraph) -> None:
        n = graph.num_nodes
        closure: List[int] = [0] * n
        # One BFS per node: O(V * (V + E)) worst case, but a small constant,
        # and exact on cyclic graphs without a condensation.
        for source in range(n):
            mask = 1 << source
            visited = [False] * n
            visited[source] = True
            frontier = [source]
            while frontier:
                next_frontier: List[int] = []
                for node in frontier:
                    for child in graph.successors(node):
                        if not visited[child]:
                            visited[child] = True
                            mask |= 1 << child
                            next_frontier.append(child)
                frontier = next_frontier
            closure[source] = mask
        self._closure = closure

    def reaches(self, source: int, target: int) -> bool:
        return (self._closure[source] >> target) & 1 == 1

    def reachable_set(self, source: int) -> List[int]:
        """The nodes reachable from ``source`` (including itself), ascending."""
        return _members(self._closure[source])

    def closure_edges(self) -> List[Tuple[int, int]]:
        """Materialise the closure as an edge list (u, v) with u != v.

        This is what the GF comparison feeds to the engine as an expanded
        data graph for descendant-edge workloads.
        """
        return [
            (source, target)
            for source, mask in enumerate(self._closure)
            for target in _members(mask)
            if target != source
        ]

    def num_closure_edges(self) -> int:
        """Number of (u, v) pairs with u reaching v, u != v."""
        return sum(bin(mask).count("1") - 1 for mask in self._closure)
