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
        self._last_additions: List[Tuple[int, int]] = []

    def copy(self) -> "TransitiveClosureIndex":
        """Aliasing-safe copy (see :meth:`ReachabilityIndex.copy`).

        ``apply_delta`` mutates the row list in place (``append`` /
        per-row replacement), so the list itself must be copied; the
        :class:`IntBitSet` rows are replaced rather than mutated by the
        patch path and can be shared.
        """
        clone = super().copy()
        clone._closure = list(self._closure)
        clone._last_additions = []
        return clone

    def apply_delta(self, graph: DataGraph, delta) -> bool:
        """Patch the closure in place for an insertion-only delta.

        The classic incremental-closure step: inserting edge ``(u, v)``
        extends the reachable set of every ancestor of ``u`` (``u``
        included) by everything ``v`` reaches.  Ancestors are found by one
        O(V) membership scan of the closure column for ``u`` — exact,
        because the closure is kept exact after every processed edge, and
        correct on cycle-closing inserts (every node on the new cycle is an
        ancestor of ``u`` and absorbs ``v``'s row).  Each row extension is
        one big-int OR, so a small delta costs a few thousand word
        operations instead of the O(V * (V + E)) rebuild.

        Deltas with edge removals return False (rebuild); relabels are
        irrelevant to reachability and allowed.
        """
        if delta.has_removals:
            return False
        closure = self._closure
        if delta.base_num_nodes != len(closure):
            return False  # delta written against a different graph state
        additions: List[Tuple[int, int]] = []
        for node_id, _label in delta.added_nodes:
            closure.append(IntBitSet((node_id,)))
        n = len(closure)
        for source, target in delta.added_edges:
            if target in closure[source]:
                continue
            target_mask = closure[target].mask
            for node in range(n):
                row = closure[node]
                if source in row:
                    merged = row.mask | target_mask
                    if merged != row.mask:
                        additions.append((node, merged & ~row.mask))
                        closure[node] = IntBitSet.from_mask(merged)
        self._graph = graph
        self._last_additions = additions
        return True

    def last_patch_additions(self) -> List[Tuple[int, int]]:
        """Reachable pairs added by the most recent successful patch.

        Returned as ``(source, added_mask)`` rows: ``added_mask`` is the
        bit set of targets that became reachable from ``source`` during the
        last :meth:`apply_delta`.  This is what lets the closure-expanded
        data graph be patched with exactly the new pairs instead of being
        rebuilt from the full closure (empty until a patch succeeds).
        """
        return list(getattr(self, "_last_additions", ()))

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
