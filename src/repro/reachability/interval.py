"""DFS interval labels over the SCC condensation.

Every condensation node gets an interval ``(begin, end)`` from a depth-first
traversal.  The interval gives a *negative cut*: if ``end(u) < begin(v)``
then ``u`` cannot reach ``v`` (used by BuildRIG's early-expansion-termination
optimisation, §4.5).  It also gives a *positive* answer for tree descendants:
if ``begin(u) <= begin(v) <= end(u)`` along the DFS tree the answer may still
require confirmation for cross edges, so the index falls back to a pruned DFS
memoised per source.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.graph.digraph import DataGraph
from repro.graph.transform import Condensation, condensation
from repro.reachability.base import ReachabilityIndex


class IntervalIndex(ReachabilityIndex):
    """Reachability via DFS intervals on the condensation, with DFS fallback."""

    def _build(self, graph: DataGraph) -> None:
        self._cond: Condensation = condensation(graph)
        dag = self._cond.dag
        n = dag.num_nodes
        begin = [0] * n
        end = [0] * n
        visited = [False] * n
        clock = 0

        # Iterative DFS over the condensation, roots in topological-ish order
        # (nodes with no incoming dag edges first so intervals nest nicely).
        roots = [node for node in dag.nodes() if dag.in_degree(node) == 0]
        roots.extend(node for node in dag.nodes() if dag.in_degree(node) > 0)
        for root in roots:
            if visited[root]:
                continue
            stack: List[Tuple[int, int]] = [(root, 0)]
            visited[root] = True
            clock += 1
            begin[root] = clock
            while stack:
                node, child_index = stack[-1]
                children = dag.successors(node)
                advanced = False
                while child_index < len(children):
                    child = children[child_index]
                    child_index += 1
                    if not visited[child]:
                        stack[-1] = (node, child_index)
                        visited[child] = True
                        clock += 1
                        begin[child] = clock
                        stack.append((child, 0))
                        advanced = True
                        break
                else:
                    stack[-1] = (node, child_index)
                if advanced:
                    continue
                clock += 1
                end[node] = clock
                stack.pop()

        self._begin = begin
        self._end = end
        # Memoised positive-reachability cache per (source component).
        self._reach_cache: Dict[int, set] = {}

    # ------------------------------------------------------------------ #
    # interval access (used by BuildRIG early termination)
    # ------------------------------------------------------------------ #

    def interval(self, node: int) -> Tuple[int, int]:
        """Return the ``(begin, end)`` interval of the node's component."""
        component = self._cond.component_of[node]
        return (self._begin[component], self._end[component])

    def definitely_not_reaches(self, source: int, target: int) -> bool:
        """Negative cut: True means ``source`` certainly does not reach ``target``."""
        cs = self._cond.component_of[source]
        ct = self._cond.component_of[target]
        if cs == ct:
            return False
        return self._end[cs] < self._begin[ct]

    # ------------------------------------------------------------------ #
    # reachability
    # ------------------------------------------------------------------ #

    def reaches(self, source: int, target: int) -> bool:
        if source == target:
            return True
        cs = self._cond.component_of[source]
        ct = self._cond.component_of[target]
        if cs == ct:
            return True
        # Negative cut from the interval labels.
        if self._end[cs] < self._begin[ct]:
            return False
        return ct in self._component_reachable(cs)

    def _component_reachable(self, component: int) -> set:
        cached = self._reach_cache.get(component)
        if cached is not None:
            return cached
        dag = self._cond.dag
        reachable = {component}
        frontier = [component]
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                for child in dag.successors(node):
                    if child not in reachable:
                        reachable.add(child)
                        next_frontier.append(child)
            frontier = next_frontier
        self._reach_cache[component] = reachable
        return reachable
