"""ISO: subgraph-isomorphism backtracking baseline.

A representative of the highly optimised isomorphism algorithms the paper
compares against on child-only queries (§7.2): label + degree filtering of
candidates, a candidate-size-driven matching order, adjacency consistency
checks against all previously matched neighbours, and the injectivity
(one-to-one) constraint.  Descendant edges are also supported (through the
reachability index) so the same implementation can run on hybrid queries,
although the paper's ISO subject only handles child edges.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.graph.digraph import DataGraph
from repro.matching.result import Budget
from repro.matching.stream import Evaluator
from repro.query.pattern import PatternQuery
from repro.simulation.context import MatchContext


class ISOMatcher(Evaluator):
    """Backtracking subgraph-isomorphism matcher."""

    name = "ISO"
    #: Always one-to-one: ``injective`` is accepted, never switchable.
    options = ("injective",)

    def __init__(
        self,
        graph: DataGraph,
        context: Optional[MatchContext] = None,
        budget: Optional[Budget] = None,
    ) -> None:
        self.graph = graph
        self.context = context or MatchContext(graph)
        self.budget = budget or Budget()

    # ------------------------------------------------------------------ #
    # candidate filtering
    # ------------------------------------------------------------------ #

    def _candidates(self, query: PatternQuery) -> Dict[int, List[int]]:
        """Label + degree filtering (LDF), the standard ISO pre-filter."""
        graph = self.graph
        result: Dict[int, List[int]] = {}
        for node in query.nodes():
            out_needed = len(query.children(node))
            in_needed = len(query.parents(node))
            child_out_needed = sum(
                1 for child in query.children(node) if query.edge(node, child).is_child
            )
            child_in_needed = sum(
                1 for parent in query.parents(node) if query.edge(parent, node).is_child
            )
            filtered = [
                value
                for value in graph.inverted_list(query.label(node))
                if graph.out_degree(value) >= child_out_needed
                and graph.in_degree(value) >= child_in_needed
                and (graph.out_degree(value) > 0 or out_needed == 0)
                and (graph.in_degree(value) > 0 or in_needed == 0)
            ]
            result[node] = filtered
        return result

    @staticmethod
    def _order(query: PatternQuery, candidates: Dict[int, List[int]]) -> List[int]:
        """Candidate-size-driven connected matching order."""
        remaining = set(query.nodes())
        start = min(remaining, key=lambda node: (len(candidates[node]), -query.degree(node)))
        order = [start]
        remaining.discard(start)
        while remaining:
            frontier = [
                node for node in remaining if any(n in order for n in query.neighbors(node))
            ] or list(remaining)
            chosen = min(frontier, key=lambda node: (len(candidates[node]), -query.degree(node)))
            order.append(chosen)
            remaining.discard(chosen)
        return order

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def iter_matches(
        self,
        query: PatternQuery,
        budget: Optional[Budget] = None,
        info: Optional[Dict[str, object]] = None,
        injective: bool = True,
    ) -> Iterator[Tuple[int, ...]]:
        """Lazily enumerate the isomorphic (injective) occurrences of ``query``.

        The recursive search yields each completed injective assignment the
        moment the last query node is placed, so consumers see the first
        occurrence at time-to-first-solution rather than after the whole
        search space is exhausted.  Budget exceptions propagate;
        ``match_stream`` converts them into terminal statuses.

        ``info`` follows the mutable-mapping contract of
        :class:`~repro.matching.stream.MatchStream`.
        """
        budget = budget or self.budget
        clock = budget.start_clock()
        start = time.perf_counter()
        context = self.context
        candidates = self._candidates(query)
        order = self._order(query, candidates)
        if info is not None:
            info["matching_seconds"] = time.perf_counter() - start

        n = query.num_nodes
        assignment: List[Optional[int]] = [None] * n
        used: Set[int] = set()

        def consistent(node: int, value: int) -> bool:
            for neighbor in query.neighbors(node):
                other_value = assignment[neighbor]
                if other_value is None:
                    continue
                if query.has_edge(node, neighbor):
                    edge = query.edge(node, neighbor)
                    if not context.edge_match(edge, value, other_value):
                        return False
                if query.has_edge(neighbor, node):
                    edge = query.edge(neighbor, node)
                    if not context.edge_match(edge, other_value, value):
                        return False
            return True

        def recurse(position: int) -> Iterator[Tuple[int, ...]]:
            clock.check_time()
            if position == n:
                yield tuple(assignment)
                return
            node = order[position]
            for value in candidates[node]:
                if value in used:
                    continue
                if not consistent(node, value):
                    continue
                assignment[node] = value
                used.add(value)
                yield from recurse(position + 1)
                used.discard(value)
                assignment[node] = None

        count = 0
        for occurrence in recurse(0):
            yield occurrence
            count += 1
            if clock.check_matches(count):
                return
