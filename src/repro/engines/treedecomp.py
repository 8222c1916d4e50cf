"""RapidMatch-like tree-decomposition engine.

RapidMatch filters candidates along a spanning tree of the query, builds a
relation per query edge restricted to the filtered candidates, and
enumerates with worst-case-optimal joins whose order is derived from the
query's dense substructure (nucleus decomposition).  The stand-in follows
the same three steps with a degeneracy-style density order:

1. candidate filtering: label filtering plus a bottom-up/top-down refinement
   along a spanning tree of the query;
2. edge-relation construction restricted to surviving candidates;
3. WCO-style backtracking enumeration, visiting the densest query nodes
   first (ties broken by candidate-set size).

Like every engine it matches a child edge on the data graph and a
descendant edge on the closure-expanded graph of the base class.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.explain.plan import PlanOperator, QueryPlan
from repro.matching.result import Budget
from repro.query.classify import spanning_tree
from repro.query.pattern import PatternQuery
from repro.engines.base import Engine


class TreeDecompEngine(Engine):
    """Tree-filtered WCO enumeration engine (RapidMatch stand-in)."""

    name = "RM"

    # ------------------------------------------------------------------ #
    # candidate filtering along a spanning tree
    # ------------------------------------------------------------------ #

    def _filter_candidates(self, query: PatternQuery, clock) -> Dict[int, Set[int]]:
        candidates = {
            node: set(self.graph.inverted_set(query.label(node))) for node in query.nodes()
        }
        tree, _ = spanning_tree(query)
        changed = True
        while changed:
            changed = False
            clock.check_time()
            for edge in tree:
                graph = self._relation(edge)
                tails = candidates[edge.source]
                heads = candidates[edge.target]
                allowed_tails = set()
                for head in heads:
                    allowed_tails.update(graph.predecessors(head))
                new_tails = tails & allowed_tails
                if len(new_tails) != len(tails):
                    candidates[edge.source] = new_tails
                    changed = True
                allowed_heads = set()
                for tail in candidates[edge.source]:
                    allowed_heads.update(graph.successors(tail))
                new_heads = heads & allowed_heads
                if len(new_heads) != len(heads):
                    candidates[edge.target] = new_heads
                    changed = True
        return candidates

    # ------------------------------------------------------------------ #
    # density-driven ordering (nucleus-decomposition surrogate)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _order(query: PatternQuery, candidates: Dict[int, Set[int]]) -> List[int]:
        remaining = set(query.nodes())
        start = max(
            remaining, key=lambda node: (query.degree(node), -len(candidates[node]), -node)
        )
        order = [start]
        remaining.discard(start)
        while remaining:
            frontier = [
                node for node in remaining if any(n in order for n in query.neighbors(node))
            ] or list(remaining)
            chosen = max(
                frontier,
                key=lambda node: (
                    sum(1 for n in query.neighbors(node) if n in order),
                    query.degree(node),
                    -len(candidates[node]),
                    -node,
                ),
            )
            order.append(chosen)
            remaining.discard(chosen)
        return order

    # ------------------------------------------------------------------ #
    # EXPLAIN
    # ------------------------------------------------------------------ #

    def _describe_plan(self, query: PatternQuery) -> QueryPlan:
        # The plan phase runs the tree filter (RM's matching phase) so the
        # per-step estimates are the filtered candidate-set sizes the real
        # execution would enumerate over — enumeration itself never runs.
        clock = self.budget.start_clock()
        candidates = self._filter_candidates(query, clock)
        order = self._order(query, candidates)
        tree, _ = spanning_tree(query)
        children = [
            PlanOperator(
                op="tree_filter",
                label=f"tree filter ({len(tree)} tree edges)",
                estimate=sum(
                    len(self.graph.inverted_list(query.label(node))) for node in query.nodes()
                ),
                details={"tree": [repr(edge) for edge in tree]},
            )
        ]
        children.extend(
            PlanOperator(
                op="wco_extend",
                label=f"wco extend u{node} [{query.label(node)}]",
                estimate=len(candidates[node]),
                details={"position": position, "node": node},
            )
            for position, node in enumerate(order)
        )
        root = PlanOperator(
            op="tree_wcoj",
            label=f"TreeFilter+WCOJoin [{self.name}]",
            children=children,
        )
        return QueryPlan(
            query=query.name or "query",
            engine=self.name,
            analyze=False,
            root=root,
            vertex_order=order,
        )

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def _iter_evaluate(
        self, query: PatternQuery, budget: Budget, profile=None
    ) -> Iterator[Tuple[int, ...]]:
        """Tree-filter, then enumerate lazily.

        The spanning-tree candidate refinement is a genuine barrier (it
        must converge before enumeration starts), but every occurrence
        after it streams out of the WCO backtracking generator as soon as
        its innermost extension completes.
        """
        clock = budget.start_clock()
        candidates = self._filter_candidates(query, clock)
        filtered_total = sum(len(values) for values in candidates.values())
        # EXPLAIN ANALYZE: per-position [candidates, intersections, rows].
        slots = [[0, 0, 0] for _ in query.nodes()] if profile is not None else None
        try:
            if all(candidates.values()):
                order = self._order(query, candidates)
                yield from self._wco_extend(query, order, candidates, clock, slots)
        finally:
            if profile is not None:
                profile["operators"] = [{"rows": filtered_total}] + [
                    {"rows": rows, "candidates": produced, "intersections": intersections}
                    for produced, intersections, rows in slots
                ]
