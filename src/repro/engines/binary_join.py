"""Neo4j-like binary-join engine.

Evaluates a pattern query as a chain of expand-and-filter steps over partial
bindings, the way Cypher's default runtime plans graph patterns: pick an
anchor node scan, then repeatedly expand along one pattern edge at a time,
materialising every intermediate binding table.  There is no worst-case
optimal join and no candidate pre-filtering, which is why the paper finds
Neo4j "not optimized for complex graph pattern queries" — intermediate
binding tables explode on cyclic and clique patterns.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.explain.plan import PlanOperator, QueryPlan
from repro.graph.digraph import DataGraph
from repro.matching.result import Budget
from repro.query.pattern import PatternEdge, PatternQuery
from repro.engines.base import Engine


class BinaryJoinEngine(Engine):
    """Edge-at-a-time expansion engine (Neo4j stand-in)."""

    name = "Neo4j"

    def _precompute(self, graph: DataGraph) -> None:
        # Plans only depend on the query structure, so repeated queries on a
        # long-lived engine skip re-planning.
        self._plan_cache: Dict[PatternQuery, Tuple[int, List[PatternEdge]]] = {}

    def _plan(self, query: PatternQuery) -> Tuple[int, List[PatternEdge]]:
        """Pick an anchor query node and a connected edge expansion order."""
        cached = self._plan_cache.get(query)
        if cached is not None:
            return cached
        graph = self.graph
        anchor = min(
            query.nodes(), key=lambda node: len(graph.inverted_list(query.label(node)))
        )
        remaining = list(query.edges())
        bound = {anchor}
        plan: List[PatternEdge] = []
        while remaining:
            connected = [edge for edge in remaining if bound & set(edge.endpoints())]
            pool = connected or remaining
            # Prefer edges that close a cycle (both endpoints bound) — they
            # are filters, not expansions.
            closing = [edge for edge in pool if set(edge.endpoints()) <= bound]
            chosen = closing[0] if closing else pool[0]
            plan.append(chosen)
            bound.update(chosen.endpoints())
            remaining.remove(chosen)
        self._plan_cache[query] = (anchor, plan)
        return anchor, plan

    def _describe_plan(self, query: PatternQuery) -> QueryPlan:
        graph = self.graph
        anchor, plan = self._plan(query)
        children = [
            PlanOperator(
                op="scan",
                label=f"scan u{anchor} [{query.label(anchor)}]",
                estimate=len(graph.inverted_list(query.label(anchor))),
                details={"node": anchor},
            )
        ]
        bound = {anchor}
        vertex_order = [anchor]
        for edge in plan:
            source, target = edge.endpoints()
            if source in bound and target in bound:
                children.append(
                    PlanOperator(
                        op="filter",
                        label=f"filter {edge!r}",
                        details={"edge": repr(edge)},
                    )
                )
            elif source in bound:
                children.append(
                    PlanOperator(
                        op="expand",
                        label=f"expand {edge!r} (forward)",
                        estimate=len(graph.inverted_list(query.label(target))),
                        details={"edge": repr(edge), "direction": "forward"},
                    )
                )
                vertex_order.append(target)
            else:
                children.append(
                    PlanOperator(
                        op="expand",
                        label=f"expand {edge!r} (backward)",
                        estimate=len(graph.inverted_list(query.label(source))),
                        details={"edge": repr(edge), "direction": "backward"},
                    )
                )
                vertex_order.append(source)
            bound.update(edge.endpoints())
        root = PlanOperator(
            op="project_dedup",
            label=f"Project+Dedup [{self.name}]",
            children=children,
        )
        return QueryPlan(
            query=query.name or "query",
            engine=self.name,
            analyze=False,
            root=root,
            vertex_order=vertex_order,
        )

    def _iter_evaluate(
        self, query: PatternQuery, budget: Budget, profile=None
    ) -> Iterator[Tuple[int, ...]]:
        """Expand-and-filter pipeline with a streaming projection tail.

        The algorithm is inherently blocking — every expansion step
        materialises its whole intermediate binding table (which is exactly
        the weakness the paper measures) — so true per-match laziness is
        not available.  The final projection/dedup pass *is* streamed, and
        because it runs inside a generator, nothing at all is computed
        until the first occurrence is requested.
        """
        clock = budget.start_clock()
        graph = self.graph
        anchor, plan = self._plan(query)
        # EXPLAIN ANALYZE: one actual-counter dict per pipeline operator
        # (scan + one per plan edge), aligned with _describe_plan's children.
        operators: Optional[List[Dict[str, int]]] = [] if profile is not None else None

        bound: List[int] = [anchor]
        bindings: List[Tuple[int, ...]] = [
            (node,) for node in graph.inverted_list(query.label(anchor))
        ]
        clock.check_intermediate(len(bindings))
        if operators is not None:
            operators.append({"rows": len(bindings)})

        for edge in plan:
            clock.check_time()
            relation = self._relation(edge)
            source, target = edge.endpoints()
            source_bound = source in bound
            target_bound = target in bound
            next_bindings: List[Tuple[int, ...]] = []
            if source_bound and target_bound:
                source_position = bound.index(source)
                target_position = bound.index(target)
                for row in bindings:
                    clock.check_time()
                    if relation.has_edge(row[source_position], row[target_position]):
                        next_bindings.append(row)
                        clock.check_intermediate(len(next_bindings))
            elif source_bound:
                source_position = bound.index(source)
                target_label = query.label(target)
                bound.append(target)
                for row in bindings:
                    clock.check_time()
                    for child in relation.successors(row[source_position]):
                        if graph.label(child) == target_label:
                            next_bindings.append(row + (child,))
                            clock.check_intermediate(len(next_bindings))
            else:
                target_position = bound.index(target)
                source_label = query.label(source)
                bound.append(source)
                for row in bindings:
                    clock.check_time()
                    for parent in relation.predecessors(row[target_position]):
                        if graph.label(parent) == source_label:
                            next_bindings.append(row + (parent,))
                            clock.check_intermediate(len(next_bindings))
            if operators is not None:
                operators.append(
                    {"rows": len(next_bindings), "input_rows": len(bindings)}
                )
            bindings = next_bindings
            if not bindings:
                break

        try:
            seen = set()
            position_of: Dict[int, int] = {node: index for index, node in enumerate(bound)}
            for row in bindings:
                occurrence = tuple(row[position_of[node]] for node in query.nodes())
                if occurrence in seen:
                    continue
                seen.add(occurrence)
                yield occurrence
        finally:
            if operators is not None:
                # Edges skipped by an empty intermediate table produced 0 rows.
                while len(operators) < 1 + len(plan):
                    operators.append({"rows": 0})
                profile["operators"] = operators
