"""EmptyHeaded-like relational engine.

EmptyHeaded compiles graph patterns to relational query plans over edge
relations, with an expensive precomputation step (loading and indexing the
relations in its trie layout).  The stand-in mirrors that cost profile:

* precomputation materialises the full edge relation partitioned by the
  (source label, target label) pair — the analogue of EH's per-relation trie
  build, charged to :attr:`precompute_seconds`;
* query evaluation hash-joins the per-edge relations along a connected
  order, materialising every intermediate relation (binary joins, not WCO —
  the configuration the paper measured reports per-query optimisation and
  compilation overhead dominating small queries).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.explain.plan import PlanOperator, QueryPlan
from repro.graph.digraph import DataGraph
from repro.matching.result import Budget
from repro.query.pattern import PatternEdge, PatternQuery
from repro.engines.base import Engine


#: Edge relations partitioned by (source label, target label).
EdgePartitions = Dict[Tuple[str, str], List[Tuple[int, int]]]


def build_edge_partitions(graph: DataGraph) -> EdgePartitions:
    """Partition the edge set by (source label, target label).

    This is the loading / trie-building step of EmptyHeaded; exposed as a
    function so a shared cache can build it once and hand it to many engine
    instances.
    """
    partitions: EdgePartitions = {}
    for source, target in graph.edges():
        key = (graph.label(source), graph.label(target))
        partitions.setdefault(key, []).append((source, target))
    return partitions


class RelationalEngine(Engine):
    """Materialised-edge-relation hash-join engine (EmptyHeaded stand-in)."""

    name = "EH"

    def __init__(
        self,
        graph: DataGraph,
        budget: Optional[Budget] = None,
        partitions: Optional[EdgePartitions] = None,
        **kwargs,
    ) -> None:
        self._prebuilt_partitions = partitions
        super().__init__(graph, budget=budget, **kwargs)

    def _precompute(self, graph: DataGraph) -> None:
        if self._prebuilt_partitions is not None:
            self._partitions = self._prebuilt_partitions
        else:
            self._partitions = build_edge_partitions(graph)
        # The closure-expanded graph's partitions, built by the first
        # descendant edge (the engine lives for one graph version).
        self._expanded_partitions: Optional[EdgePartitions] = None

    def _edge_relation(self, query: PatternQuery, edge: PatternEdge) -> List[Tuple[int, int]]:
        """The data pairs matching ``edge``, labels included."""
        key = (query.label(edge.source), query.label(edge.target))
        if edge.is_child:
            return self._partitions.get(key, [])
        if self._expanded_partitions is None:
            self._expanded_partitions = build_edge_partitions(self._relation(edge))
        return self._expanded_partitions.get(key, [])

    def _join_plan(
        self, query: PatternQuery
    ) -> Tuple[List[PatternEdge], Dict[Tuple[int, int], int]]:
        """Connected join order, smallest relation first, with relation sizes.

        Shared by the evaluator and EXPLAIN so the introspected plan is by
        construction the executed one.
        """
        edges = list(query.edges())
        sizes = {edge.endpoints(): len(self._edge_relation(query, edge)) for edge in edges}
        remaining = sorted(edges, key=lambda edge: sizes[edge.endpoints()])
        plan = [remaining.pop(0)]
        covered = set(plan[0].endpoints())
        while remaining:
            connected = [edge for edge in remaining if covered & set(edge.endpoints())]
            pool = connected or remaining
            chosen = min(pool, key=lambda edge: sizes[edge.endpoints()])
            plan.append(chosen)
            covered.update(chosen.endpoints())
            remaining.remove(chosen)
        return plan, sizes

    def _describe_plan(self, query: PatternQuery) -> QueryPlan:
        graph = self.graph
        artifacts = {"partitions": bool(query.child_edges())}
        if not query.edges():
            root = PlanOperator(
                op="project_dedup",
                label=f"Project+Dedup [{self.name}]",
                children=[
                    PlanOperator(
                        op="scan",
                        label=f"scan u0 [{query.label(0)}]",
                        estimate=len(graph.inverted_list(query.label(0))),
                        details={"node": 0},
                    )
                ],
            )
            return QueryPlan(
                query=query.name or "query",
                engine=self.name,
                analyze=False,
                root=root,
                vertex_order=list(query.nodes()),
                artifacts=artifacts,
            )
        plan, sizes = self._join_plan(query)
        first = plan[0]
        children = [
            PlanOperator(
                op="relation_scan",
                label=f"relation scan {first!r}",
                estimate=sizes[first.endpoints()],
                details={"edge": repr(first)},
            )
        ]
        bound = list(first.endpoints())
        for edge in plan[1:]:
            source, target = edge.endpoints()
            if source not in bound:
                bound.append(source)
            if target not in bound:
                bound.append(target)
            children.append(
                PlanOperator(
                    op="hash_join",
                    label=f"hash join {edge!r}",
                    estimate=sizes[edge.endpoints()],
                    details={"edge": repr(edge)},
                )
            )
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
            vertex_order=bound,
            artifacts=artifacts,
        )

    def _iter_evaluate(
        self, query: PatternQuery, budget: Budget, profile=None
    ) -> Iterator[Tuple[int, ...]]:
        """Hash-join pipeline with a streaming projection tail.

        Like the binary-join engine, the hash joins materialise every
        intermediate relation (EH's measured cost profile), so only the
        final projection/dedup pass streams — but the whole pipeline is
        deferred until the first occurrence is requested, and abandoning
        the iterator skips the un-projected remainder.
        """
        clock = budget.start_clock()
        edges = list(query.edges())
        if not edges:
            nodes = self.graph.inverted_list(query.label(0))
            if profile is not None:
                profile["operators"] = [{"rows": len(nodes)}]
            yield from ((node,) for node in nodes)
            return

        plan, _ = self._join_plan(query)
        operators: Optional[List[Dict[str, int]]] = [] if profile is not None else None

        first = plan[0]
        bound: List[int] = list(first.endpoints())
        rows: List[Tuple[int, ...]] = [
            tuple(pair) for pair in self._edge_relation(query, first)
        ]
        clock.check_intermediate(len(rows))
        if operators is not None:
            operators.append({"rows": len(rows)})

        for edge in plan[1:]:
            clock.check_time()
            relation = self._edge_relation(query, edge)
            source, target = edge.endpoints()
            source_bound = source in bound
            target_bound = target in bound
            next_rows: List[Tuple[int, ...]] = []
            if source_bound and target_bound:
                pairs = set(relation)
                source_position = bound.index(source)
                target_position = bound.index(target)
                for row in rows:
                    clock.check_time()
                    if (row[source_position], row[target_position]) in pairs:
                        next_rows.append(row)
                        clock.check_intermediate(len(next_rows))
            elif source_bound:
                source_position = bound.index(source)
                by_tail: Dict[int, List[int]] = {}
                for tail, head in relation:
                    by_tail.setdefault(tail, []).append(head)
                bound = bound + [target]
                for row in rows:
                    clock.check_time()
                    for head in by_tail.get(row[source_position], ()):
                        next_rows.append(row + (head,))
                        clock.check_intermediate(len(next_rows))
            elif target_bound:
                target_position = bound.index(target)
                by_head: Dict[int, List[int]] = {}
                for tail, head in relation:
                    by_head.setdefault(head, []).append(tail)
                bound = bound + [source]
                for row in rows:
                    clock.check_time()
                    for tail in by_head.get(row[target_position], ()):
                        next_rows.append(row + (tail,))
                        clock.check_intermediate(len(next_rows))
            else:
                bound = bound + [source, target]
                for row in rows:
                    clock.check_time()
                    for tail, head in relation:
                        next_rows.append(row + (tail, head))
                        clock.check_intermediate(len(next_rows))
            if operators is not None:
                operators.append(
                    {
                        "rows": len(next_rows),
                        "input_rows": len(rows),
                        "relation_rows": len(relation),
                    }
                )
            rows = next_rows
            if not rows:
                break

        try:
            seen = set()
            position_of = {node: index for index, node in enumerate(bound)}
            for row in rows:
                occurrence = tuple(row[position_of[node]] for node in query.nodes())
                if occurrence in seen:
                    continue
                seen.add(occurrence)
                yield occurrence
        finally:
            if operators is not None:
                # Joins skipped by an empty intermediate relation made 0 rows.
                while len(operators) < len(plan):
                    operators.append({"rows": 0})
                profile["operators"] = operators
