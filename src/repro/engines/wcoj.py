"""GraphflowDB-like worst-case-optimal join engine with a catalog.

GraphflowDB precomputes a *catalog* of small-subgraph cardinalities per label
combination and uses it to cost join orders that mix binary and worst-case
optimal (node-at-a-time) joins.  The stand-in reproduces the two behaviours
the paper measures:

* **catalog construction cost** grows quickly with the number of distinct
  labels and the graph size (GF runs out of memory building catalogs on em,
  ep and hp; Fig. 16a / Fig. 18a) — the catalog here enumerates 2-path
  cardinalities for every ordered label triple present in the graph and can
  be capped to emulate the failure;
* **query evaluation** is a node-at-a-time WCO join over the data graph's
  adjacency lists, ordered by catalog-estimated cardinalities — fast on
  graphs with few labels, slower when label selectivity is what matters
  (where GM's RIG filtering wins).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.exceptions import MemoryBudgetExceeded
from repro.explain.plan import PlanOperator, QueryPlan
from repro.graph.digraph import DataGraph
from repro.matching.result import Budget
from repro.query.pattern import PatternQuery
from repro.engines.base import Engine


@dataclass
class Catalog:
    """Subgraph-cardinality statistics used for join ordering."""

    #: Cardinality of each (source label, target label) edge pattern.
    edge_counts: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: Cardinality of each 2-path pattern (a -> b -> c) by label triple.
    path_counts: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    #: Wall-clock seconds spent building the catalog.
    build_seconds: float = 0.0
    #: True if construction hit the entry cap (models GF's out-of-memory).
    truncated: bool = False

    def edge_cardinality(self, source_label: str, target_label: str) -> int:
        """Estimated number of edges matching the label pair."""
        return self.edge_counts.get((source_label, target_label), 0)


def build_catalog(graph: DataGraph, max_entries: Optional[int] = None) -> Catalog:
    """Build the cardinality catalog for ``graph``.

    ``max_entries`` caps the number of 2-path pattern entries; exceeding the
    cap marks the catalog as truncated (the stand-in for GF's catalog
    construction running out of memory on label-rich graphs).
    """
    start = time.perf_counter()
    catalog = Catalog()
    for source, target in graph.edges():
        key = (graph.label(source), graph.label(target))
        catalog.edge_counts[key] = catalog.edge_counts.get(key, 0) + 1
    entries = 0
    for middle in graph.nodes():
        middle_label = graph.label(middle)
        for parent in graph.predecessors(middle):
            parent_label = graph.label(parent)
            for child in graph.successors(middle):
                key = (parent_label, middle_label, graph.label(child))
                if key not in catalog.path_counts:
                    entries += 1
                    if max_entries is not None and entries > max_entries:
                        catalog.truncated = True
                        catalog.build_seconds = time.perf_counter() - start
                        return catalog
                catalog.path_counts[key] = catalog.path_counts.get(key, 0) + 1
    catalog.build_seconds = time.perf_counter() - start
    return catalog


class WCOJEngine(Engine):
    """Catalog-driven worst-case-optimal join engine (GraphflowDB stand-in)."""

    name = "GF"

    def __init__(
        self,
        graph: DataGraph,
        budget: Optional[Budget] = None,
        catalog_max_entries: Optional[int] = None,
        catalog: Optional[Catalog] = None,
        **kwargs,
    ) -> None:
        self._catalog_max_entries = catalog_max_entries
        self._prebuilt_catalog = catalog
        super().__init__(graph, budget=budget, **kwargs)

    def _precompute(self, graph: DataGraph) -> None:
        if self._prebuilt_catalog is not None:
            # Injected by a caller that built (and cached) the catalog once —
            # construction cost was paid there, not by this engine instance.
            self.catalog = self._prebuilt_catalog
        else:
            self.catalog = build_catalog(graph, max_entries=self._catalog_max_entries)
        if self.catalog.truncated:
            raise MemoryBudgetExceeded(self._catalog_max_entries or 0)

    # ------------------------------------------------------------------ #
    # ordering
    # ------------------------------------------------------------------ #

    def _order(self, query: PatternQuery) -> List[int]:
        """Connected node order by catalog-estimated candidate cardinality."""
        graph = self.graph
        cardinality = {
            node: len(graph.inverted_list(query.label(node))) for node in query.nodes()
        }

        def edge_estimate(node: int) -> float:
            estimates = []
            for child in query.children(node):
                estimates.append(
                    self.catalog.edge_cardinality(query.label(node), query.label(child))
                )
            for parent in query.parents(node):
                estimates.append(
                    self.catalog.edge_cardinality(query.label(parent), query.label(node))
                )
            return min(estimates) if estimates else cardinality[node]

        remaining = set(query.nodes())
        start = min(remaining, key=lambda node: (edge_estimate(node), cardinality[node]))
        order = [start]
        remaining.discard(start)
        while remaining:
            frontier = [
                node for node in remaining if any(n in order for n in query.neighbors(node))
            ] or list(remaining)
            chosen = min(frontier, key=lambda node: (edge_estimate(node), cardinality[node]))
            order.append(chosen)
            remaining.discard(chosen)
        return order

    # ------------------------------------------------------------------ #
    # EXPLAIN
    # ------------------------------------------------------------------ #

    def _step_estimate(self, query: PatternQuery, node: int) -> int:
        """Catalog-based candidate estimate for one extension step."""
        cardinality = len(self.graph.inverted_list(query.label(node)))
        estimates = [
            self.catalog.edge_cardinality(query.label(node), query.label(child))
            for child in query.children(node)
        ] + [
            self.catalog.edge_cardinality(query.label(parent), query.label(node))
            for parent in query.parents(node)
        ]
        return min(estimates) if estimates else cardinality

    def _describe_plan(self, query: PatternQuery) -> QueryPlan:
        order = self._order(query)
        children = [
            PlanOperator(
                op="wco_extend",
                label=f"wco extend u{node} [{query.label(node)}]",
                estimate=self._step_estimate(query, node),
                details={"position": position, "node": node},
            )
            for position, node in enumerate(order)
        ]
        root = PlanOperator(
            op="wcoj",
            label=f"WCOJoin [{self.name}]",
            children=children,
            details={"catalog_entries": len(self.catalog.path_counts)},
        )
        return QueryPlan(
            query=query.name or "query",
            engine=self.name,
            analyze=False,
            root=root,
            vertex_order=order,
            artifacts={
                "catalog": True,
                "catalog_build_seconds": self.catalog.build_seconds,
                "catalog_truncated": self.catalog.truncated,
            },
        )

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def _iter_evaluate(
        self, query: PatternQuery, budget: Budget, profile=None
    ) -> Iterator[Tuple[int, ...]]:
        """Node-at-a-time WCO join over the label inverted lists, lazily."""
        clock = budget.start_clock()
        domains = {node: self.graph.inverted_set(query.label(node)) for node in query.nodes()}
        # EXPLAIN ANALYZE: per-position [candidates, intersections, rows].
        slots = [[0, 0, 0] for _ in query.nodes()] if profile is not None else None
        try:
            yield from self._wco_extend(query, self._order(query), domains, clock, slots)
        finally:
            if profile is not None:
                profile["operators"] = [
                    {"rows": rows, "candidates": produced, "intersections": intersections}
                    for produced, intersections, rows in slots
                ]
