"""Search-order selection for occurrence enumeration (§5.2).

Three strategies, matching the paper's experimental comparison (Table 4):

* ``JO`` — greedy, RIG-statistics-driven: start from the query node with the
  smallest candidate occurrence set, then repeatedly append the adjacent
  query node with the smallest estimated extension fan-out
  (:func:`extension_estimate`: ``|cos(v)|`` times the selectivity of every
  RIG query edge joining ``v`` to the placed nodes).  Ranking by bare
  ``|cos(v)|`` would place a pendant leaf with many partners per value
  before the node that closes a cycle, and MJoin would then repeat the
  cycle's closing intersection once per leaf value.  Connectivity is
  enforced to avoid Cartesian products.
* ``RI`` — purely topological (Bonnici et al.): prefer nodes with the most
  edges to already-ordered nodes, breaking ties by edges to unordered
  neighbours of ordered nodes, then by degree; independent of the data.
* ``BJ`` — dynamic programming over left-deep plans, minimising an estimated
  intermediate-result cost derived from RIG candidate-set and edge
  cardinalities.  Exponential in the number of query nodes, so it refuses
  queries beyond a node limit (the paper observes it "does not scale to
  large queries with tens of nodes").

JO, BJ and EXPLAIN's row estimate share one independence estimate,
:func:`extension_estimate`, over the RIG query (the reduced query whose edges
MJoin probes).
"""

from __future__ import annotations

from enum import Enum
from typing import Collection, Dict, List, Tuple

from repro.exceptions import MatchingError
from repro.query.pattern import PatternQuery
from repro.rig.graph import RuntimeIndexGraph


class OrderingMethod(Enum):
    """Available search-order strategies."""

    JO = "jo"
    RI = "ri"
    BJ = "bj"


# ---------------------------------------------------------------------- #
# The independence estimate (JO, BJ, EXPLAIN)
# ---------------------------------------------------------------------- #


def _edge_selectivity(rig: RuntimeIndexGraph, source: int, target: int) -> float:
    """Estimated fraction of candidate pairs connected under a query edge."""
    tail = rig.candidate_count(source)
    head = rig.candidate_count(target)
    if tail == 0 or head == 0:
        return 0.0
    return rig.edge_candidate_count(source, target) / float(tail * head)


def _joins(rig: RuntimeIndexGraph) -> Dict[int, Dict[int, Tuple[float, ...]]]:
    """Per query node, per RIG-query neighbour: the selectivity of each edge
    joining them, the node's own out-edge first.  Neighbours are ascending so
    that a product's order does not depend on the query's edge order.
    Memoised on the RIG, so an order pays for each edge's statistics once."""

    def compute() -> Dict[int, Dict[int, Tuple[float, ...]]]:
        joins: Dict[int, Dict[int, Tuple[float, ...]]] = {node: {} for node in rig.query.nodes()}
        for edge in rig.query.edges():
            source, target = edge.endpoints()
            selectivity = (_edge_selectivity(rig, source, target),)
            joins[source][target] = selectivity + joins[source].get(target, ())
            joins[target][source] = joins[target].get(source, ()) + selectivity
        return {node: dict(sorted(others.items())) for node, others in joins.items()}

    return rig.memo("joins", compute)


def extension_estimate(
    rig: RuntimeIndexGraph, node: int, placed: Collection[int], rows: float = 1.0
) -> float:
    """Estimated rows after extending ``rows`` partial rows over ``placed``
    by ``node``: ``rows × |cos(node)| × Π sel(e)`` over the RIG query's edges
    ``e`` between ``node`` and ``placed`` (independence assumption)."""
    estimate = rows * rig.candidate_count(node)
    for other, selectivities in _joins(rig)[node].items():
        if other in placed:
            for selectivity in selectivities:
                estimate *= selectivity
    return estimate


# ---------------------------------------------------------------------- #
# JO — greedy fan-out-based ordering
# ---------------------------------------------------------------------- #


def jo_order(query: PatternQuery, rig: RuntimeIndexGraph) -> List[int]:
    """Greedy join ordering driven by RIG statistics.

    Starts from the smallest ``cos`` (ties by id), then appends the frontier
    node with the smallest :func:`extension_estimate` (ties by ``|cos|``,
    then id).  The edges are read from ``rig.query`` — the query MJoin's
    probes come from — whatever form of ``query`` (which has the same nodes)
    the caller passes.
    """
    joins = _joins(rig)
    sizes = {node: rig.candidate_count(node) for node in query.nodes()}
    remaining = set(sizes)
    start = min(remaining, key=lambda node: (sizes[node], node))
    order = [start]
    placed = {start}
    remaining.discard(start)
    frontier = set(joins[start])
    while remaining:
        # A disconnected query (no paper query is) falls back to every node.
        candidates = frontier & remaining or remaining
        chosen = min(
            candidates,
            key=lambda node: (extension_estimate(rig, node, placed), sizes[node], node),
        )
        order.append(chosen)
        placed.add(chosen)
        remaining.discard(chosen)
        frontier.update(joins[chosen])
    return order


# ---------------------------------------------------------------------- #
# RI — topology-only ordering
# ---------------------------------------------------------------------- #


def ri_order(query: PatternQuery) -> List[int]:
    """RI ordering: maximise constraints introduced early, data-independent."""
    remaining = set(query.nodes())
    start = max(remaining, key=lambda node: (query.degree(node), -node))
    order = [start]
    ordered = {start}
    remaining.discard(start)
    while remaining:
        def score(node: int) -> Tuple[int, int, int, int]:
            neighbors = set(query.neighbors(node))
            # Edges to already-ordered nodes (the constraints this node adds).
            to_ordered = len(neighbors & ordered)
            # Neighbours of ordered nodes that are also neighbours of node
            # (RI's second criterion: "lookahead" connectivity).
            ordered_frontier = {
                other
                for placed in ordered
                for other in query.neighbors(placed)
                if other not in ordered
            }
            lookahead = len(neighbors & ordered_frontier)
            return (to_ordered, lookahead, query.degree(node), -node)

        candidates = [node for node in remaining if set(query.neighbors(node)) & ordered]
        if not candidates:
            candidates = list(remaining)
        chosen = max(candidates, key=score)
        order.append(chosen)
        ordered.add(chosen)
        remaining.discard(chosen)
    return order


# ---------------------------------------------------------------------- #
# BJ — dynamic programming over left-deep plans
# ---------------------------------------------------------------------- #


def bj_order(
    query: PatternQuery, rig: RuntimeIndexGraph, max_nodes: int = 18
) -> List[int]:
    """Optimal left-deep ordering by subset dynamic programming.

    The cost of an order is the estimated total number of intermediate
    tuples produced when extending the partial match node by node, each
    step's cardinality the :func:`extension_estimate` of the RIG.  Raises
    :class:`MatchingError` for queries with more than ``max_nodes`` nodes
    (the DP enumerates all subsets).
    """
    n = query.num_nodes
    if n > max_nodes:
        raise MatchingError(
            f"BJ ordering is limited to {max_nodes} query nodes (query has {n})"
        )
    # DP state: frozenset of placed nodes -> (total cost, result cardinality, order)
    best: Dict[frozenset, Tuple[float, float, Tuple[int, ...]]] = {}
    for node in query.nodes():
        state = frozenset((node,))
        cardinality = extension_estimate(rig, node, ())
        best[state] = (cardinality, cardinality, (node,))

    for size in range(1, n):
        current_states = [state for state in best if len(state) == size]
        for state in current_states:
            cost, cardinality, order = best[state]
            for node in query.nodes():
                if node in state:
                    continue
                # Enforce connectivity except when nothing is adjacent.
                adjacent = any(neighbor in state for neighbor in query.neighbors(node))
                if not adjacent and any(
                    any(neighbor in state for neighbor in query.neighbors(candidate))
                    for candidate in query.nodes()
                    if candidate not in state
                ):
                    continue
                new_cardinality = extension_estimate(rig, node, state, cardinality)
                new_cost = cost + new_cardinality
                new_state = state | {node}
                incumbent = best.get(new_state)
                if incumbent is None or new_cost < incumbent[0]:
                    best[new_state] = (new_cost, new_cardinality, order + (node,))

    full = frozenset(query.nodes())
    return list(best[full][2])


def search_order(
    query: PatternQuery,
    rig: RuntimeIndexGraph,
    method: OrderingMethod = OrderingMethod.JO,
) -> List[int]:
    """Compute a search order with the requested strategy."""
    if method is OrderingMethod.JO:
        return jo_order(query, rig)
    if method is OrderingMethod.RI:
        return ri_order(query)
    if method is OrderingMethod.BJ:
        return bj_order(query, rig)
    raise MatchingError(f"unknown ordering method {method!r}")
