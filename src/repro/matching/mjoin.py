"""MJoin: multiway-intersection occurrence enumeration (Algorithm 5).

Given a runtime index graph, MJoin enumerates the query's occurrences by a
backtracking search that matches one query node per step.  At step ``i`` the
local candidate set of the current query node is obtained by intersecting
its RIG candidate set with the RIG adjacency lists of every already-matched
neighbour — a node-at-a-time (worst-case-optimal-style) multiway join that
never materialises intermediate relations.

The join structure depends only on the RIG and the search order, so it is
resolved once — :func:`compile_plan` — into, per position, the adjacency
dicts to probe and the earlier positions whose values key them.  The search
loop then only looks adjacency up and intersects it: ``dict.get`` and ``&``
(``-`` under ``injective``), ``len`` and iteration, each one C-level
operation on the RIG's built-in sets.

The enumerator supports the paper's match cap and wall-clock budget, and an
``injective`` flag that adds the one-to-one constraint of subgraph
isomorphism (the extension the paper calls "promising" in §7.2).
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.matching.ordering import OrderingMethod, search_order
from repro.matching.result import Budget
from repro.rig.graph import RuntimeIndexGraph

#: One compiled search position: ``(node, base, probes, clashes)``.
#:
#: * ``node`` — the query node matched here, which is also its slot in the
#:   row buffer (rows are indexed by query node, not by position);
#: * ``base`` — ``cos(node)``;
#: * ``probes`` — ``(adjacency dict, earlier node)`` pairs: the local
#:   candidates are the intersection of ``dict[row[earlier node]]`` over all
#:   pairs, and of ``base``;
#: * ``clashes`` — injective plans only: earlier nodes whose candidates
#:   overlap ``base``, i.e. the only values this position could repeat.
Step = Tuple[int, object, Tuple[Tuple[dict, int], ...], Tuple[int, ...]]


def compile_plan(
    rig: RuntimeIndexGraph, order: Sequence[int], injective: bool = False
) -> Tuple[Step, ...]:
    """The enumeration plan of ``rig`` under ``order``, memoised on the RIG."""
    order = tuple(order)
    return rig.memo(("mjoin_plan", order, injective), lambda: _compile(rig, order, injective))


def _compile(rig: RuntimeIndexGraph, order: Tuple[int, ...], injective: bool) -> Tuple[Step, ...]:
    query = rig.query
    steps: List[Step] = []
    for position, node in enumerate(order):
        base = rig.candidates(node)
        probes = []
        clashes = []
        for earlier in order[:position]:
            if query.has_edge(node, earlier):
                probes.append((rig.backward_index(node, earlier), earlier))
            if query.has_edge(earlier, node):
                probes.append((rig.forward_index(earlier, node), earlier))
            if injective and len(base & rig.candidates(earlier)):
                clashes.append(earlier)
        steps.append((node, base, tuple(probes), tuple(clashes)))
    return tuple(steps)


def mjoin_iter(
    rig: RuntimeIndexGraph,
    order: Optional[Sequence[int]] = None,
    budget: Optional[Budget] = None,
    injective: bool = False,
    stats: Optional[dict] = None,
    step_stats: Optional[List[dict]] = None,
) -> Iterator[Tuple[int, ...]]:
    """Lazily enumerate occurrences from ``rig``.

    Yields tuples indexed by *query node id* (not search-order position), so
    the tuple layout is stable across orderings.  Stops by itself after
    ``budget.max_matches`` occurrences.  When the budget carries a time limit
    or a cancel event, the clock is consulted once per local candidate set
    (never when it carries neither), so :class:`TimeoutExceeded` /
    :class:`QueryCancelled` are raised at most one candidate set's worth of
    occurrences late.

    ``stats`` (a mutable mapping) receives the enumeration's work counters
    — ``candidates`` (local candidate vertices produced across all search
    positions) and ``intersections`` (adjacency lists intersected) — and
    ``step_stats`` (a mutable list, EXPLAIN ANALYZE) one dict per position:
    ``{"candidates", "intersections", "rows"}``, where ``rows``
    counts the partial assignments extended at that position (at the last
    position: occurrences yielded).  Both are flushed once, when the
    generator finishes or is closed.
    """
    if rig.is_empty():
        if stats is not None:
            stats.setdefault("candidates", 0)
            stats.setdefault("intersections", 0)
        return
    if order is None:
        order = search_order(rig.query, rig, OrderingMethod.JO)
    plan = compile_plan(rig, order, injective)
    check = budget.start_clock().checker() if budget is not None else None
    cap = budget.max_matches if budget is not None else None
    if cap is None:
        cap = -1  # counts down past zero: never "just reached"
    remaining = cap

    last = len(plan) - 1
    empty = frozenset()
    row = [0] * (last + 1)
    # Per position: candidate sets computed, and their summed sizes.
    computed = [0] * (last + 2)
    sizes = [0] * (last + 1)
    local = plan[0][1]
    computed[0] = 1
    sizes[0] = len(local)
    iterators: List[Optional[Iterator[int]]] = [None] * (last + 1)
    depth = 0
    try:
        if not remaining:
            return
        if check is not None:
            check()
        if last == 0:
            for final in local:
                remaining -= 1
                yield (final,)
                if not remaining:
                    return
            return
        iterators[0] = iter(local)
        while depth >= 0:
            node = plan[depth][0]
            below = depth + 1
            next_node, base, probes, clashes = plan[below]
            for value in iterators[depth]:
                row[node] = value
                local = base
                for index, earlier in probes:
                    local = local & index.get(row[earlier], empty)
                computed[below] += 1
                size = len(local)
                if not size:
                    continue
                sizes[below] += size
                if check is not None:
                    check()
                if clashes:
                    local = local - frozenset([row[earlier] for earlier in clashes])
                if below == last:
                    for final in local:
                        row[next_node] = final
                        remaining -= 1
                        yield tuple(row)
                        if not remaining:
                            return
                else:
                    iterators[below] = iter(local)
                    depth = below
                    break
            else:
                depth -= 1
    finally:
        computed[last + 1] = cap - remaining  # occurrences yielded
        intersections = [computed[i] * len(step[2]) for i, step in enumerate(plan)]
        if step_stats is not None:
            step_stats[:] = [
                {
                    "candidates": sizes[i],
                    "intersections": intersections[i],
                    "rows": computed[i + 1],
                }
                for i in range(last + 1)
            ]
        if stats is not None:
            stats["candidates"] = stats.get("candidates", 0) + sum(sizes)
            stats["intersections"] = stats.get("intersections", 0) + sum(intersections)


def mjoin(
    rig: RuntimeIndexGraph,
    order: Optional[Sequence[int]] = None,
    budget: Optional[Budget] = None,
    injective: bool = False,
) -> Tuple[List[Tuple[int, ...]], bool, float]:
    """Enumerate occurrences eagerly.

    Returns ``(occurrences, hit_match_limit, elapsed_seconds)``.  A
    :class:`TimeoutExceeded` exception propagates to the caller (GM converts
    it into a timed-out :class:`MatchReport`).
    """
    start = time.perf_counter()
    occurrences = list(mjoin_iter(rig, order=order, budget=budget, injective=injective))
    cap = budget.max_matches if budget is not None else None
    hit_limit = cap is not None and len(occurrences) >= cap
    return occurrences, hit_limit, time.perf_counter() - start


def count_matches(
    rig: RuntimeIndexGraph,
    order: Optional[Sequence[int]] = None,
    budget: Optional[Budget] = None,
) -> int:
    """Count occurrences without materialising them (subject to the budget)."""
    return sum(1 for _ in mjoin_iter(rig, order=order, budget=budget))
