"""Common scaffolding for the comparator query engines.

An :class:`Engine` is an :class:`~repro.matching.stream.Evaluator`: it
writes :meth:`Engine.iter_matches` — a lazy generator that yields
occurrences as the engine's search finds them — and inherits
``match_stream`` / ``match`` / ``count`` / ``explain``.  Early termination
— the match cap, a deadline, cooperative cancellation, or the consumer
simply abandoning the generator (``generator.close()``) — stops the
enumeration mid-search.
"""

from __future__ import annotations

import time
from typing import AbstractSet, Callable, Dict, Iterator, List, Mapping, Optional, Sequence
from typing import Tuple, Union

from repro.exceptions import StaleIndexError
from repro.explain.plan import QueryPlan
from repro.graph.digraph import DataGraph
from repro.matching.result import Budget
from repro.matching.stream import Evaluator
from repro.query.pattern import PatternEdge, PatternQuery
from repro.reachability.transitive_closure import TransitiveClosureIndex


def expand_descendant_edges(
    graph: DataGraph, closure: Optional[TransitiveClosureIndex] = None
) -> Tuple[DataGraph, float]:
    """Materialise the transitive closure as extra edges of the data graph.

    Engines that only support edge-to-edge semantics evaluate a descendant
    edge as an edge of the data graph's transitive closure — the indirect
    strategy the paper applies to GraphflowDB for D-queries (§7.5).  A
    descendant edge maps to a path of length >= 1, so a node on a cycle
    gets a self-loop.  Returns the expanded graph and the expansion time in
    seconds.
    """
    start = time.perf_counter()
    closure = closure or TransitiveClosureIndex(graph)
    edges = set(graph.edges())
    edges.update(closure.closure_edges())
    edges.update((node, node) for node in graph.nodes() if closure.reaches_strict(node, node))
    expanded = DataGraph(
        graph.labels,
        sorted(edges),
        name=f"{graph.name}-tc",
        version=getattr(graph, "version", 0),
    )
    return expanded, time.perf_counter() - start


#: An expanded data graph, or a zero-argument callable producing one.
ExpandedGraphSource = Union[DataGraph, Callable[[], DataGraph]]


class Engine(Evaluator):
    """Base class for the comparator engines.

    Engines natively support edge-to-edge matching only.  A descendant
    query edge is matched as an edge of the transitive-closure-expanded
    graph, built on the first descendant edge the engine sees and charged
    to precomputation time; child edges keep reading the data graph.
    Labels and inverted lists always come from the data graph, which has
    the same nodes and labels as the expanded one.

    ``expanded_graph`` lets a caller that already owns the expanded graph
    (a :class:`~repro.session.QuerySession`) inject it, or a callable that
    produces it on first use, so the engine does not recompute it; an
    injected graph charges zero expansion time to precomputation.
    """

    name = "engine"

    def __init__(
        self,
        graph: DataGraph,
        budget: Optional[Budget] = None,
        expanded_graph: Optional[ExpandedGraphSource] = None,
    ) -> None:
        self.graph = graph
        self.budget = budget or Budget()
        self._expanded_source = expanded_graph if callable(expanded_graph) else None
        self._expanded_graph: Optional[DataGraph] = (
            None if callable(expanded_graph) else expanded_graph
        )
        if self._expanded_graph is not None:
            self._check_expanded(self._expanded_graph)
        self._precompute_seconds = 0.0
        start = time.perf_counter()
        self._precompute(graph)
        self._precompute_seconds += time.perf_counter() - start

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #

    def _precompute(self, graph: DataGraph) -> None:
        """Per-engine precomputation (catalogs, indexes).  Default: none."""

    def _iter_evaluate(
        self, query: PatternQuery, budget: Budget, profile=None
    ) -> Iterator[Tuple[int, ...]]:
        """Lazily enumerate occurrences of ``query``.

        The streaming primitive every engine implements; each query edge
        reads the graph :meth:`_relation` names for it.  Implementations
        yield occurrences as the search finds them, call the budget
        clock's checkpoints from their inner loops, and must *not* enforce
        ``budget.max_matches`` themselves — the :meth:`iter_matches`
        driver stops the generator at the cap, which also makes
        first-``k`` prefixes identical to a capped eager run.

        ``profile`` (EXPLAIN ANALYZE only) is a mutable dict the engine
        fills with per-operator counters: ``profile["operators"]`` must be
        a list of actual-counter dicts aligned with the children of the
        plan :meth:`_describe_plan` produces, flushed in a ``finally``
        block so an abandoned (first-``k``) run still records its work.
        """
        raise NotImplementedError(
            f"{type(self).__name__} must implement _iter_evaluate"
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    @property
    def precompute_seconds(self) -> float:
        """Time spent on engine precomputation (catalog / index building)."""
        return self._precompute_seconds

    def _check_expanded(self, expanded: DataGraph) -> DataGraph:
        """Reject an injected expanded graph built for a different graph state.

        A shared cache may outlive a graph update; comparing node count and
        the monotone data version catches a stale injection before it
        silently produces answers for the wrong graph.  Raises
        :class:`~repro.exceptions.StaleIndexError` naming both versions.
        """
        if expanded.num_nodes != self.graph.num_nodes or getattr(
            expanded, "version", 0
        ) != getattr(self.graph, "version", 0):
            raise StaleIndexError(
                engine=self.name,
                artifact="expanded graph",
                expected_version=getattr(self.graph, "version", 0),
                found_version=getattr(expanded, "version", 0),
                detail=(
                    f"expanded graph has {expanded.num_nodes} nodes, "
                    f"data graph has {self.graph.num_nodes}"
                ),
            )
        return expanded

    def _expanded(self) -> DataGraph:
        """The closure-expanded graph: injected, or built on first use."""
        if self._expanded_graph is None:
            if self._expanded_source is not None:
                self._expanded_graph = self._check_expanded(self._expanded_source())
            else:
                self._expanded_graph, seconds = expand_descendant_edges(self.graph)
                self._precompute_seconds += seconds
        return self._expanded_graph

    def _relation(self, edge: PatternEdge) -> DataGraph:
        """The graph whose edges are the matches of query edge ``edge``: the
        data graph for a child edge, the closure-expanded graph for a
        descendant edge (a path of length >= 1)."""
        return self.graph if edge.is_child else self._expanded()

    def iter_matches(
        self,
        query: PatternQuery,
        budget: Optional[Budget] = None,
        info: Optional[Dict[str, object]] = None,
    ) -> Iterator[Tuple[int, ...]]:
        """Lazily enumerate occurrences of ``query`` (the streaming primitive).

        A generator: nothing is evaluated until the first ``next()``.
        Yields occurrence tuples (indexed by query-node id) as the engine's
        search finds them, stops at ``budget.max_matches``, and raises
        :class:`~repro.exceptions.TimeoutExceeded` /
        :class:`~repro.exceptions.QueryCancelled` /
        :class:`~repro.exceptions.MemoryBudgetExceeded` when the budget is
        exhausted mid-enumeration.  Closing the generator (or breaking out
        of a ``for`` loop that owns it) stops the search immediately.

        ``info`` receives the engine's precomputation cost (the expansion
        included, when the query has a descendant edge), and — when it
        asks for per-operator actuals (EXPLAIN ANALYZE) — is threaded
        through to :meth:`_iter_evaluate` as its ``profile``.
        """
        budget = budget or self.budget
        if query.descendant_edges():
            self._expanded()
        profile = None
        if info is not None:
            info["extra"] = {"precompute_seconds": self._precompute_seconds}
            if "operators" in info:
                profile = info
        clock = budget.start_clock()
        count = 0
        for occurrence in self._iter_evaluate(query, budget, profile=profile):
            clock.check_time()
            yield occurrence
            count += 1
            if clock.check_matches(count):
                return

    # ------------------------------------------------------------------ #
    # node-at-a-time extension (GF and RM)
    # ------------------------------------------------------------------ #

    def _wco_extend(
        self,
        query: PatternQuery,
        order: Sequence[int],
        domains: Mapping[int, AbstractSet[int]],
        clock,
        slots: Optional[List[List[int]]],
    ) -> Iterator[Tuple[int, ...]]:
        """Worst-case-optimal node-at-a-time enumeration along ``order``.

        Position ``i`` binds ``order[i]`` to the values of its domain that
        every query edge to an earlier position admits — the bound
        partner's successor (or predecessor) set in the edge's
        :meth:`_relation`, intersected smallest first.  Each full
        assignment is yielded the moment the innermost extension completes,
        so the first occurrence costs one root-to-leaf descent; closing the
        generator abandons the backtracking stack wherever it stands.

        ``slots`` (EXPLAIN ANALYZE) receives per position
        ``[candidates, intersections, rows]``.
        """
        n = query.num_nodes
        assignment: List[Optional[int]] = [None] * n
        # Per position: (earlier node, its neighbour-set lookup) per query
        # edge to an earlier position.
        position_of = {node: position for position, node in enumerate(order)}
        probes: List[List[Tuple[int, Callable[[int], AbstractSet[int]]]]] = [[] for _ in order]
        for edge in query.edges():
            relation = self._relation(edge)
            if position_of[edge.source] < position_of[edge.target]:
                probes[position_of[edge.target]].append((edge.source, relation.successor_set))
            else:
                probes[position_of[edge.source]].append((edge.target, relation.predecessor_set))

        def candidates(position: int) -> List[int]:
            domain = domains[order[position]]
            operands = [
                neighbours(assignment[earlier]) & domain
                for earlier, neighbours in probes[position]
            ]
            if not operands:
                local = list(domain)
                if slots is not None:
                    slots[position][0] += len(local)
                return local
            operands.sort(key=len)
            result = operands[0]
            for operand in operands[1:]:
                result = result & operand
                if not result:
                    break
            if slots is not None:
                slots[position][0] += len(result)
                slots[position][1] += len(operands)
            return list(result)

        def extend(position: int) -> Iterator[Tuple[int, ...]]:
            clock.check_time()
            if position == n:
                yield tuple(assignment)
                return
            node = order[position]
            for value in candidates(position):
                assignment[node] = value
                if slots is not None:
                    slots[position][2] += 1
                yield from extend(position + 1)
                assignment[node] = None

        yield from extend(0)

    # ------------------------------------------------------------------ #
    # EXPLAIN
    # ------------------------------------------------------------------ #

    def _describe_plan(self, query: PatternQuery) -> QueryPlan:
        """The engine's operator tree for ``query`` (plan-only skeleton).

        The default is a single opaque evaluate operator; engines with a
        real planner override this to expose their operator pipeline with
        per-operator cardinality estimates.  The children must be listed in
        the same order as the actual-counter dicts the engine's
        :meth:`_iter_evaluate` flushes into ``profile["operators"]``.
        """
        return Evaluator.describe_plan(self, query)

    def describe_plan(self, query: PatternQuery) -> QueryPlan:
        """The engine's plan for ``query``, planned over precomputed statistics."""
        plan = self._describe_plan(query)
        plan.query = query.name or "query"
        plan.artifacts.setdefault("expanded_graph", bool(query.descendant_edges()))
        return plan
