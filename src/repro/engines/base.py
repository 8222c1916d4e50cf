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
from typing import Callable, Dict, Iterator, Optional, Tuple, Union

from repro.exceptions import EngineError, StaleIndexError
from repro.explain.plan import QueryPlan
from repro.graph.digraph import DataGraph
from repro.matching.result import Budget
from repro.matching.stream import Evaluator
from repro.query.pattern import EdgeType, PatternEdge, PatternQuery
from repro.reachability.transitive_closure import TransitiveClosureIndex


def expand_descendant_edges(
    graph: DataGraph, closure: Optional[TransitiveClosureIndex] = None
) -> Tuple[DataGraph, float]:
    """Materialise the transitive closure as extra edges of the data graph.

    Engines that only support edge-to-edge semantics evaluate descendant
    edges by first replacing the data graph with its transitive closure —
    the indirect strategy the paper applies to GraphflowDB for D-queries
    (§7.5).  A descendant edge maps to a path of length >= 1, so a node on
    a cycle gets a self-loop.  Returns the expanded graph and the
    expansion time in seconds.
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


#: A transitive-closure index, or a zero-argument callable producing one.
#: Callables let a shared cache (e.g. :class:`repro.session.QuerySession`)
#: supply the closure lazily: it is only built if a descendant query arrives.
ClosureSource = Union[TransitiveClosureIndex, Callable[[], TransitiveClosureIndex]]

#: An expanded data graph, or a zero-argument callable producing one.
ExpandedGraphSource = Union[DataGraph, Callable[[], DataGraph]]


class Engine(Evaluator):
    """Base class for the comparator engines.

    Engines natively support child-only queries.  If a query contains
    descendant edges the engine either raises :class:`EngineError`
    (``descendant_mode="reject"``), or rewrites the query against the
    transitive-closure-expanded graph (``descendant_mode="closure"``),
    charging the expansion to precomputation time.

    ``closure`` and ``expanded_graph`` allow a caller that already owns those
    artifacts (a :class:`~repro.session.QuerySession`) to inject them so the
    engine does not recompute them; a pre-built ``expanded_graph`` charges
    zero expansion time to precomputation.
    """

    name = "engine"

    def __init__(
        self,
        graph: DataGraph,
        budget: Optional[Budget] = None,
        descendant_mode: str = "closure",
        closure: Optional[ClosureSource] = None,
        expanded_graph: Optional[ExpandedGraphSource] = None,
    ) -> None:
        self.graph = graph
        self.budget = budget or Budget()
        self.descendant_mode = descendant_mode
        self._closure_source = closure
        self._expanded_source = expanded_graph if callable(expanded_graph) else None
        self._expanded_graph: Optional[DataGraph] = (
            None if callable(expanded_graph) else expanded_graph
        )
        if self._expanded_graph is not None:
            self._check_expanded(self._expanded_graph)
        self._expansion_seconds = 0.0
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
        self, graph: DataGraph, query: PatternQuery, budget: Budget, profile=None
    ) -> Iterator[Tuple[int, ...]]:
        """Lazily enumerate occurrences of a child-only query on ``graph``.

        The streaming primitive every engine implements.  Implementations
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

    def _graph_for(self, query: PatternQuery) -> Tuple[DataGraph, PatternQuery]:
        if not query.descendant_edges():
            return self.graph, query
        if self.descendant_mode == "reject":
            raise EngineError(
                f"{self.name} only supports child-only (edge-to-edge) queries"
            )
        if self._expanded_graph is None:
            if self._expanded_source is not None:
                self._expanded_graph = self._check_expanded(self._expanded_source())
            else:
                source = self._closure_source
                closure = source() if callable(source) else source
                self._expanded_graph, self._expansion_seconds = expand_descendant_edges(
                    self.graph, closure=closure
                )
                self._precompute_seconds += self._expansion_seconds
        rewritten_edges = [
            PatternEdge(edge.source, edge.target, EdgeType.CHILD) for edge in query.edges()
        ]
        return self._expanded_graph, query.with_edges(rewritten_edges, name=query.name)

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

        ``info`` receives the engine's precomputation cost, and — when it
        asks for per-operator actuals (EXPLAIN ANALYZE) — is threaded
        through to :meth:`_iter_evaluate` as its ``profile``.
        """
        budget = budget or self.budget
        graph, rewritten = self._graph_for(query)
        profile = None
        if info is not None:
            info["extra"] = {"precompute_seconds": self._precompute_seconds}
            if "operators" in info:
                profile = info
        clock = budget.start_clock()
        count = 0
        for occurrence in self._iter_evaluate(graph, rewritten, budget, profile=profile):
            clock.check_time()
            yield occurrence
            count += 1
            if clock.check_matches(count):
                return

    # ------------------------------------------------------------------ #
    # EXPLAIN
    # ------------------------------------------------------------------ #

    def _describe_plan(self, graph: DataGraph, query: PatternQuery) -> QueryPlan:
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
        graph, rewritten = self._graph_for(query)
        plan = self._describe_plan(graph, rewritten)
        plan.query = query.name or "query"
        expanded = graph is not self.graph
        plan.artifacts.setdefault("expanded_graph", expanded)
        if expanded:
            plan.artifacts.setdefault("descendant_mode", self.descendant_mode)
        return plan
