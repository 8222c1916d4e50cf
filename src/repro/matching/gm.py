"""GM: the end-to-end RIG-based graph pattern matcher and its ablations.

:class:`GraphMatcher` wires together the full pipeline of the paper:

1. query transitive reduction (§3) — skipped by the GM-NR variant;
2. node selection — node pre-filter + double simulation (GM), double
   simulation only (GM-S), pre-filter only (GM-F) — the
   :class:`~repro.rig.build.GMVariant` picks steps 1–2 and is
   :func:`~repro.rig.build.build_rig`'s one switch;
3. RIG construction (BuildRIG, §4.5);
4. search-order selection (JO / RI / BJ, §5.2);
5. MJoin occurrence enumeration (§5.1).

``match`` (inherited, like ``match_stream`` / ``count`` / ``explain``, from
:class:`~repro.matching.stream.Evaluator`) returns a :class:`MatchReport`
with the matching time (steps 1–4) and the enumeration time (step 5)
separated, which is how the paper reports query time.
"""

from __future__ import annotations

import time
from typing import Iterator, MutableMapping, Optional, Sequence, Tuple

from repro.explain.plan import PlanOperator, QueryPlan, plan_digest
from repro.graph.digraph import DataGraph
from repro.matching.mjoin import mjoin_iter
from repro.matching.ordering import OrderingMethod, extension_estimate, search_order
from repro.matching.result import Budget
from repro.matching.stream import Evaluator
from repro.query.pattern import PatternQuery
from repro.rig.build import GMVariant, RIGBuildReport, build_rig
from repro.simulation.context import MatchContext


class GraphMatcher(Evaluator):
    """Evaluate hybrid pattern queries on a data graph with the GM pipeline.

    Parameters
    ----------
    graph:
        The data graph.
    context:
        An existing :class:`MatchContext` to reuse (shares the condensation
        and label tables across many queries, as the benchmarks do).
    variant:
        Which GM ablation to run (default the full GM pipeline); it alone
        configures BuildRIG's node selection and query reduction.
    ordering:
        Search-order strategy for the enumeration phase (default JO).
    budget:
        Default per-query limits; ``match`` accepts a per-call override.
    rig_cache:
        Optional mutable mapping ``PatternQuery -> RIGBuildReport``.  When
        given, ``match`` reuses the cached RIG of a previously seen query
        instead of rebuilding it (MJoin only reads the RIG, so reuse is
        safe), and records new builds into the mapping.  A
        :class:`~repro.session.QuerySession` passes its own cache here to
        share RIGs across queries and report hit/miss statistics.
    """

    def __init__(
        self,
        graph: DataGraph,
        context: Optional[MatchContext] = None,
        variant: GMVariant = GMVariant.GM,
        ordering: OrderingMethod = OrderingMethod.JO,
        budget: Optional[Budget] = None,
        rig_cache: Optional[MutableMapping[PatternQuery, RIGBuildReport]] = None,
    ) -> None:
        self.graph = graph
        self.context = context or MatchContext(graph)
        self.variant = variant
        self.ordering = ordering
        self.budget = budget or Budget()
        self.rig_cache = rig_cache

    def algorithm_name(self) -> str:
        """Name used in reports (variant plus non-default ordering)."""
        if self.ordering is OrderingMethod.JO:
            return self.variant.value
        return f"{self.variant.value}-{self.ordering.value.upper()}"

    name = property(algorithm_name)
    #: ``order`` fixes the search order; ``injective`` enumerates isomorphic
    #: (one-to-one) matches instead of homomorphic ones.
    options = ("order", "injective")

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def build_rig(self, query: PatternQuery) -> RIGBuildReport:
        """Run only the summarization phase (useful for the Fig. 13 ablation)."""
        return build_rig(self.context, query, self.variant)

    def _rig_for(self, query: PatternQuery) -> tuple[RIGBuildReport, bool]:
        """Fetch the query's RIG from the cache, building (and storing) on miss."""
        if self.rig_cache is not None:
            cached = self.rig_cache.get(query)
            if cached is not None:
                return cached, True
        report = build_rig(self.context, query, self.variant)
        if self.rig_cache is not None:
            self.rig_cache[query] = report
        return report, False

    @staticmethod
    def _phase_seconds(build: RIGBuildReport, rig_cached: bool) -> dict:
        """BuildRIG's phase timings, reported by the run that paid them (a
        RIG-cache miss); a cache hit adds nothing."""
        if rig_cached:
            return {}
        return {
            "rig_select_seconds": build.select_seconds,
            "rig_expand_seconds": build.expand_seconds,
        }

    def _search_order(self, rig) -> list:
        """This matcher's search order over ``rig``, computed once per RIG."""
        order = rig.memo(
            ("order", self.ordering),
            lambda: search_order(rig.query, rig, self.ordering),
        )
        return list(order)

    def iter_matches(
        self,
        query: PatternQuery,
        budget: Optional[Budget] = None,
        info: Optional[dict] = None,
        order: Optional[Sequence[int]] = None,
        injective: bool = False,
    ) -> Iterator[Tuple[int, ...]]:
        """Lazily enumerate occurrences of ``query`` (the streaming primitive).

        A generator over the full GM pipeline: the matching phase (steps
        1–4: reduction, filtering, RIG, search order) runs on the first
        ``next()``, then occurrences stream straight out of the MJoin
        backtracking search — each one yielded the moment its embedding
        completes; the match cap and the budget clock's time / cancellation
        checks are the enumerator's.  Stops at ``budget.max_matches``; raises
        :class:`~repro.exceptions.TimeoutExceeded` /
        :class:`~repro.exceptions.QueryCancelled` on budget exhaustion;
        closing the generator abandons the search mid-backtrack.

        The matching-phase timing and RIG statistics are recorded in
        ``info`` once the pipeline reaches enumeration.
        """
        budget = budget or self.budget
        start = time.perf_counter()
        report, rig_cached = self._rig_for(query)
        rig = report.rig
        # Shared with the enumerator: mjoin_iter flushes its candidate /
        # intersection work counters into this dict when it finishes (or is
        # closed), and because MatchStream reads ``extra`` at report time
        # the late flush is visible in the final MatchReport.
        mjoin_stats = {"candidates": 0, "intersections": 0}
        if rig.is_empty():
            if info is not None:
                info["matching_seconds"] = time.perf_counter() - start
                info["root"] = mjoin_stats
                info["extra"] = {
                    "rig_size": rig.size(),
                    "empty_rig": True,
                    "rig_cached": rig_cached,
                    **self._phase_seconds(report, rig_cached),
                }
            return
        chosen_order = list(order) if order is not None else self._search_order(rig)
        if info is not None:
            info["matching_seconds"] = time.perf_counter() - start
            info["root"] = mjoin_stats
            info["extra"] = {
                "rig_size": rig.size(),
                "rig_nodes": rig.num_rig_nodes(),
                "rig_edges": rig.num_rig_edges(),
                "rig_physical_edges": rig.num_physical_edges(),
                "search_order": chosen_order,
                "simulation_passes": report.simulation.passes if report.simulation else 0,
                "rig_cached": rig_cached,
                **self._phase_seconds(report, rig_cached),
                "mjoin": mjoin_stats,
                # Joins this execution to its EXPLAIN output: the slow-query
                # log copies the digest, and explain() on the same
                # query/ordering produces the same value.
                "plan_digest": plan_digest(self.name, self.ordering.value, chosen_order),
            }
        yield from mjoin_iter(
            rig,
            order=chosen_order,
            budget=budget,
            injective=injective,
            stats=mjoin_stats,
            step_stats=info.get("operators") if info is not None else None,
        )

    # ------------------------------------------------------------------ #
    # EXPLAIN
    # ------------------------------------------------------------------ #

    def describe_plan(
        self,
        query: PatternQuery,
        order: Optional[Sequence[int]] = None,
        injective: bool = False,
    ) -> QueryPlan:
        """The GM pipeline's plan-only :class:`QueryPlan` for ``query``.

        Runs the matching phase (reduction, filtering, RIG, search order)
        but never enumerates: the per-step estimates are the RIG
        candidate-set cardinalities the order selector itself consulted.
        Under ``explain(analyze=True)`` each step also carries MJoin's
        per-position counters.
        """
        build, rig_cached = self._rig_for(query)
        rig = build.rig
        reduced = build.query
        empty = rig.is_empty()
        if order is not None:
            chosen_order = list(order)
        elif empty:
            chosen_order = list(reduced.nodes())
        else:
            chosen_order = self._search_order(rig)

        steps = []
        for position, node in enumerate(chosen_order):
            constraints = []
            uses_reachability = False
            placed = set(chosen_order[:position])
            for edge in reduced.edges():
                if (edge.source == node and edge.target in placed) or (
                    edge.target == node and edge.source in placed
                ):
                    constraints.append(repr(edge))
                    uses_reachability = uses_reachability or edge.is_descendant
            details = {"position": position, "node": node}
            if constraints:
                details["constraints"] = constraints
            if uses_reachability:
                details["reachability_index"] = "condensation"
            steps.append(
                PlanOperator(
                    op="mjoin_extend",
                    label=f"extend u{node} [{reduced.label(node)}]",
                    estimate=rig.candidate_count(node),
                    details=details,
                )
            )
        root = PlanOperator(
            op="mjoin",
            label=f"MJoin [{self.name}]",
            estimate=None if empty else self._estimate_rows(rig),
            details={"injective": injective},
            children=steps,
        )
        return QueryPlan(
            query=query.name or "query",
            engine=self.name,
            analyze=False,
            root=root,
            ordering=self.ordering.value,
            vertex_order=chosen_order,
            artifacts={
                "reachability_index": "condensation",
                "rig_cached": rig_cached,
                **self._phase_seconds(build, rig_cached),
                "rig_size": rig.size(),
                "rig_edges": rig.num_rig_edges(),
                "rig_physical_edges": rig.num_physical_edges(),
                "simulation_passes": build.simulation.passes if build.simulation else 0,
                "simulation_checks": build.simulation.checks if build.simulation else 0,
                "condensation_sweeps": build.condensation_sweeps,
                "condensation_sweeps_served": build.condensation_sweeps_served,
                "transitive_reduction": self.variant is not GMVariant.GM_NR,
            },
        )

    @staticmethod
    def _estimate_rows(rig) -> int:
        """Independence-assumption occurrence estimate from RIG statistics."""
        estimate, placed = 1.0, set()
        for node in rig.query.nodes():
            estimate = extension_estimate(rig, node, placed, estimate)
            placed.add(node)
        return int(round(estimate))
