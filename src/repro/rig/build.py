"""BuildRIG: construct a (refined) runtime index graph (Algorithm 4).

Two phases:

1. **node selection** — choose ``cos(q)`` for every query node.  The refined
   RIG uses double simulation (optionally preceded by the node pre-filter);
   the GM-F ablation uses the pre-filter only; the match RIG uses the raw
   match sets.
2. **node expansion** — for every query edge and every tail candidate,
   compute the head candidates it connects to.  Direct edges use adjacency
   intersections (bitIter) or per-pair binary search (binSearch, for the
   Fig. 12(a) ablation); a reachability edge is expanded for all its tails at
   once, by one sweep of the SCC condensation
   (:meth:`MatchContext.expand_reachability`, the batch checking of §4.5).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.query.pattern import PatternEdge, PatternQuery
from repro.query.transitive import transitive_reduction
from repro.rig.graph import RuntimeIndexGraph
from repro.simulation.context import ChildCheckMethod, MatchContext
from repro.simulation.fbsim import SimulationOptions, SimulationResult, fbsim, fbsim_basic
from repro.simulation.matchsets import node_prefilter


@dataclass
class RIGOptions:
    """Configuration of BuildRIG (GM and its ablations)."""

    #: Node-selection strategy: "double_sim" (GM / GM-S), "prefilter" (GM-F)
    #: or "match" (no filtering: the match RIG).
    filter_mode: str = "double_sim"
    #: Apply the node pre-filter before double simulation (GM yes, GM-S no).
    prefilter: bool = True
    #: Which double-simulation algorithm to use: "fbsim" (Dag+Δ) or "basic".
    simulation_algorithm: str = "fbsim"
    #: Tuning options forwarded to the simulation algorithm.
    simulation_options: SimulationOptions = field(default_factory=SimulationOptions)
    #: How direct-connectivity constraints are checked during expansion.
    child_check: ChildCheckMethod = ChildCheckMethod.BIT_BAT
    #: Apply query transitive reduction before building (GM yes, GM-NR no).
    transitive_reduction: bool = True
    #: Set representation inside the RIG ("set", "roaring", "intbitset").
    set_kind: str = "set"
    #: Drop candidates with no surviving adjacency after expansion.
    prune_after_expand: bool = True


@dataclass
class RIGBuildReport:
    """Timings and intermediate results of one BuildRIG run."""

    rig: RuntimeIndexGraph
    query: PatternQuery
    select_seconds: float
    expand_seconds: float
    simulation: Optional[SimulationResult]
    candidates_after_selection: int

    @property
    def total_seconds(self) -> float:
        """Total construction time (selection + expansion)."""
        return self.select_seconds + self.expand_seconds


def _select_candidates(
    context: MatchContext, query: PatternQuery, options: RIGOptions
) -> tuple[Dict[int, Set[int]], Optional[SimulationResult]]:
    """Node-selection phase: compute ``cos(q)`` for every query node."""
    if options.filter_mode == "match":
        return context.match_sets(query), None
    if options.filter_mode == "prefilter":
        return node_prefilter(context, query), None
    if options.filter_mode != "double_sim":
        raise ValueError(f"unknown filter mode {options.filter_mode!r}")

    initial = node_prefilter(context, query) if options.prefilter else None
    if options.simulation_algorithm == "basic":
        simulation = fbsim_basic(context, query, initial, options.simulation_options)
    else:
        simulation = fbsim(context, query, initial, options.simulation_options)
    return simulation.candidates, simulation


def _expand_edge(
    context: MatchContext,
    rig: RuntimeIndexGraph,
    edge: PatternEdge,
    candidates: Dict[int, Set[int]],
    options: RIGOptions,
) -> None:
    """Node-expansion phase for one query edge."""
    graph = context.graph
    tails = candidates[edge.source]
    heads = candidates[edge.target]
    if not tails or not heads:
        return

    if edge.is_child:
        if options.child_check is ChildCheckMethod.BIN_SEARCH:
            for tail in tails:
                matched = [head for head in heads if graph.has_edge_binary_search(tail, head)]
                rig.add_edge_candidates(edge, tail, matched)
        else:
            # bitIter / bitBat: adjacency-list ∩ candidate-set intersection.
            for tail in tails:
                matched = graph.successor_set(tail) & heads
                if matched:
                    rig.add_edge_candidates(edge, tail, matched)
        return

    # Reachability edge: every tail's heads from one condensation sweep.
    for tail, matched in context.expand_reachability(tails, heads).items():
        rig.add_edge_candidates(edge, tail, matched)


def build_rig(
    context: MatchContext,
    query: PatternQuery,
    options: Optional[RIGOptions] = None,
) -> RIGBuildReport:
    """Build a refined RIG for ``query`` over the context's data graph."""
    options = options or RIGOptions()
    if options.transitive_reduction:
        query = transitive_reduction(query)

    start = time.perf_counter()
    candidates, simulation = _select_candidates(context, query, options)
    select_seconds = time.perf_counter() - start

    rig = RuntimeIndexGraph(query, set_kind=options.set_kind)
    start = time.perf_counter()
    for node, nodes in candidates.items():
        rig.set_candidates(node, nodes)
    if not rig.is_empty():
        for edge in query.edges():
            _expand_edge(context, rig, edge, candidates, options)
        if options.prune_after_expand:
            rig.prune_unmatched_candidates()
    expand_seconds = time.perf_counter() - start

    return RIGBuildReport(
        rig=rig,
        query=query,
        select_seconds=select_seconds,
        expand_seconds=expand_seconds,
        simulation=simulation,
        candidates_after_selection=sum(len(nodes) for nodes in candidates.values()),
    )


def build_match_rig(context: MatchContext, query: PatternQuery, set_kind: str = "set") -> RIGBuildReport:
    """Build the match RIG ``G^m_Q`` (no filtering; candidate sets = match sets)."""
    options = RIGOptions(filter_mode="match", transitive_reduction=False,
                         prune_after_expand=False, set_kind=set_kind)
    return build_rig(context, query, options)
