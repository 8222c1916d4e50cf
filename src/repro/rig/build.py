"""BuildRIG: construct a (refined) runtime index graph (Algorithm 4).

Two phases:

1. **node selection** — choose ``cos(q)`` for every query node.  The
   :class:`GMVariant` picks how: the node pre-filter then double simulation
   (GM, and GM-NR, which also skips the query's transitive reduction),
   double simulation alone (GM-S) or the pre-filter alone (GM-F).  Each
   simulation check is one semijoin (:meth:`MatchContext.tails_reaching` /
   ``heads_reached``): on a direct edge under bitBat a candidate's adjacency
   set is tested for a partner and the test stops at the first one, nothing
   is unioned.  The match RIG (:func:`build_match_rig`) keeps the raw match
   sets.
2. **node expansion** — for every query edge, compute both adjacency
   directions (tail -> heads, head -> tails) and hand the two dicts to
   :meth:`RuntimeIndexGraph.set_edge_adjacency`, which owns them from then
   on.  Nothing is assembled pair by pair: a direct edge is one C-level
   adjacency-set ∩ candidate-set intersection per tail and per head (bitIter
   and bitBat alike: here every partner is wanted, not the first; binSearch,
   the Fig. 12(a) ablation, tests each pair and transposes), and a
   reachability edge is one sweep of the SCC condensation per direction
   (:meth:`MatchContext.expand_reachability`, the batch checking of §4.5)
   whose equal answers — every tail of one component — share one frozen set
   object.

:class:`~repro.simulation.fbsim.SimulationOptions` is the one tuning struct:
its ``child_check`` drives both the simulation's checks and the expansion.

Both phases draw their condensation cones from one
:class:`~repro.simulation.context.Cones` memo made per ``build_rig`` call:
each (direction, component set) is swept once, by whichever fbsim check or
expansion asks first, and the memo is dropped with the build (the report
keeps only its two counts).  After expansion a candidate may have lost every
partner on some edge.  :meth:`RuntimeIndexGraph.prune_unmatched_candidates`
removes it exactly when selection stopped short of the simulation's fixpoint
— GM-F, or a ``max_passes`` cut: at the fixpoint (the last pass pruned
nothing) every candidate already has a partner on every incident edge and
the prune could remove nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.query.pattern import EdgeType, PatternEdge, PatternQuery
from repro.query.transitive import transitive_reduction
from repro.rig.graph import Adjacency, RuntimeIndexGraph
from repro.simulation.context import ChildCheckMethod, Cones, Gains, MatchContext
from repro.simulation.fbsim import SimulationOptions, SimulationResult, fbsim
from repro.simulation.matchsets import node_prefilter


class GMVariant(Enum):
    """The GM ablations used throughout the paper's experiments."""

    #: Full pipeline: pre-filter + double simulation + transitive reduction.
    GM = "GM"
    #: No node pre-filtering before double simulation.
    GM_S = "GM-S"
    #: Node pre-filtering only (no double simulation).
    GM_F = "GM-F"
    #: No query transitive reduction.
    GM_NR = "GM-NR"


@dataclass
class RIGBuildReport:
    """Timings and intermediate results of one BuildRIG run."""

    rig: RuntimeIndexGraph
    query: PatternQuery
    select_seconds: float
    expand_seconds: float
    simulation: Optional[SimulationResult]
    candidates_after_selection: int
    #: Condensation sweeps this build made, and the ones its cone memo
    #: answered instead (see :class:`~repro.simulation.context.Cones`).
    condensation_sweeps: int = 0
    condensation_sweeps_served: int = 0
    #: (tail label, head label) of the built query's direct edges, and of
    #: its reachability edges: what :meth:`survives` tests.
    label_pairs: Tuple[FrozenSet[Tuple[str, str]], FrozenSet[Tuple[str, str]]] = field(
        init=False, repr=False
    )

    @property
    def total_seconds(self) -> float:
        """Total construction time (selection + expansion)."""
        return self.select_seconds + self.expand_seconds

    def __post_init__(self) -> None:
        labels = self.query.labels
        direct: List[Tuple[str, str]] = []
        paths: List[Tuple[str, str]] = []
        for edge in self.query.edges():
            pair = (labels[edge.source], labels[edge.target])
            (direct if edge.edge_type is EdgeType.CHILD else paths).append(pair)
        self.label_pairs = (frozenset(direct), frozenset(paths))

    def survives(self, gains: Gains) -> bool:
        """Is this RIG still exact after a fold that gained ``gains``?

        The RIG is a function of the match sets of its query's labels and of
        the edge (path) relation between the labels of each direct
        (reachability) query edge; a fold with gains keeps every match set.
        """
        edges, paths = self.label_pairs
        return gains.edges.isdisjoint(edges) and gains.paths.isdisjoint(paths)


def _select_candidates(
    context: MatchContext,
    query: PatternQuery,
    variant: GMVariant,
    simulation: SimulationOptions,
    cones: Cones,
) -> Tuple[Dict[int, Set[int]], Optional[SimulationResult]]:
    """Node-selection phase: compute ``cos(q)`` for every query node."""
    if variant is GMVariant.GM_F:
        return node_prefilter(context, query), None
    initial = None if variant is GMVariant.GM_S else node_prefilter(context, query)
    result = fbsim(context, query, initial, simulation, cones)
    return result.candidates, result


def _expand(
    context: MatchContext,
    query: PatternQuery,
    candidates: Dict[int, Set[int]],
    child_check: ChildCheckMethod,
    cones: Cones,
) -> RuntimeIndexGraph:
    """Node-expansion phase: the RIG over ``candidates``, every edge set."""
    rig = RuntimeIndexGraph(query)
    for node, nodes in candidates.items():
        rig.set_candidates(node, nodes)
    if not rig.is_empty():
        for edge in query.edges():
            _expand_edge(context, rig, edge, candidates, child_check, cones)
    return rig


def _expand_edge(
    context: MatchContext,
    rig: RuntimeIndexGraph,
    edge: PatternEdge,
    candidates: Dict[int, Set[int]],
    child_check: ChildCheckMethod,
    cones: Cones,
) -> None:
    """Node-expansion phase for one query edge."""
    graph = context.graph
    tails = candidates[edge.source]
    heads = candidates[edge.target]
    if not tails or not heads:
        return

    if not edge.is_child:
        forward, backward = context.expand_reachability(tails, heads, cones)
    elif child_check is ChildCheckMethod.BIN_SEARCH:
        pairs = [(u, v) for u in tails for v in heads if graph.has_edge_binary_search(u, v)]
        forward = _index(pairs)
        backward = _index((v, u) for u, v in pairs)
    else:
        # bitIter / bitBat: adjacency-list ∩ candidate-set intersections.
        forward = {
            u: frozenset(matched) for u in tails if (matched := graph.successor_set(u) & heads)
        }
        backward = {
            v: frozenset(matched) for v in heads if (matched := graph.predecessor_set(v) & tails)
        }
    rig.set_edge_adjacency(edge, forward, backward)


def _index(pairs) -> Adjacency:
    """``{first: frozenset(seconds)}`` over ``pairs``."""
    lists: Dict[int, list] = {}
    for first, second in pairs:
        lists.setdefault(first, []).append(second)
    return {first: frozenset(seconds) for first, seconds in lists.items()}


def build_rig(
    context: MatchContext,
    query: PatternQuery,
    variant: GMVariant = GMVariant.GM,
    simulation: Optional[SimulationOptions] = None,
) -> RIGBuildReport:
    """Build the refined RIG of ``variant`` for ``query`` over the context's
    data graph, tuned by ``simulation``."""
    simulation = simulation or SimulationOptions()
    if variant is not GMVariant.GM_NR:
        query = transitive_reduction(query)

    cones = Cones()  # this build's alone: dropped with it, never shared
    start = time.perf_counter()
    candidates, result = _select_candidates(context, query, variant, simulation, cones)
    select_seconds = time.perf_counter() - start

    start = time.perf_counter()
    rig = _expand(context, query, candidates, simulation.child_check, cones)
    # Short of the fixpoint a candidate may have lost every partner.
    if not rig.is_empty() and (result is None or result.pruned_per_pass[-1]):
        rig.prune_unmatched_candidates()
    expand_seconds = time.perf_counter() - start

    return RIGBuildReport(
        rig=rig,
        query=query,
        select_seconds=select_seconds,
        expand_seconds=expand_seconds,
        simulation=result,
        candidates_after_selection=sum(len(nodes) for nodes in candidates.values()),
        condensation_sweeps=cones.computed,
        condensation_sweeps_served=cones.served,
    )


def build_match_rig(context: MatchContext, query: PatternQuery) -> RIGBuildReport:
    """Build the match RIG ``G^m_Q``: candidate sets are the match sets, the
    query is not reduced and nothing is pruned."""
    cones = Cones()
    start = time.perf_counter()
    candidates = context.match_sets(query)
    select_seconds = time.perf_counter() - start
    start = time.perf_counter()
    rig = _expand(context, query, candidates, ChildCheckMethod.BIT_BAT, cones)
    return RIGBuildReport(
        rig=rig,
        query=query,
        select_seconds=select_seconds,
        expand_seconds=time.perf_counter() - start,
        simulation=None,
        candidates_after_selection=sum(len(nodes) for nodes in candidates.values()),
        condensation_sweeps=cones.computed,
        condensation_sweeps_served=cones.served,
    )
