"""BuildRIG: construct a (refined) runtime index graph (Algorithm 4).

Two phases:

1. **node selection** — choose ``cos(q)`` for every query node.  The refined
   RIG uses double simulation (optionally preceded by the node pre-filter);
   the GM-F ablation uses the pre-filter only; the match RIG uses the raw
   match sets.
2. **node expansion** — for every query edge, compute both adjacency
   directions (tail -> heads, head -> tails) and hand the two dicts to
   :meth:`RuntimeIndexGraph.set_edge_adjacency`, which owns them from then
   on.  Nothing is assembled pair by pair: a direct edge is one C-level
   adjacency-list ∩ candidate-set intersection per tail and per head
   (bitIter / bitBat; binSearch, the Fig. 12(a) ablation, tests each pair and
   transposes), and a reachability edge is one sweep of the SCC condensation
   per direction (:meth:`MatchContext.expand_reachability`, the batch
   checking of §4.5) whose equal answers — every tail of one component —
   share one frozen set object.

Both phases draw their condensation cones from one
:class:`~repro.simulation.context.Cones` memo made per ``build_rig`` call:
each (direction, component set) is swept once, by whichever fbsim check or
expansion asks first, and the memo is dropped with the build (the report
keeps only its two counts).  After expansion a candidate may have lost every
partner on some edge; ``prune_after_expand`` removes it with
:meth:`RuntimeIndexGraph.prune_unmatched_candidates` — unless the simulation
reached its fixpoint (its last pass pruned nothing), where every candidate
already has a partner on every incident edge and the prune could remove
nothing.  GM-F (pre-filter only) and ``max_passes`` / ``prune_threshold``
runs still prune.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.query.pattern import EdgeType, PatternEdge, PatternQuery
from repro.query.transitive import transitive_reduction
from repro.rig.graph import RuntimeIndexGraph
from repro.simulation.context import ChildCheckMethod, Cones, Gains, MatchContext
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
    #: Drop candidates with no surviving adjacency after expansion.  Skipped
    #: after a simulation that reached its fixpoint: it would remove nothing.
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
    context: MatchContext, query: PatternQuery, options: RIGOptions, cones: Cones
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
        simulation = fbsim_basic(context, query, initial, options.simulation_options, cones)
    else:
        simulation = fbsim(context, query, initial, options.simulation_options, cones)
    return simulation.candidates, simulation


def _expand_edge(
    context: MatchContext,
    rig: RuntimeIndexGraph,
    edge: PatternEdge,
    candidates: Dict[int, Set[int]],
    options: RIGOptions,
    cones: Cones,
) -> None:
    """Node-expansion phase for one query edge."""
    graph = context.graph
    tails = candidates[edge.source]
    heads = candidates[edge.target]
    if not tails or not heads:
        return

    make_set = rig.make_set
    if not edge.is_child:
        forward, backward = context.expand_reachability(tails, heads, make_set, cones)
    elif options.child_check is ChildCheckMethod.BIN_SEARCH:
        pairs = [(u, v) for u in tails for v in heads if graph.has_edge_binary_search(u, v)]
        forward = _index(pairs, make_set)
        backward = _index(((v, u) for u, v in pairs), make_set)
    else:
        # bitIter / bitBat: adjacency-list ∩ candidate-set intersections.
        forward = {
            u: make_set(matched) for u in tails if (matched := graph.successor_set(u) & heads)
        }
        backward = {
            v: make_set(matched) for v in heads if (matched := graph.predecessor_set(v) & tails)
        }
    rig.set_edge_adjacency(edge, forward, backward)


def _index(pairs, make_set) -> Dict[int, object]:
    """``{first: make_set(seconds)}`` over ``pairs``."""
    lists: Dict[int, list] = {}
    for first, second in pairs:
        lists.setdefault(first, []).append(second)
    return {first: make_set(seconds) for first, seconds in lists.items()}


def build_rig(
    context: MatchContext,
    query: PatternQuery,
    options: Optional[RIGOptions] = None,
) -> RIGBuildReport:
    """Build a refined RIG for ``query`` over the context's data graph."""
    options = options or RIGOptions()
    if options.transitive_reduction:
        query = transitive_reduction(query)

    cones = Cones()  # this build's alone: dropped with it, never shared
    start = time.perf_counter()
    candidates, simulation = _select_candidates(context, query, options, cones)
    select_seconds = time.perf_counter() - start
    # At the simulation's fixpoint every candidate has a partner on every
    # incident edge, so the RIG-level prune could remove nothing.
    exact = simulation is not None and simulation.pruned_per_pass[-1] == 0

    rig = RuntimeIndexGraph(query, set_kind=options.set_kind)
    start = time.perf_counter()
    for node, nodes in candidates.items():
        rig.set_candidates(node, nodes)
    if not rig.is_empty():
        for edge in query.edges():
            _expand_edge(context, rig, edge, candidates, options, cones)
        if options.prune_after_expand and not exact:
            rig.prune_unmatched_candidates()
    expand_seconds = time.perf_counter() - start

    return RIGBuildReport(
        rig=rig,
        query=query,
        select_seconds=select_seconds,
        expand_seconds=expand_seconds,
        simulation=simulation,
        candidates_after_selection=sum(len(nodes) for nodes in candidates.values()),
        condensation_sweeps=cones.computed,
        condensation_sweeps_served=cones.served,
    )


def build_match_rig(context: MatchContext, query: PatternQuery, set_kind: str = "set") -> RIGBuildReport:
    """Build the match RIG ``G^m_Q`` (no filtering; candidate sets = match sets)."""
    options = RIGOptions(filter_mode="match", transitive_reduction=False,
                         prune_after_expand=False, set_kind=set_kind)
    return build_rig(context, query, options)
