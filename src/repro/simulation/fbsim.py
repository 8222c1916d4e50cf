"""Double-simulation algorithms: FBSimBas and FBSim (Dag+Δ).

Both compute the same relation — the double simulation ``FB`` of the query
by the data graph (Definition 1) — but differ in the order in which they
examine query edges, which governs how many passes are needed to reach the
fixpoint (the Fig. 12(b) comparison).  FBSim walks a dag decomposition of
the query in topological order (FBSimDag, Algorithm 2) and sweeps the back
edges it set aside after each pass (Algorithm 3); on a dag query that is the
same loop with no back edges.  They share:

* initial candidates: the match sets ``ms(q)`` (or a caller-provided
  refinement, e.g. the node pre-filter output);
* a *forward* check per edge ``(qi, qj)``: drop from ``FB(qi)`` every node
  with no partner in ``FB(qj)``;
* a *backward* check per edge: drop from ``FB(qj)`` every node with no
  partner in ``FB(qi)``.

Each check is one semijoin of the candidate set against its partner set
(:meth:`MatchContext.tails_reaching` / ``heads_reached``), as §4.5's batch
checking describes.  On a direct edge ("bitBat") a candidate's adjacency
``frozenset`` is tested for a common node with the partner set, stopping at
the first one; on a reachability edge the semijoin runs on the SCC
condensation.  The condensation cones those semijoins need are kept in a
:class:`~repro.simulation.context.Cones` memo for the whole run (and, under
``build_rig``, for its expansion phase too), so a cone is swept once however
many incident edges and passes ask for it.  Per-node methods (binSearch /
bitIter) are also available for direct edges, for the Fig. 12(a) ablation.

FBSim's change flags (DagMap) re-run a check in a later pass only when its
*partner* side changed since the check last ran: the head set for a forward
check, the tail set for a backward one.  A candidate set that merely shrank
cannot make its remaining members lose a partner, so a skipped check could
not have pruned, and the candidates after every pass equal the unflagged
run's.  ``SimulationResult.checks`` counts the checks a run made.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.exceptions import QueryError
from repro.query.classify import dag_decomposition, topological_order
from repro.query.pattern import PatternEdge, PatternQuery
from repro.simulation.context import ChildCheckMethod, Cones, MatchContext


@dataclass
class SimulationOptions:
    """Tuning knobs for double-simulation computation (§4.4–4.5)."""

    #: Stop after this many passes (approximate FB).  The paper's evaluation
    #: fixes this to 3; ``None`` runs to the fixpoint (exact FB).
    max_passes: Optional[int] = None
    #: Skip re-checking a constraint whose partner set did not change since
    #: the check last ran (the "DagMap" change-flag optimisation).
    use_change_flags: bool = True
    #: How direct-connectivity constraints are checked.
    child_check: ChildCheckMethod = ChildCheckMethod.BIT_BAT


@dataclass
class SimulationResult:
    """Outcome of a double-simulation computation."""

    candidates: Dict[int, Set[int]]
    passes: int
    pruned: int
    algorithm: str
    elapsed_seconds: float
    pruned_per_pass: List[int] = field(default_factory=list)
    #: Edge checks (forward and backward) the run made; FBSim's change flags
    #: skip the ones that could not prune.
    checks: int = 0

    def is_empty(self) -> bool:
        """True if some query node has no candidates (the answer is empty)."""
        return any(not nodes for nodes in self.candidates.values())

    def total_candidates(self) -> int:
        """Total number of (query node, data node) candidate pairs."""
        return sum(len(nodes) for nodes in self.candidates.values())


# ---------------------------------------------------------------------- #
# pruning primitives
# ---------------------------------------------------------------------- #


def _prune_tail(
    context: MatchContext,
    edge: PatternEdge,
    candidates: Dict[int, Set[int]],
    method: ChildCheckMethod,
    cones: Cones,
) -> int:
    """Forward check: prune ``candidates[edge.source]``.  Returns #pruned."""
    tail_set = candidates[edge.source]
    head_set = candidates[edge.target]
    if not tail_set:
        return 0
    if not head_set:
        pruned = len(tail_set)
        tail_set.clear()
        return pruned
    if edge.is_descendant or method is ChildCheckMethod.BIT_BAT:
        survivors = context.tails_reaching(edge, tail_set, head_set, cones)
    else:
        graph = context.graph
        if method is ChildCheckMethod.BIN_SEARCH:
            survivors = {
                v
                for v in tail_set
                if any(graph.has_edge_binary_search(v, w) for w in head_set)
            }
        else:  # BIT_ITER: per-node adjacency ∩ candidate-set intersection
            survivors = {v for v in tail_set if graph.successor_set(v) & head_set}
    pruned = len(tail_set) - len(survivors)
    if pruned:
        candidates[edge.source] = survivors
    return pruned


def _prune_head(
    context: MatchContext,
    edge: PatternEdge,
    candidates: Dict[int, Set[int]],
    method: ChildCheckMethod,
    cones: Cones,
) -> int:
    """Backward check: prune ``candidates[edge.target]``.  Returns #pruned."""
    tail_set = candidates[edge.source]
    head_set = candidates[edge.target]
    if not head_set:
        return 0
    if not tail_set:
        pruned = len(head_set)
        head_set.clear()
        return pruned
    if edge.is_descendant or method is ChildCheckMethod.BIT_BAT:
        survivors = context.heads_reached(edge, head_set, tail_set, cones)
    else:
        graph = context.graph
        if method is ChildCheckMethod.BIN_SEARCH:
            survivors = {
                v
                for v in head_set
                if any(graph.has_edge_binary_search(u, v) for u in tail_set)
            }
        else:
            survivors = {v for v in head_set if graph.predecessor_set(v) & tail_set}
    pruned = len(head_set) - len(survivors)
    if pruned:
        candidates[edge.target] = survivors
    return pruned


def _initial_candidates(
    context: MatchContext, query: PatternQuery, initial: Optional[Dict[int, Set[int]]]
) -> Dict[int, Set[int]]:
    if initial is None:
        return context.match_sets(query)
    return {node: set(initial[node]) for node in query.nodes()}


# ---------------------------------------------------------------------- #
# FBSimBas — arbitrary edge order (Algorithm 1)
# ---------------------------------------------------------------------- #


def fbsim_basic(
    context: MatchContext,
    query: PatternQuery,
    initial: Optional[Dict[int, Set[int]]] = None,
    options: Optional[SimulationOptions] = None,
    cones: Optional[Cones] = None,
) -> SimulationResult:
    """Compute double simulation by iterating over edges in arbitrary order."""
    options = options or SimulationOptions()
    cones = cones or Cones()
    start = time.perf_counter()
    candidates = _initial_candidates(context, query, initial)
    edges = query.edges()

    passes = checks = 0
    total_pruned = 0
    pruned_per_pass: List[int] = []
    while True:
        passes += 1
        pruned_this_pass = 0
        for edge in edges:  # forwardPrune
            pruned_this_pass += _prune_tail(context, edge, candidates, options.child_check, cones)
        for edge in edges:  # backwardPrune
            pruned_this_pass += _prune_head(context, edge, candidates, options.child_check, cones)
        checks += 2 * len(edges)
        total_pruned += pruned_this_pass
        pruned_per_pass.append(pruned_this_pass)
        if pruned_this_pass == 0:
            break
        if options.max_passes is not None and passes >= options.max_passes:
            break

    return SimulationResult(
        candidates=candidates,
        passes=passes,
        pruned=total_pruned,
        algorithm="FBSimBas",
        elapsed_seconds=time.perf_counter() - start,
        pruned_per_pass=pruned_per_pass,
        checks=checks,
    )


# ---------------------------------------------------------------------- #
# FBSim — dag + back edges (Algorithms 2 and 3)
# ---------------------------------------------------------------------- #


def _dag_pass(
    context: MatchContext,
    order: Sequence[int],
    out_edges: Dict[int, List[PatternEdge]],
    in_edges: Dict[int, List[PatternEdge]],
    candidates: Dict[int, Set[int]],
    method: ChildCheckMethod,
    dirty: Optional[Set[int]],
    cones: Cones,
) -> Tuple[int, Set[int], int]:
    """One FBSimDag pass (bottom-up forward sim, then top-down backward sim).

    ``dirty`` holds the query nodes whose candidates changed in the previous
    pass (``None``: check everything); a check runs when its partner node is
    dirty or changed earlier in this pass.  Returns ``(pruned,
    changed_nodes, checks)``.
    """
    pruned = checks = 0
    changed: Set[int] = set()

    # forwardSim: reverse topological order, check outgoing edges.
    for node in reversed(order):
        for edge in out_edges[node]:
            if dirty is not None and edge.target not in dirty and edge.target not in changed:
                continue
            checks += 1
            removed = _prune_tail(context, edge, candidates, method, cones)
            if removed:
                pruned += removed
                changed.add(node)

    # backwardSim: topological order, check incoming edges.
    for node in order:
        for edge in in_edges[node]:
            if dirty is not None and edge.source not in dirty and edge.source not in changed:
                continue
            checks += 1
            removed = _prune_head(context, edge, candidates, method, cones)
            if removed:
                pruned += removed
                changed.add(node)

    return pruned, changed, checks


def fbsim(
    context: MatchContext,
    query: PatternQuery,
    initial: Optional[Dict[int, Set[int]]] = None,
    options: Optional[SimulationOptions] = None,
    cones: Optional[Cones] = None,
) -> SimulationResult:
    """Compute double simulation for an arbitrary pattern (Dag+Δ strategy).

    ``cones`` is the memo of reachability cones the caller's build shares
    with its expansion phase (``build_rig``); without one, this call keeps
    its own, shared by its passes only.
    """
    options = options or SimulationOptions()
    cones = cones or Cones()
    start = time.perf_counter()
    order = topological_order(query)
    if order is None:
        dag_edges, back_edges = dag_decomposition(query)
        order = topological_order(query.with_edges(dag_edges, name=f"{query.name}-dag"))
        if order is None:  # pragma: no cover - decomposition guarantees a dag
            raise QueryError("dag decomposition produced a cyclic edge set")
    else:  # a dag keeps its own edge order, and so its pass-by-pass counts
        dag_edges, back_edges = query.edges(), []
    out_edges: Dict[int, List[PatternEdge]] = {node: [] for node in query.nodes()}
    in_edges: Dict[int, List[PatternEdge]] = {node: [] for node in query.nodes()}
    for edge in dag_edges:
        out_edges[edge.source].append(edge)
        in_edges[edge.target].append(edge)

    method = options.child_check
    candidates = _initial_candidates(context, query, initial)
    passes = checks = 0
    total_pruned = 0
    pruned_per_pass: List[int] = []
    dirty: Optional[Set[int]] = None  # None = first pass, check everything
    while True:
        passes += 1
        pruned_this_pass, changed, dag_checks = _dag_pass(
            context, order, out_edges, in_edges, candidates, method, dirty, cones
        )
        checks += dag_checks + 2 * len(back_edges)
        # FBSimBas-style sweep over the back edges.
        for edge in back_edges:
            removed = _prune_tail(context, edge, candidates, method, cones)
            if removed:
                pruned_this_pass += removed
                changed.add(edge.source)
            removed = _prune_head(context, edge, candidates, method, cones)
            if removed:
                pruned_this_pass += removed
                changed.add(edge.target)
        total_pruned += pruned_this_pass
        pruned_per_pass.append(pruned_this_pass)
        if pruned_this_pass == 0:
            break
        if options.max_passes is not None and passes >= options.max_passes:
            break
        dirty = changed if options.use_change_flags else None

    return SimulationResult(
        candidates=candidates,
        passes=passes,
        pruned=total_pruned,
        algorithm="FBSim",
        elapsed_seconds=time.perf_counter() - start,
        pruned_per_pass=pruned_per_pass,
        checks=checks,
    )


# ---------------------------------------------------------------------- #
# one-sided simulations (used by tests and by the dual-simulation baseline)
# ---------------------------------------------------------------------- #


def forward_simulation(
    context: MatchContext,
    query: PatternQuery,
    initial: Optional[Dict[int, Set[int]]] = None,
) -> Dict[int, Set[int]]:
    """Largest relation satisfying only the forward (outgoing) conditions."""
    candidates = _initial_candidates(context, query, initial)
    method, cones = ChildCheckMethod.BIT_BAT, Cones()
    while True:
        pruned = 0
        for edge in query.edges():
            pruned += _prune_tail(context, edge, candidates, method, cones)
        if pruned == 0:
            return candidates


def backward_simulation(
    context: MatchContext,
    query: PatternQuery,
    initial: Optional[Dict[int, Set[int]]] = None,
) -> Dict[int, Set[int]]:
    """Largest relation satisfying only the backward (incoming) conditions."""
    candidates = _initial_candidates(context, query, initial)
    method, cones = ChildCheckMethod.BIT_BAT, Cones()
    while True:
        pruned = 0
        for edge in query.edges():
            pruned += _prune_head(context, edge, candidates, method, cones)
        if pruned == 0:
            return candidates
