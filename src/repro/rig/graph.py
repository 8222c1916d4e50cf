"""The runtime index graph data structure.

A :class:`RuntimeIndexGraph` stores, for a fixed pattern query:

* ``cos(q)`` — the candidate occurrence set of every query node;
* for every query edge ``(p, q)`` and every candidate ``vp ∈ cos(p)``, the
  *forward adjacency list* — the candidates of ``q`` that ``vp`` connects to
  under the edge's semantics — and symmetrically the *backward adjacency
  list* of every candidate of ``q``.

Adjacency is indexed by query edge, as §4.5 describes ("the outgoing and
incoming edges of vq are indexed by the parents and children of query node
q"), so the enumeration phase can intersect exactly the lists it needs.
The paper's engine stores these sets as Roaring bitmaps (§6); here they are
CPython's built-in sets, which already do set algebra in C: ``cos(q)`` is a
``set`` and every adjacency list a ``frozenset``.

:meth:`RuntimeIndexGraph.prune_unmatched_candidates` is the RIG-level
fixpoint that drops candidates with no partner left on some edge.
:func:`~repro.rig.build.build_rig` alone decides when it runs: exactly when
node selection stopped short of the double simulation's fixpoint (GM-F, a
``max_passes`` cut).  After an exact simulation it provably removes nothing
and is skipped; the match RIG never prunes.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Iterator, Set, Tuple

from repro.query.pattern import PatternEdge, PatternQuery

#: One direction of one query edge's adjacency: candidate -> its partners.
Adjacency = Dict[int, FrozenSet[int]]

#: A candidate absent from an adjacency dict has no partner on that edge.
_EMPTY: FrozenSet[int] = frozenset()


class RuntimeIndexGraph:
    """K-partite candidate graph for one pattern query over one data graph.

    Ownership and sharing.  :meth:`set_edge_adjacency` takes ownership of the
    two dicts it is given, and from then on adjacency is **read-only**:
    candidates with equal answers (all tails of one SCC, say) hold the *same*
    ``frozenset``, so the type enforces the sharing rule (and
    ``set & frozenset`` is still a ``set``).  MJoin intersects (``&``),
    ordering takes ``len``, :meth:`prune_unmatched_candidates` only shrinks
    ``cos(q)`` — the one mutable ``set`` per query node.  :meth:`num_rig_edges`
    counts candidate pairs (logical); :meth:`num_physical_edges` counts what
    is stored.
    """

    def __init__(self, query: PatternQuery) -> None:
        self.query = query
        self._cos: Dict[int, Set[int]] = {node: set() for node in query.nodes()}
        # forward adjacency: (edge endpoints) -> {tail candidate -> set of head candidates}
        self._forward: Dict[Tuple[int, int], Adjacency] = {
            edge.endpoints(): {} for edge in query.edges()
        }
        self._backward: Dict[Tuple[int, int], Adjacency] = {
            edge.endpoints(): {} for edge in query.edges()
        }
        # Values derived from the sets above (aggregate sizes, search orders,
        # MJoin plans).  Every mutator clears it, so a derived value lives
        # exactly as long as the RIG state it was computed from.
        self._memo: Dict[object, object] = {}

    # ------------------------------------------------------------------ #
    # construction API (used by BuildRIG)
    # ------------------------------------------------------------------ #

    def set_candidates(self, query_node: int, candidates: Iterable[int]) -> None:
        """Define ``cos(query_node)``."""
        self._memo.clear()
        self._cos[query_node] = set(candidates)

    def set_edge_adjacency(self, edge: PatternEdge, forward: Adjacency, backward: Adjacency) -> None:
        """Install both adjacency directions of ``edge`` and take ownership.

        ``forward`` maps a tail to the ``frozenset`` of the heads it
        connects to, ``backward`` a head to its tails; they must describe
        the same pairs, hold no empty set, and may share objects freely.
        """
        self._memo.clear()
        self._forward[edge.endpoints()] = forward
        self._backward[edge.endpoints()] = backward

    # ------------------------------------------------------------------ #
    # read API (used by MJoin and statistics)
    # ------------------------------------------------------------------ #

    def memo(self, key, compute: Callable[[], object]):
        """``compute()``, remembered under ``key`` until the RIG next changes.

        The one place derived read-side state lives: the aggregate sizes
        below, the search order per ordering method, and MJoin's compiled
        plans.  It dies with the RIG (a session dropping its RIG cache drops
        these too) and is cleared by every mutator.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    def candidates(self, query_node: int) -> Set[int]:
        """``cos(query_node)``."""
        return self._cos[query_node]

    def candidate_count(self, query_node: int) -> int:
        """``|cos(query_node)|``."""
        return len(self._cos[query_node])

    def forward_index(self, source: int, target: int) -> Adjacency:
        """The whole forward adjacency of edge (source, target): tail -> heads."""
        return self._forward[(source, target)]

    def backward_index(self, source: int, target: int) -> Adjacency:
        """The whole backward adjacency of edge (source, target): head -> tails."""
        return self._backward[(source, target)]

    def edge_candidate_count(self, source: int, target: int) -> int:
        """``|cos(e)|`` for the query edge ``(source, target)``."""
        return self.memo(
            ("edge_count", source, target),
            lambda: sum(map(len, self._forward[(source, target)].values())),
        )

    def edge_candidates(self, source: int, target: int) -> Iterator[Tuple[int, int]]:
        """Iterate over the candidate pairs of a query edge."""
        for tail, heads in self._forward[(source, target)].items():
            for head in heads:
                yield (tail, head)

    # ------------------------------------------------------------------ #
    # aggregate measures
    # ------------------------------------------------------------------ #

    def num_rig_nodes(self) -> int:
        """Total number of candidate (query node, data node) pairs."""
        return self.memo("nodes", lambda: sum(map(len, self._cos.values())))

    def num_rig_edges(self) -> int:
        """Total number of candidate edge pairs across all query edges."""
        return self.memo(
            "edges",
            lambda: sum(self.edge_candidate_count(*endpoints) for endpoints in self._forward),
        )

    def num_physical_edges(self) -> int:
        """Adjacency entries actually stored: ``len`` summed over the distinct
        set objects of both directions.  With nothing shared this is
        ``2 * num_rig_edges()``."""

        def count() -> int:
            indexes = list(self._forward.values()) + list(self._backward.values())
            distinct = {id(adjacency): adjacency for index in indexes for adjacency in index.values()}
            return sum(map(len, distinct.values()))

        return self.memo("physical_edges", count)

    def size(self) -> int:
        """Total RIG size: candidate nodes plus candidate edges."""
        return self.num_rig_nodes() + self.num_rig_edges()

    def is_empty(self) -> bool:
        """True if some query node has no candidates (the answer is empty)."""
        return self.memo("empty", lambda: not all(map(len, self._cos.values())))

    def prune_unmatched_candidates(self) -> int:
        """Drop candidates that lost all adjacency on some incident query edge.

        After expansion a candidate may have an empty adjacency list for one
        of its query node's edges, which means it cannot participate in any
        occurrence.  Removing such nodes tightens the RIG; returns the number
        of candidates removed.  That happens only when the candidates were not
        an exact double simulation — BuildRIG skips the call otherwise.
        """
        removed_total = 0
        changed = True
        while changed:
            changed = False
            for edge in self.query.edges():
                key = edge.endpoints()
                source_candidates = self._cos[edge.source]
                target_candidates = self._cos[edge.target]
                forward = self._forward[key]
                backward = self._backward[key]
                # Tails must have at least one head among current candidates.
                dead_tails = [
                    tail
                    for tail in source_candidates
                    if forward.get(tail, _EMPTY).isdisjoint(target_candidates)
                ]
                for tail in dead_tails:
                    source_candidates.discard(tail)
                    removed_total += 1
                    changed = True
                dead_heads = [
                    head
                    for head in target_candidates
                    if backward.get(head, _EMPTY).isdisjoint(source_candidates)
                ]
                for head in dead_heads:
                    target_candidates.discard(head)
                    removed_total += 1
                    changed = True
        self._memo.clear()
        return removed_total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RuntimeIndexGraph(query={self.query.name!r}, nodes={self.num_rig_nodes()}, "
            f"edges={self.num_rig_edges()})"
        )
