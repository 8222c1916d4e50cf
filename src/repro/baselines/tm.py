"""TM: the tree-based baseline.

TM evaluates a pattern query by (1) extracting a spanning tree of the query,
(2) evaluating the tree pattern, and (3) filtering every tree solution
against the query edges missing from the tree.  The tree evaluation follows
the standard two-phase holistic style: a bottom-up + top-down candidate
refinement over the tree (which is exact for trees) followed by a top-down
enumeration of tree occurrences.

The characteristic weakness the paper measures is that the number of tree
solutions can vastly exceed the number of query solutions; every tree
solution has to be checked against the non-tree edges, so TM's running time
is driven by an intermediate result it cannot avoid.  Tree solutions are
counted against the budget's intermediate cap and the wall-clock limit.

A descendant edge reads the SCC condensation sweep GM's RIG build uses: the
refinement's semijoins are ``tails_reaching`` / ``heads_reached`` and the
edge's pairs (tree adjacency and non-tree checks alike) one
``expand_reachability``, all under one ``Cones`` memo per query.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.graph.digraph import DataGraph
from repro.matching.result import Budget
from repro.matching.stream import Evaluator
from repro.query.classify import spanning_tree
from repro.query.pattern import PatternEdge, PatternQuery
from repro.query.transitive import transitive_reduction
from repro.simulation.context import Cones, MatchContext
from repro.simulation.matchsets import node_prefilter


class TMMatcher(Evaluator):
    """Tree-based pattern matcher (the TM baseline)."""

    name = "TM"

    def __init__(
        self,
        graph: DataGraph,
        context: Optional[MatchContext] = None,
        budget: Optional[Budget] = None,
    ) -> None:
        self.graph = graph
        self.context = context or MatchContext(graph)
        self.budget = budget or Budget()

    # ------------------------------------------------------------------ #
    # tree evaluation
    # ------------------------------------------------------------------ #

    def _refine_tree_candidates(
        self,
        query: PatternQuery,
        tree_edges: List[PatternEdge],
        candidates: Dict[int, Set[int]],
        clock,
        cones: Cones,
    ) -> Dict[int, Set[int]]:
        """Bottom-up + top-down refinement over the tree edges (exact on trees)."""
        context = self.context
        changed = True
        while changed:
            changed = False
            clock.check_time()
            for edge in tree_edges:
                tails = candidates[edge.source]
                heads = candidates[edge.target]
                if edge.is_child:
                    new_tails = tails & context.backward_sources(edge, heads)
                else:
                    new_tails = context.tails_reaching(tails, heads, cones)
                if len(new_tails) != len(tails):
                    candidates[edge.source] = tails = new_tails
                    changed = True
                if edge.is_child:
                    new_heads = heads & context.forward_targets(edge, tails)
                else:
                    new_heads = context.heads_reached(heads, tails, cones)
                if len(new_heads) != len(heads):
                    candidates[edge.target] = new_heads
                    changed = True
        return candidates

    def _edge_pairs(
        self,
        edges: List[PatternEdge],
        candidates: Dict[int, Set[int]],
        clock,
        cones: Cones,
    ) -> Dict[Tuple[int, int], Dict[int, FrozenSet[int]]]:
        """Per query edge, ``{tail: heads it matches}`` over the candidates.

        A child edge intersects each tail's successors with the head
        candidates; a descendant edge takes the forward half of one
        :meth:`~repro.simulation.context.MatchContext.expand_reachability`.
        """
        graph = self.graph
        pairs: Dict[Tuple[int, int], Dict[int, FrozenSet[int]]] = {}
        for edge in edges:
            clock.check_time()
            tails = candidates[edge.source]
            heads = candidates[edge.target]
            if edge.is_descendant:
                per_tail, _ = self.context.expand_reachability(tails, heads, cones)
            else:
                per_tail = {}
                for tail in tails:
                    matched = graph.successor_set(tail) & heads
                    if matched:
                        per_tail[tail] = matched
            pairs[edge.endpoints()] = per_tail
        return pairs

    def _tree_adjacency(
        self,
        tree_edges: List[PatternEdge],
        candidates: Dict[int, Set[int]],
        clock,
        cones: Cones,
    ) -> Dict[Tuple[int, int], Dict[int, List[int]]]:
        """Materialise, per tree edge, the matches restricted to candidates."""
        return {
            key: {tail: sorted(heads) for tail, heads in per_tail.items()}
            for key, per_tail in self._edge_pairs(tree_edges, candidates, clock, cones).items()
        }

    def _enumerate_tree(
        self,
        query: PatternQuery,
        tree_edges: List[PatternEdge],
        candidates: Dict[int, Set[int]],
        adjacency: Dict[Tuple[int, int], Dict[int, List[int]]],
        clock,
    ) -> Iterator[Tuple[int, ...]]:
        """Enumerate tree occurrences by backtracking along the tree structure."""
        # Order nodes so each (after the first) is adjacent in the tree to an
        # earlier node; record the connecting tree edge.
        order: List[int] = [0]
        placed = {0}
        connecting: Dict[int, PatternEdge] = {}
        while len(order) < query.num_nodes:
            for edge in tree_edges:
                if edge.source in placed and edge.target not in placed:
                    connecting[edge.target] = edge
                    order.append(edge.target)
                    placed.add(edge.target)
                elif edge.target in placed and edge.source not in placed:
                    connecting[edge.source] = edge
                    order.append(edge.source)
                    placed.add(edge.source)

        n = query.num_nodes
        assignment: List[Optional[int]] = [None] * n

        def options(position: int) -> List[int]:
            node = order[position]
            if position == 0:
                return sorted(candidates[node])
            edge = connecting[node]
            if edge.target == node:
                tail_value = assignment[edge.source]
                return adjacency[edge.endpoints()].get(tail_value, [])
            # node is the edge's source: need tails whose adjacency contains
            # the already-assigned head.
            head_value = assignment[edge.target]
            per_tail = adjacency[edge.endpoints()]
            return [tail for tail in candidates[node] if head_value in per_tail.get(tail, ())]

        def recurse(position: int) -> Iterator[Tuple[int, ...]]:
            clock.check_time()
            if position == n:
                yield tuple(assignment)  # indexed by query node id
                return
            node = order[position]
            for value in options(position):
                assignment[node] = value
                yield from recurse(position + 1)
                assignment[node] = None

        yield from recurse(0)

    # ------------------------------------------------------------------ #
    # full evaluation: tree evaluation plus non-tree edge filtering
    # ------------------------------------------------------------------ #

    def iter_matches(
        self,
        query: PatternQuery,
        budget: Optional[Budget] = None,
        info: Optional[Dict[str, object]] = None,
    ) -> Iterator[Tuple[int, ...]]:
        """Lazily enumerate occurrences: yield per surviving tree solution.

        The tree phase (refinement + per-edge adjacency) stays blocking —
        that is TM's cost profile — but enumeration streams: each tree
        occurrence is checked against the non-tree edges as it is produced
        and yielded immediately if it survives, so a consumer sees the first
        occurrence before the (possibly huge) tree-solution space is
        exhausted.  Budget exceptions propagate; ``match_stream`` converts
        them into terminal statuses.

        ``info`` follows the mutable-mapping contract of
        :class:`~repro.matching.stream.MatchStream`; ``extra`` is updated
        in place so the finalised report carries the final
        ``tree_solutions`` count.
        """
        budget = budget or self.budget
        clock = budget.start_clock()
        start = time.perf_counter()
        query = transitive_reduction(query)
        candidates = node_prefilter(self.context, query)
        cones = Cones()
        tree_edges, non_tree_edges = spanning_tree(query)
        candidates = self._refine_tree_candidates(query, tree_edges, candidates, clock, cones)
        adjacency = self._tree_adjacency(tree_edges, candidates, clock, cones)
        non_tree_pairs = self._edge_pairs(non_tree_edges, candidates, clock, cones)
        extra: Dict[str, object] = {
            "tree_solutions": 0,
            "non_tree_edges": len(non_tree_edges),
        }
        if info is not None:
            info["matching_seconds"] = time.perf_counter() - start
            info["extra"] = extra

        if not all(candidates[node] for node in query.nodes()):
            return
        tree_solutions = 0
        count = 0
        for tree_occurrence in self._enumerate_tree(
            query, tree_edges, candidates, adjacency, clock
        ):
            tree_solutions += 1
            extra["tree_solutions"] = tree_solutions
            clock.check_intermediate(tree_solutions)
            satisfied = all(
                tree_occurrence[target] in per_tail.get(tree_occurrence[source], ())
                for (source, target), per_tail in non_tree_pairs.items()
            )
            if satisfied:
                yield tree_occurrence
                count += 1
                if clock.check_matches(count):
                    return
