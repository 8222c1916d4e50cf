"""JM: the join-based baseline (R-Join / binary-join style).

JM evaluates a pattern query the way classic relational approaches do:

1. materialise one relation per query edge, holding every data-node pair
   matching the edge (edge-to-edge for direct edges, edge-to-path for
   reachability edges);
2. choose a left-deep join order over those relations (dynamic programming
   when the query is small enough, a greedy connected order otherwise — the
   paper notes the DP enumeration itself stops scaling past ~10 nodes);
3. execute the plan as a sequence of binary hash joins over partial
   occurrence tuples.

The defining weakness the paper measures is the intermediate-result
explosion: partial results can vastly exceed the final answer.  The
executor counts intermediate tuples against the budget's
``max_intermediate_results`` and reports ``OUT_OF_MEMORY`` when the cap is
hit — the analogue of the JVM out-of-memory failures in the paper's tables.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import MemoryBudgetExceeded, TimeoutExceeded
from repro.graph.digraph import DataGraph
from repro.matching.result import Budget, MatchReport, MatchStatus
from repro.matching.stream import Evaluator
from repro.query.pattern import PatternEdge, PatternQuery
from repro.query.transitive import transitive_reduction
from repro.simulation.context import MatchContext
from repro.simulation.matchsets import node_prefilter

EdgeRelation = List[Tuple[int, int]]


class JMMatcher(Evaluator):
    """Join-based pattern matcher (the JM baseline).

    The one evaluator that keeps its own materialising :meth:`match`: it is
    the reference the tests and ``perf/check.py`` compare against, and its
    materialised final join (``check_intermediate``, ``peak_intermediate``)
    is the cost profile the paper's tables report, which the streaming
    final join of :meth:`iter_matches` does not reproduce under a match cap.
    """

    name = "JM"

    #: Queries of at most this many nodes are planned by subset DP, larger
    #: ones greedily: the paper's DP enumeration stops scaling past ~10.
    DP_PLAN_NODE_LIMIT = 10

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
    # edge relations
    # ------------------------------------------------------------------ #

    def _edge_relation(
        self, edge: PatternEdge, candidates: Dict[int, Set[int]]
    ) -> EdgeRelation:
        """Materialise the match relation of one query edge."""
        context = self.context
        graph = self.graph
        tails = candidates[edge.source]
        heads = candidates[edge.target]
        relation: EdgeRelation = []
        if edge.is_child:
            for tail in tails:
                for head in graph.successor_set(tail) & heads:
                    relation.append((tail, head))
        else:
            reachability = context.reachability
            if len(heads) > 32:
                for tail in tails:
                    reachable = context.forward_reachable_set((tail,))
                    for head in heads:
                        if head in reachable:
                            relation.append((tail, head))
            else:
                for tail in tails:
                    for head in heads:
                        if tail == head:
                            if reachability.reaches_strict(tail, head):
                                relation.append((tail, head))
                        elif reachability.reaches(tail, head):
                            relation.append((tail, head))
        return relation

    # ------------------------------------------------------------------ #
    # plan selection
    # ------------------------------------------------------------------ #

    def _plan(
        self, query: PatternQuery, relation_sizes: Dict[Tuple[int, int], int]
    ) -> Tuple[List[PatternEdge], int]:
        """Choose a left-deep edge order.  Returns (plan, plans_considered)."""
        edges = list(query.edges())
        if len(edges) <= 1:
            return edges, 1
        if query.num_nodes <= self.DP_PLAN_NODE_LIMIT and len(edges) <= 12:
            return self._dp_plan(query, edges, relation_sizes)
        return self._greedy_plan(query, edges, relation_sizes), 1

    def _greedy_plan(
        self,
        query: PatternQuery,
        edges: List[PatternEdge],
        relation_sizes: Dict[Tuple[int, int], int],
    ) -> List[PatternEdge]:
        remaining = list(edges)
        remaining.sort(key=lambda edge: relation_sizes[edge.endpoints()])
        plan = [remaining.pop(0)]
        covered = set(plan[0].endpoints())
        while remaining:
            connected = [edge for edge in remaining if covered & set(edge.endpoints())]
            pool = connected or remaining
            chosen = min(pool, key=lambda edge: relation_sizes[edge.endpoints()])
            plan.append(chosen)
            covered.update(chosen.endpoints())
            remaining.remove(chosen)
        return plan

    def _dp_plan(
        self,
        query: PatternQuery,
        edges: List[PatternEdge],
        relation_sizes: Dict[Tuple[int, int], int],
    ) -> Tuple[List[PatternEdge], int]:
        """Left-deep plan by subset DP with independence-based cost estimates."""
        node_cardinality = {
            node: max(len(self.graph.inverted_list(query.label(node))), 1)
            for node in query.nodes()
        }

        def selectivity(edge: PatternEdge) -> float:
            denom = node_cardinality[edge.source] * node_cardinality[edge.target]
            return max(relation_sizes[edge.endpoints()], 1) / float(denom)

        plans_considered = 0
        # state: frozenset of edge indices -> (cost, estimated cardinality, plan tuple)
        best: Dict[frozenset, Tuple[float, float, Tuple[int, ...]]] = {}
        for index, edge in enumerate(edges):
            best[frozenset((index,))] = (
                float(relation_sizes[edge.endpoints()]),
                float(max(relation_sizes[edge.endpoints()], 1)),
                (index,),
            )
            plans_considered += 1

        def covered_nodes(state: frozenset) -> Set[int]:
            nodes: Set[int] = set()
            for index in state:
                nodes.update(edges[index].endpoints())
            return nodes

        for size in range(1, len(edges)):
            for state in [s for s in list(best) if len(s) == size]:
                cost, cardinality, plan = best[state]
                nodes = covered_nodes(state)
                for index, edge in enumerate(edges):
                    if index in state:
                        continue
                    if not nodes & set(edge.endpoints()):
                        continue
                    plans_considered += 1
                    new_nodes = set(edge.endpoints()) - nodes
                    estimate = cardinality * selectivity(edge)
                    for node in new_nodes:
                        estimate *= node_cardinality[node]
                    new_cost = cost + estimate
                    new_state = state | {index}
                    incumbent = best.get(new_state)
                    if incumbent is None or new_cost < incumbent[0]:
                        best[new_state] = (new_cost, estimate, plan + (index,))

        full = frozenset(range(len(edges)))
        if full not in best:
            return self._greedy_plan(query, edges, relation_sizes), plans_considered
        return [edges[index] for index in best[full][2]], plans_considered

    # ------------------------------------------------------------------ #
    # plan execution
    # ------------------------------------------------------------------ #

    def _prepare(self, query: PatternQuery, clock):
        """The matching phase both executors share.

        Reduces ``query`` transitively, prefilters its candidates,
        materialises one relation per remaining edge and chooses the plan.
        Returns ``(candidates, relations, plan, plans_considered)``; an
        edgeless query has an empty plan.
        """
        query = transitive_reduction(query)
        candidates = node_prefilter(self.context, query)
        relations: Dict[Tuple[int, int], EdgeRelation] = {}
        for edge in query.edges():
            clock.check_time()
            relations[edge.endpoints()] = self._edge_relation(edge, candidates)
        relation_sizes = {key: len(relation) for key, relation in relations.items()}
        plan, plans_considered = self._plan(query, relation_sizes)
        return candidates, relations, plan, plans_considered

    def match(self, query: PatternQuery, budget: Optional[Budget] = None) -> MatchReport:
        """Evaluate ``query`` with binary joins; see the class docstring."""
        budget = budget or self.budget
        clock = budget.start_clock()
        start = time.perf_counter()
        try:
            candidates, relations, plan, plans_considered = self._prepare(query, clock)
            if not plan:
                occurrences = [(value,) for value in sorted(candidates[0])]
                return MatchReport(
                    query_name=query.name,
                    algorithm="JM",
                    status=MatchStatus.OK,
                    occurrences=occurrences,
                    num_matches=len(occurrences),
                    matching_seconds=time.perf_counter() - start,
                )
            matching_seconds = time.perf_counter() - start

            enumeration_start = time.perf_counter()
            occurrences, hit_limit, peak_intermediate = self._execute(
                query, plan, relations, budget, clock
            )
            enumeration_seconds = time.perf_counter() - enumeration_start
            status = MatchStatus.MATCH_LIMIT if hit_limit else MatchStatus.OK
            return MatchReport(
                query_name=query.name,
                algorithm="JM",
                status=status,
                occurrences=occurrences,
                num_matches=len(occurrences),
                matching_seconds=matching_seconds,
                enumeration_seconds=enumeration_seconds,
                extra={
                    "plans_considered": plans_considered,
                    "peak_intermediate": peak_intermediate,
                },
            )
        except TimeoutExceeded:
            return MatchReport(
                query_name=query.name,
                algorithm="JM",
                status=MatchStatus.TIMEOUT,
                matching_seconds=time.perf_counter() - start,
            )
        except MemoryBudgetExceeded:
            return MatchReport(
                query_name=query.name,
                algorithm="JM",
                status=MatchStatus.OUT_OF_MEMORY,
                matching_seconds=time.perf_counter() - start,
            )

    @staticmethod
    def _probe_extensions(
        edge: PatternEdge,
        relation: EdgeRelation,
        bound: List[int],
    ) -> Tuple[List[int], "object"]:
        """Prepare one hash join against ``relation`` for rows bound as ``bound``.

        Returns ``(next_bound, extend)`` where ``extend(row)`` iterates the
        joined rows (original row plus any newly bound columns) for one
        partial tuple.
        """
        source, target = edge.endpoints()
        source_bound = source in bound
        target_bound = target in bound
        next_bound = list(bound)
        if not source_bound:
            next_bound.append(source)
        if not target_bound:
            next_bound.append(target)

        if source_bound and target_bound:
            source_position = bound.index(source)
            target_position = bound.index(target)
            pair_set = set(relation)

            def extend(row: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
                if (row[source_position], row[target_position]) in pair_set:
                    yield row

        elif source_bound:
            source_position = bound.index(source)
            by_tail: Dict[int, List[int]] = {}
            for tail, head in relation:
                by_tail.setdefault(tail, []).append(head)

            def extend(row: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
                for head in by_tail.get(row[source_position], ()):
                    yield row + (head,)

        elif target_bound:
            target_position = bound.index(target)
            by_head: Dict[int, List[int]] = {}
            for tail, head in relation:
                by_head.setdefault(head, []).append(tail)

            def extend(row: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
                for tail in by_head.get(row[target_position], ()):
                    yield row + (tail,)

        else:
            # Cartesian product with a disconnected edge (avoided by the
            # planner, but handled for completeness).
            def extend(row: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
                for tail, head in relation:
                    yield row + (tail, head)

        return next_bound, extend

    def _execute(
        self,
        query: PatternQuery,
        plan: Sequence[PatternEdge],
        relations: Dict[Tuple[int, int], EdgeRelation],
        budget: Budget,
        clock,
    ) -> Tuple[List[Tuple[int, ...]], bool, int]:
        """Run the left-deep plan with binary hash joins over partial tuples."""
        n = query.num_nodes
        # Partial tuples: dict from query node -> data node, stored as tuples
        # over the bound variable list for compactness.
        current, bound, peak = self._join_prefix(plan, relations, clock)

        # Project partial tuples onto query-node order, deduplicate, cap.
        occurrences: List[Tuple[int, ...]] = []
        seen: Set[Tuple[int, ...]] = set()
        hit_limit = False
        position_of = {node: position for position, node in enumerate(bound)}
        for row in current:
            occurrence = tuple(row[position_of[node]] for node in range(n))
            if occurrence in seen:
                continue
            seen.add(occurrence)
            occurrences.append(occurrence)
            if clock.check_matches(len(occurrences)):
                hit_limit = True
                break
        return occurrences, hit_limit, peak

    def _join_prefix(
        self,
        plan: Sequence[PatternEdge],
        relations: Dict[Tuple[int, int], EdgeRelation],
        clock,
    ) -> Tuple[List[Tuple[int, ...]], List[int], int]:
        """Materialise the joins of ``plan``; returns (tuples, bound, peak)."""
        first = plan[0]
        bound: List[int] = list(first.endpoints())
        current: List[Tuple[int, ...]] = [
            (tail, head) for tail, head in relations[first.endpoints()]
        ]
        peak = len(current)
        clock.check_intermediate(peak)

        for edge in plan[1:]:
            clock.check_time()
            next_bound, extend = self._probe_extensions(
                edge, relations[edge.endpoints()], bound
            )
            next_tuples: List[Tuple[int, ...]] = []
            for row in current:
                clock.check_time()
                for joined in extend(row):
                    next_tuples.append(joined)
                    clock.check_intermediate(len(next_tuples))
            current = next_tuples
            bound = next_bound
            peak = max(peak, len(current))
            if not current:
                break
        return current, bound, peak

    # ------------------------------------------------------------------ #
    # streaming execution
    # ------------------------------------------------------------------ #

    def iter_matches(
        self,
        query: PatternQuery,
        budget: Optional[Budget] = None,
        info: Optional[Dict[str, object]] = None,
    ) -> Iterator[Tuple[int, ...]]:
        """Lazily enumerate occurrences: the final hash join emits as it probes.

        JM stays a blocking algorithm through its join *prefix* (every join
        but the last materialises its intermediate table — that is the cost
        profile the paper measures), but the last join of the plan streams:
        each probe of the final hash table projects, deduplicates and yields
        completed occurrences immediately, so a consumer sees the first
        occurrence before the final join (typically the largest) finishes.
        Budget exceptions (:class:`~repro.exceptions.TimeoutExceeded`,
        :class:`~repro.exceptions.MemoryBudgetExceeded`) propagate to the
        caller; ``match_stream`` converts them into terminal statuses.

        ``info`` is the mutable mapping contract of
        :class:`~repro.matching.stream.MatchStream`: ``matching_seconds``
        and ``extra`` are recorded once the matching phase completes.
        """
        budget = budget or self.budget
        clock = budget.start_clock()
        start = time.perf_counter()
        candidates, relations, plan, plans_considered = self._prepare(query, clock)
        if not plan:
            if info is not None:
                info["matching_seconds"] = time.perf_counter() - start
            count = 0
            for value in sorted(candidates[0]):
                clock.check_time()
                yield (value,)
                count += 1
                if clock.check_matches(count):
                    return
            return

        # Materialise every join but the last; the final join streams.
        prefix, final_edge = plan[:-1], plan[-1]
        if prefix:
            current, bound, peak = self._join_prefix(prefix, relations, clock)
        else:
            current, bound, peak = [()], [], 0
        next_bound, extend = self._probe_extensions(
            final_edge, relations[final_edge.endpoints()], bound
        )
        if info is not None:
            info["matching_seconds"] = time.perf_counter() - start
            info["extra"] = {
                "plans_considered": plans_considered,
                "peak_intermediate": peak,
            }

        n = query.num_nodes
        position_of = {node: position for position, node in enumerate(next_bound)}
        seen: Set[Tuple[int, ...]] = set()
        count = 0
        for row in current:
            # Checked per row *and* per probe hit: rows whose probe yields
            # nothing must still observe the deadline / cancel event.
            clock.check_time()
            for joined in extend(row):
                clock.check_time()
                occurrence = tuple(joined[position_of[node]] for node in range(n))
                if occurrence in seen:
                    continue
                seen.add(occurrence)
                yield occurrence
                count += 1
                if clock.check_matches(count):
                    return
