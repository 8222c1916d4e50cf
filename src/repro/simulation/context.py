"""Shared evaluation context: match sets, edge matches, batch expansions.

:class:`MatchContext` bundles the data graph, a reachability index and the
derived structures every phase of query evaluation needs:

* per-label inverted lists (match sets);
* per-node label bitsets of children / parents / descendants / ancestors
  (:meth:`MatchContext.label_bits`, what node pre-filtering tests);
* edge-match tests ``(u, v) ∈ ms(e)`` for child and descendant edges;
* *batch* forward / backward expansion over candidate sets, the
  set-at-a-time formulation (§4.5 "batch checking direct connectivity
  constraints"): adjacency unions for direct edges, and for reachability
  edges two operations on the SCC condensation —
  :meth:`MatchContext.expand_reachability` (both adjacency directions of a
  query edge from one sweep each, equal answers sharing one set object —
  what BuildRIG installs as is) and
  :meth:`MatchContext.tails_reaching` / :meth:`MatchContext.heads_reached`
  (the semijoins double simulation uses).  The label summaries run on the
  same condensation arrays.

The condensation is the reachability index's own when it keeps one for this
graph (BFL, interval) and is computed from the graph otherwise; its derived
arrays are built lazily, once per context.  A context never outlives a graph
version (``QuerySession.apply`` makes a new one), so nothing is invalidated.

All three operations start from a *cone*: the components strictly below or
above a set of seed components.  The cones live in a :class:`Cones` memo that
belongs to one build (``build_rig`` passes it down through ``fbsim``), not to
the context, so the context holds nothing that grows from query to query and
concurrent builds share nothing but the read-only arrays.

:meth:`MatchContext.forward_reachable_set` / ``backward_reachable_set`` are
the plain whole-graph BFS: the reference the condensation operations are
tested against, and what the JM / TM baselines still expand with.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from operator import or_
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graph.digraph import DataGraph
from repro.graph.transform import condensation
from repro.query.pattern import PatternEdge, PatternQuery
from repro.reachability.base import ReachabilityIndex
from repro.reachability.factory import build_reachability_index


class ChildCheckMethod(Enum):
    """How direct-connectivity constraints are checked (Fig. 12a)."""

    #: Per-pair binary search over the sorted adjacency list.
    BIN_SEARCH = "binSearch"
    #: Per-node intersection of the adjacency list with the candidate set.
    BIT_ITER = "bitIter"
    #: Batch: union of adjacency lists, one intersection with the candidate set.
    BIT_BAT = "bitBat"


class _Components(NamedTuple):
    """The condensation as flat per-component arrays (see ``_components``)."""

    #: Data node -> component id.
    component_of: Sequence[int]
    #: Component -> child / parent components in the condensation dag.
    children: Sequence[Tuple[int, ...]]
    parents: Sequence[Tuple[int, ...]]
    #: Component -> does a member reach itself by a path of length >= 1?
    cyclic: Sequence[bool]
    #: Every component, parents before children.
    order: Sequence[int]
    #: Component -> its position in ``order``.
    rank: Sequence[int]


def _strict_closure(adjacency: Sequence[Tuple[int, ...]], seeds: Iterable[int]) -> Set[int]:
    """Components reachable from ``seeds`` over ``adjacency`` by >= 1 dag edge."""
    seen: Set[int] = set()
    frontier = seeds
    while frontier:
        reached: Set[int] = set()
        for component in frontier:
            reached.update(adjacency[component])
        reached -= seen
        seen |= reached
        frontier = reached
    return seen


class Cones:
    """One build's reachability cones, each swept once.

    A cone is the strict closure of a set of condensation components, down
    (children) or up (parents).  It is keyed by direction and the frozen
    component set, so a candidate set that shrank without losing a component
    is a hit.  ``build_rig`` makes one per call and hands it through
    ``fbsim`` to :meth:`MatchContext.tails_reaching` / ``heads_reached`` /
    ``expand_reachability``: every incident edge of a query node, every pass
    whose candidates kept their components, and the expansion after the last
    pass then share one sweep.  It is never stored on the shared
    :class:`MatchContext`, so it is bounded by one query and needs no lock.
    ``computed`` counts the sweeps made, ``served`` the ones answered here.
    """

    __slots__ = ("_cones", "computed", "served")

    def __init__(self) -> None:
        self._cones: Dict[Tuple[bool, FrozenSet[int]], Set[int]] = {}
        self.computed = 0
        self.served = 0

    def cone(self, arrays: _Components, seeds: FrozenSet[int], downward: bool) -> Set[int]:
        """The components strictly below (``downward``) or above ``seeds``.
        Shared between callers: never mutate it."""
        key = (downward, seeds)
        cone = self._cones.get(key)
        if cone is None:
            cone = _strict_closure(arrays.children if downward else arrays.parents, seeds)
            self._cones[key] = cone
            self.computed += 1
        else:
            self.served += 1
        return cone


def _with_partner(
    arrays: _Components,
    cones: Cones,
    candidates: Iterable[int],
    partners: Iterable[int],
    downward: bool,
) -> Set[int]:
    """The candidates whose component is strictly below (``downward``) or
    above a partner's component, or is cyclic and holds a partner."""
    component_of, cyclic = arrays.component_of, arrays.cyclic
    partner_components = frozenset(map(component_of.__getitem__, partners))
    allowed = cones.cone(arrays, partner_components, downward)
    on_cycle = {c for c in partner_components if cyclic[c]}
    if on_cycle:
        allowed = allowed | on_cycle
    return {node for node in candidates if component_of[node] in allowed}


def _decode(mask: int, numbered: Sequence[List[int]]) -> List[int]:
    """The members of the entries of ``numbered`` whose bit is set in ``mask``."""
    return [
        node
        for members, bit in zip(numbered, reversed(bin(mask)))
        if bit == "1"
        for node in members
    ]


def _shared_answers(
    arrays: _Components,
    toward_partners: Sequence[Tuple[int, ...]],
    sweep: Iterable[int],
    askers: Iterable[int],
    partners: Collection[int],
    make_set: Callable[[List[int]], object],
) -> Dict[int, object]:
    """``asker -> make_set(its partners)``, one object per distinct answer.

    An asker's partners are those in components strictly beyond its own along
    ``toward_partners``, plus those in its own when that is cyclic.  ``sweep``
    lists the components that matter, each after its ``toward_partners``
    neighbours that matter; a component outside it holds no partner.

    A bit stands for one partner *component* (all its members are partners
    of the same askers), so a mask is |partner components| bits wide and
    decodes to the members of its components.
    """
    component_of, cyclic = arrays.component_of, arrays.cyclic
    partners_in: Dict[int, List[int]] = {}
    for partner in partners:
        partners_in.setdefault(component_of[partner], []).append(partner)
    numbered = list(partners_in.values())
    own = {component: 1 << bit for bit, component in enumerate(partners_in)}
    seen: Dict[int, int] = {}
    for component in sweep:
        mask = own.get(component, 0)
        for neighbour in toward_partners[component]:
            mask |= seen.get(neighbour, 0)
        seen[component] = mask

    askers_in: Dict[int, List[int]] = {}
    for asker in askers:
        askers_in.setdefault(component_of[asker], []).append(asker)
    groups: Dict[int, List[int]] = {}
    for component, group in askers_in.items():
        mask = seen.get(component, 0)
        if not cyclic[component]:
            mask &= ~own.get(component, 0)
        if mask:
            groups.setdefault(mask, []).extend(group)
    answers: Dict[int, object] = {}
    for mask, group in groups.items():
        answers.update(dict.fromkeys(group, make_set(_decode(mask, numbered))))
    return answers


class MatchContext:
    """Evaluation context shared by simulation, RIG construction and joins."""

    def __init__(
        self,
        graph: DataGraph,
        reachability: Optional[ReachabilityIndex] = None,
        reachability_kind: str = "bfl",
    ) -> None:
        self.graph = graph
        self.reachability = reachability or build_reachability_index(graph, kind=reachability_kind)
        self._descendant_labels: Optional[list] = None
        self._ancestor_labels: Optional[list] = None
        self._direct_labels: Optional[Tuple[list, list]] = None
        self._component_arrays: Optional[_Components] = None

    # ------------------------------------------------------------------ #
    # match sets
    # ------------------------------------------------------------------ #

    def match_set(self, query: PatternQuery, node: int) -> FrozenSet[int]:
        """``ms(q)``: the inverted list of the query node's label."""
        return self.graph.inverted_set(query.label(node))

    def match_sets(self, query: PatternQuery) -> Dict[int, Set[int]]:
        """Mutable copies of ``ms(q)`` for every query node."""
        return {node: set(self.match_set(query, node)) for node in query.nodes()}

    # ------------------------------------------------------------------ #
    # edge matches
    # ------------------------------------------------------------------ #

    def edge_match(self, edge: PatternEdge, u: int, v: int) -> bool:
        """Is the data pair ``(u, v)`` a match of the query edge (labels aside)?

        For a direct edge this is an edge test; for a reachability edge it is
        a path-existence test (a path of length >= 1, so a pair ``(u, u)``
        only matches when ``u`` lies on a cycle).
        """
        if edge.is_child:
            return self.graph.has_edge(u, v)
        if u == v:
            return self.reachability.reaches_strict(u, v)
        return self.reachability.reaches(u, v)

    def edge_match_with_method(
        self, edge: PatternEdge, u: int, v: int, method: ChildCheckMethod
    ) -> bool:
        """Like :meth:`edge_match` but honouring the child-check method."""
        if edge.is_child and method is ChildCheckMethod.BIN_SEARCH:
            return self.graph.has_edge_binary_search(u, v)
        return self.edge_match(edge, u, v)

    # ------------------------------------------------------------------ #
    # batch expansions over candidate sets
    # ------------------------------------------------------------------ #

    def forward_reachable_set(self, sources: Iterable[int]) -> Set[int]:
        """All nodes reachable from ``sources`` through a path of length >= 1."""
        graph = self.graph
        visited: Set[int] = set()
        frontier = list({child for source in sources for child in graph.successors(source)})
        visited.update(frontier)
        while frontier:
            next_frontier = []
            for node in frontier:
                for child in graph.successors(node):
                    if child not in visited:
                        visited.add(child)
                        next_frontier.append(child)
            frontier = next_frontier
        return visited

    def backward_reachable_set(self, targets: Iterable[int]) -> Set[int]:
        """All nodes that reach some node of ``targets`` through a path of length >= 1."""
        graph = self.graph
        visited: Set[int] = set()
        frontier = list({parent for target in targets for parent in graph.predecessors(target)})
        visited.update(frontier)
        while frontier:
            next_frontier = []
            for node in frontier:
                for parent in graph.predecessors(node):
                    if parent not in visited:
                        visited.add(parent)
                        next_frontier.append(parent)
            frontier = next_frontier
        return visited

    def forward_targets(self, edge: PatternEdge, sources: Iterable[int]) -> Set[int]:
        """Batch expansion: all data nodes ``v`` with some ``u`` in ``sources``
        such that ``(u, v) ∈ ms(edge)`` (ignoring labels)."""
        if edge.is_child:
            graph = self.graph
            result: Set[int] = set()
            for source in sources:
                result.update(graph.successors(source))
            return result
        return self.forward_reachable_set(sources)

    def backward_sources(self, edge: PatternEdge, targets: Iterable[int]) -> Set[int]:
        """Batch expansion: all data nodes ``u`` with some ``v`` in ``targets``
        such that ``(u, v) ∈ ms(edge)`` (ignoring labels)."""
        if edge.is_child:
            graph = self.graph
            result: Set[int] = set()
            for target in targets:
                result.update(graph.predecessors(target))
            return result
        return self.backward_reachable_set(targets)

    # ------------------------------------------------------------------ #
    # reachability edges, set-at-a-time on the SCC condensation
    # ------------------------------------------------------------------ #

    def _components(self) -> _Components:
        """The condensation's flat arrays, built on first use.

        The condensation is the reachability index's when it keeps one for
        this very graph.  No source promises an id order — Tarjan numbers
        children first, but ``BloomFilterLabeling.apply_delta`` appends new
        components and adds dag edges that point "up" — so the topological
        ``order`` is computed here.  ``condensation()`` drops edges inside a
        component, so a singleton's ``cyclic`` flag is its self-loop in the
        data graph.  Published by one attribute assignment: concurrent first
        callers at worst both build it.
        """
        arrays = self._component_arrays
        if arrays is not None:
            return arrays
        graph = self.graph
        index = self.reachability
        cond = index.condensation() if index.graph is graph else None
        if cond is None:
            cond = condensation(graph)
        dag = cond.dag
        children = [dag.successors(component) for component in dag.nodes()]
        parents = [dag.predecessors(component) for component in dag.nodes()]
        cyclic = [
            len(members) > 1 or graph.has_edge(members[0], members[0])
            for members in cond.components
        ]
        # Kahn's algorithm; ``order`` grows while it is iterated.
        waiting = [len(component_parents) for component_parents in parents]
        order = [component for component, count in enumerate(waiting) if not count]
        for component in order:
            for child in children[component]:
                waiting[child] -= 1
                if not waiting[child]:
                    order.append(child)
        rank = [0] * len(order)
        for position, component in enumerate(order):
            rank[component] = position
        arrays = self._component_arrays = _Components(
            cond.component_of, children, parents, cyclic, order, rank
        )
        return arrays

    def expand_reachability(
        self,
        tails: Collection[int],
        heads: Collection[int],
        make_set: Callable[[List[int]], object] = frozenset,
        cones: Optional[Cones] = None,
    ) -> Tuple[Dict[int, object], Dict[int, object]]:
        """Expansion of a reachability edge, both directions:
        ``({tail: heads it reaches}, {head: tails reaching it})``.

        "Reaches" is a path of length >= 1, so ``(u, u)`` is a pair only when
        ``u`` lies on a cycle.  Nodes without a partner are absent.  Every
        answer is a ``make_set`` object, and nodes with equal answers (a whole
        component, or components that see the same partners) hold the *same*
        object: nothing here is per pair, and callers must not mutate them.

        One sweep per direction instead of one BFS per tail.  The head
        components are numbered, every component's mask (a Python ``int``)
        gets the bit of the head component it is, and the components between
        the tails and the heads are folded children-first,
        ``reached[c] = own[c] | OR(reached[child])``.  A tail in ``c`` then
        reaches the heads of ``reached[c]`` if ``c`` is cyclic and of
        ``reached[c]`` minus ``own[c]`` otherwise.  The mirror numbers the
        tail components and folds the same components parents-first.
        "Between" is below a tail *and* above a head — the intersection of
        two cones, taken from ``cones`` (the build's memo) when given: every
        tail-to-head path stays inside, anything outside contributes no pair,
        and masks exist only there — at most ``|between| * max(|tail
        components|, |head components|) / 8`` bytes.
        """
        arrays = self._components()
        cones = cones or Cones()
        component_of = arrays.component_of
        tail_components = frozenset(map(component_of.__getitem__, tails))
        head_components = frozenset(map(component_of.__getitem__, heads))
        between = cones.cone(arrays, tail_components, downward=True) | tail_components
        between &= cones.cone(arrays, head_components, downward=False) | head_components
        downward = sorted(between, key=arrays.rank.__getitem__)
        return (
            _shared_answers(arrays, arrays.children, reversed(downward), tails, heads, make_set),
            _shared_answers(arrays, arrays.parents, downward, heads, tails, make_set),
        )

    def tails_reaching(
        self, tails: Iterable[int], heads: Iterable[int], cones: Optional[Cones] = None
    ) -> Set[int]:
        """Semijoin of a reachability edge: the ``tails`` that reach some head
        by a path of length >= 1 — the cone up the condensation from the
        heads' components, swept once per ``cones`` (the build's memo)."""
        return _with_partner(self._components(), cones or Cones(), tails, heads, downward=False)

    def heads_reached(
        self, heads: Iterable[int], tails: Iterable[int], cones: Optional[Cones] = None
    ) -> Set[int]:
        """Semijoin of a reachability edge: the ``heads`` some tail reaches by
        a path of length >= 1 — the cone down the condensation from the
        tails' components, swept once per ``cones`` (the build's memo)."""
        return _with_partner(self._components(), cones or Cones(), heads, tails, downward=True)

    # ------------------------------------------------------------------ #
    # label summaries for node pre-filtering
    # ------------------------------------------------------------------ #

    def _compute_label_summaries(self) -> None:
        """Compute, per data node, the label sets of its ancestors/descendants.

        The :meth:`expand_reachability` rule with labels for bits: one
        children-first pass over the condensation collects the labels
        strictly below every component, one parents-first pass the labels
        strictly above, and a cyclic component also sees its own labels.
        """
        graph = self.graph
        label_bit = {label: 1 << index for index, label in enumerate(graph.label_alphabet())}
        self._label_bit = label_bit
        component_of, children, parents, cyclic, order, _ = self._components()

        own = [0] * len(order)
        for node in graph.nodes():
            own[component_of[node]] |= label_bit[graph.label(node)]
        below = [0] * len(order)
        for component in reversed(order):
            bits = 0
            for child in children[component]:
                bits |= below[child] | own[child]
            below[component] = bits
        above = [0] * len(order)
        for component in order:
            bits = 0
            for parent in parents[component]:
                bits |= above[parent] | own[parent]
            above[component] = bits
        for component, on_cycle in enumerate(cyclic):
            if on_cycle:
                below[component] |= own[component]
                above[component] |= own[component]
        self._descendant_labels = [below[component] for component in component_of]
        self._ancestor_labels = [above[component] for component in component_of]

    def label_bits(self, outgoing: bool, direct: bool) -> Sequence[int]:
        """Per data node, the bit mask of the labels among its children
        (``outgoing``, ``direct``), parents, strict descendants (``outgoing``,
        not ``direct``) or strict ancestors.

        The reachability tables are :meth:`_compute_label_summaries`'s; the
        direct ones are one pass over the adjacency lists, built on the first
        request for either — a context that only ever sees reachability edges
        never pays for them.
        """
        if self._ancestor_labels is None:  # the one assigned last
            self._compute_label_summaries()
        if not direct:
            return self._descendant_labels if outgoing else self._ancestor_labels
        tables = self._direct_labels
        if tables is None:
            graph = self.graph
            own = [self._label_bit[graph.label(node)] for node in graph.nodes()]
            tables = self._direct_labels = tuple(
                [reduce(or_, map(own.__getitem__, neighbours(node)), 0) for node in graph.nodes()]
                for neighbours in (graph.predecessors, graph.successors)
            )
        parent_labels, child_labels = tables
        return child_labels if outgoing else parent_labels

    def descendant_label_bits(self, node: int) -> int:
        """Bit mask of labels appearing among the strict descendants of ``node``."""
        return self.label_bits(outgoing=True, direct=False)[node]

    def ancestor_label_bits(self, node: int) -> int:
        """Bit mask of labels appearing among the strict ancestors of ``node``."""
        return self.label_bits(outgoing=False, direct=False)[node]

    def label_bit(self, label: str) -> int:
        """Bit assigned to ``label`` in the label tables (0 if unknown)."""
        if self._descendant_labels is None:
            self._compute_label_summaries()
        return self._label_bit.get(label, 0)
