"""Shared evaluation context: match sets, edge matches, batch expansions.

:class:`MatchContext` bundles the data graph and the derived structures every
phase of query evaluation needs:

* per-label inverted lists (match sets);
* per-node label bitsets of children / parents / descendants / ancestors
  (:meth:`MatchContext.label_bits`, what node pre-filtering tests);
* edge-match tests ``(u, v) ∈ ms(e)`` for child and descendant edges;
* one semijoin per direction over candidate sets, for both edge kinds:
  :meth:`MatchContext.tails_reaching` / :meth:`MatchContext.heads_reached`
  keep the candidates with a partner on the other side (the checks of double
  simulation, §4.5 "batch checking direct connectivity constraints").  On a
  direct edge each candidate's adjacency ``frozenset`` is tested against the
  partner set and the test stops at the first partner; on a reachability
  edge it is one cone of the SCC condensation;
* :meth:`MatchContext.expand_reachability`: both adjacency directions of a
  reachability edge from one condensation sweep each, equal answers sharing
  one set object — what BuildRIG installs as is.  The label summaries run on
  the same condensation arrays.

The condensation is GM's whole reachability index: flat per-component arrays
(:class:`~repro.graph.transform.Condensation`) computed from the graph by
:func:`~repro.graph.transform.condensation` on first use.  A per-pair index
(:attr:`MatchContext.reachability`) labels the same arrays with BFL, and is
built only when something asks a per-pair question — ISO's edge checks and
TM / JM — never by GM.

A context is a versioned artifact, like the graph it serves:
:meth:`MatchContext.with_delta` folds an insert delta into a new context that
copies each outer array once and shares every inner tuple.  New nodes become
singleton components; an inserted edge that goes against the topological
ranks runs the bounded two-way search of Pearce & Kelly ("A Dynamic
Topological Sort Algorithm for Directed Acyclic Graphs", JEA 2006), which
re-ranks the region it visited and contracts the components on a new cycle
into one.  The label tables ride along: inserted labels flow up (down) the
ancestor (descendant) cone until nothing changes, and the direct tables
change at the edge endpoints.  The old context is never modified, so a
pinned version keeps answering exactly.  A delta with removals gives a cold
context; a relabel keeps the condensation and drops the label tables.

Each fold also records what its delta can have connected, as
:class:`Gains` on the new context: the (tail label, head label) pairs that
gained an edge, and those that may have gained a path.  An inserted edge
``(x, y)`` always gains the edge pair ``(label(x), label(y))``.  It gains no
path pair when ``x`` already reached ``y`` (a cyclic shared component, or a
bounded search down the ranks from ``x``'s component ``cx`` finds ``y``'s
``cy``).  Otherwise every pair it joins is a node of ``anc*(cx) - anc+(cy)``
above a node of ``desc*(cy) - desc+(cx)``: a node that already strictly
reached ``y`` already reached all of ``desc*(cy)``, and mirror-wise.  The
label masks of those two sets, crossed, are the path pairs.  A delta with a
new node, a removal or a relabel, or a fold without label tables, records
nothing (``gains`` is ``None``: anything may have changed).  A RIG depends
only on the match sets of its query's labels and on the edge and path
relations between its edges' label pairs, so one whose query avoids every
gained pair is still exact on the new version (``QuerySession.apply``
carries it).

All three operations start from a *cone*: the components strictly below or
above a set of seed components.  The cones live in a :class:`Cones` memo that
belongs to one build (``build_rig`` passes it down through ``fbsim``), not to
the context, so the context holds nothing that grows from query to query and
concurrent builds share nothing but the read-only arrays.

:meth:`MatchContext.forward_reachable_set` / ``backward_reachable_set`` are
the plain whole-graph BFS: the reference the condensation operations are
tested against, and what the JM baseline still expands with (TM uses the
condensation operations, under one :class:`Cones` per query).
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from itertools import product
from operator import or_
from typing import (
    AbstractSet,
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

from repro.dynamic.delta import GraphDelta
from repro.graph.digraph import DataGraph
from repro.graph.transform import Condensation, condensation
from repro.query.pattern import PatternEdge, PatternQuery
from repro.reachability.base import ReachabilityIndex
from repro.reachability.factory import build_reachability_index


class ChildCheckMethod(Enum):
    """How direct-connectivity constraints are checked (Fig. 12a)."""

    #: Per-pair binary search over the sorted adjacency list.
    BIN_SEARCH = "binSearch"
    #: Per-node intersection of the adjacency list with the candidate set.
    BIT_ITER = "bitIter"
    #: Batch: one semijoin of the candidate set with the partner set, each
    #: candidate's adjacency ``frozenset`` tested with ``isdisjoint`` (stops at
    #: the first partner) — the paper unions the partners' adjacency bitmaps.
    BIT_BAT = "bitBat"


class _Labels(NamedTuple):
    """The reachability label tables (see ``_compute_label_summaries``)."""

    #: Label -> its bit: the labels of the graph, sorted, numbered from 0.
    label_bit: Dict[str, int]
    #: Component -> the labels of its members.
    own: List[int]
    #: Component -> the labels a member strictly reaches / is strictly
    #: reached from (its own when the component is cyclic).
    down: List[int]
    up: List[int]
    #: Data node -> ``down`` / ``up`` of its component.
    descendant: List[int]
    ancestor: List[int]


class Gains(NamedTuple):
    """What one folded delta can have connected, as (tail label, head label)
    pairs (see the module docstring)."""

    #: Label pairs that gained an edge.
    edges: FrozenSet[Tuple[str, str]]
    #: Label pairs that may have gained a path of length >= 1.
    paths: FrozenSet[Tuple[str, str]]


class _Fold:
    """One delta folded into copies of a context's arrays and label tables
    (see :meth:`MatchContext.with_delta`).  Every outer list is copied once
    here, in C; inner tuples are shared until a step replaces them.

    ``gained_edges`` / ``gained_paths`` collect the delta's :class:`Gains`
    edge by edge, when there are label tables to bound the paths with."""

    def __init__(
        self,
        graph: DataGraph,
        arrays: Condensation,
        labels: Optional[_Labels],
        direct: Optional[Tuple[List[int], List[int]]],
    ) -> None:
        self.graph = graph
        self.arrays = Condensation(*map(list, arrays))
        self.labels = None if labels is None else _Labels(labels.label_bit, *map(list, labels[1:]))
        self.direct = None if direct is None else (list(direct[0]), list(direct[1]))
        self.gained_edges: Set[Tuple[str, str]] = set()
        self.gained_paths: Set[Tuple[str, str]] = set()

    def add_node(self, node: int, label: str) -> None:
        """A new node: a fresh singleton component with a rank of its own."""
        component_of, members, children, parents, cyclic, rank = self.arrays
        component = len(members)
        component_of.append(component)
        members.append((node,))
        children.append(())
        parents.append(())
        cyclic.append(False)
        # Ranks only ever move within the values already taken, and every
        # value taken is below the number of ids handed out: this one is new.
        rank.append(component)
        labels = self.labels
        if labels is not None:
            labels.own.append(labels.label_bit[label])
            for table in labels[2:]:
                table.append(0)
        if self.direct is not None:
            for table in self.direct:
                table.append(0)

    def add_edge(self, source: int, target: int) -> None:
        """A new edge: a dag edge, a re-ranked region, or a contracted cycle."""
        label = self.graph.label
        self.gained_edges.add((label(source), label(target)))
        direct = self.direct
        if direct is not None:
            label_bit = self.labels.label_bit
            direct[0][target] |= label_bit[label(source)]
            direct[1][source] |= label_bit[label(target)]
        component_of, _, children, parents, cyclic, rank = self.arrays
        tail, head = component_of[source], component_of[target]
        if tail == head:
            if not cyclic[tail]:  # a self-loop on a singleton
                self._gain_paths(tail, head)
                cyclic[tail] = True
                labels = self.labels
                if labels is not None:
                    # Its ancestors (descendants) already see its labels.
                    own = labels.own[tail]
                    self._set(tail, labels.down, labels.descendant, labels.down[tail] | own)
                    self._set(tail, labels.up, labels.ancestor, labels.up[tail] | own)
            return
        if rank[tail] < rank[head]:
            if head in children[tail]:
                return
            # Every tail ~> head path climbs the ranks in between.
            if head not in self._within(tail, children, rank[tail], rank[head]):
                self._gain_paths(tail, head)
        else:
            self._gain_paths(tail, head)
            # Pearce & Kelly: every component on a head ~> tail path ranks in
            # [rank[head], rank[tail]], and so does everything they reorder.
            low, high = rank[head], rank[tail]
            below = self._within(head, children, low, high)
            above = self._within(tail, parents, low, high)
            cycle = below & above
            key = rank.__getitem__
            pool = sorted(map(key, below | above))
            lower = sorted(above - cycle, key=key)
            upper = sorted(below - cycle, key=key)
            if cycle:
                lower.append(self._contract(cycle))
            for component, value in zip(lower, pool):
                rank[component] = value
            for component, value in zip(upper, pool[len(pool) - len(upper):]):
                rank[component] = value
            if cycle:
                return
        children[tail] += (head,)
        parents[head] += (tail,)
        labels = self.labels
        if labels is not None:
            own = labels.own
            down, up = labels.down[head] | own[head], labels.up[tail] | own[tail]
            self._spread((tail,), down, parents, labels.down, labels.descendant)
            self._spread((head,), up, children, labels.up, labels.ancestor)

    def _gain_paths(self, tail: int, head: int) -> None:
        """Record the path pairs an edge from a node of ``tail`` to a node of
        ``head`` joins, when the first did not reach the second before:
        ``anc*(tail) - anc+(head)`` crossed with ``desc*(head) -
        desc+(tail)``, by label.  Called before the edge is folded."""
        labels = self.labels
        if labels is None:
            return  # the gains are unknown (see ``gains``)
        _, _, children, parents, cyclic, _ = self.arrays
        # ``anc+(head)``: the components that strictly reach it, itself
        # included when it is cyclic; mirror for ``desc+(tail)``.
        reaching = _strict_closure(parents, (head,))
        if cyclic[head]:
            reaching.add(head)
        reached = _strict_closure(children, (tail,))
        if cyclic[tail]:
            reached.add(tail)
        above = self._cone_labels(tail, parents, labels.up, reaching)
        below = self._cone_labels(head, children, labels.down, reached)
        names = labels.label_bit.items()
        self.gained_paths.update(
            product(
                [label for label, bit in names if above & bit],
                [label for label, bit in names if below & bit],
            )
        )

    def _cone_labels(
        self, start: int, adjacency: List[Tuple[int, ...]], beyond: List[int], skip: Set[int]
    ) -> int:
        """The labels of ``start`` and of every component it reaches over
        ``adjacency`` outside ``skip`` (closed under ``adjacency``, so what
        lies beyond a skipped component is skipped too).  ``beyond`` holds
        each component's labels further along ``adjacency``: a component
        whose ``beyond`` adds nothing new ends the walk there."""
        own = self.labels.own
        mask = 0
        seen = {start}
        stack = [start]
        while stack:
            component = stack.pop()
            mask |= own[component]
            if beyond[component] & ~mask:
                for neighbour in adjacency[component]:
                    if neighbour not in seen and neighbour not in skip:
                        seen.add(neighbour)
                        stack.append(neighbour)
        return mask

    def gains(self) -> Optional[Gains]:
        """The delta's :class:`Gains`, or ``None`` when unknown."""
        if self.labels is None:
            return None
        return Gains(frozenset(self.gained_edges), frozenset(self.gained_paths))

    def _within(self, start: int, adjacency: List[Tuple[int, ...]], low: int, high: int) -> Set[int]:
        """``start`` and the components it reaches over ``adjacency``
        through components ranked in ``[low, high]``."""
        rank = self.arrays.rank
        seen = {start}
        stack = [start]
        while stack:
            for neighbour in adjacency[stack.pop()]:
                if neighbour not in seen and low <= rank[neighbour] <= high:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return seen

    def _contract(self, cycle: Set[int]) -> int:
        """Merge the components of ``cycle`` into one cyclic component and
        return its id: that of the member with the most to rewrite."""
        component_of, members, children, parents, cyclic, _ = self.arrays
        survivor = max(cycle, key=lambda c: len(members[c]) + len(children[c]) + len(parents[c]))
        merged = [component for component in cycle if component != survivor]
        labels = self.labels
        if labels is not None:
            # Every member now reaches (is reached from) every member and
            # whatever any member did.
            own, down, up = labels.own, labels.down, labels.up
            mine = reduce(or_, (own[c] for c in cycle))
            reached = reduce(or_, (down[c] for c in cycle), mine)
            reaching = reduce(or_, (up[c] for c in cycle), mine)
            for dead in merged:
                for node in members[dead]:
                    labels.descendant[node] = reached
                    labels.ancestor[node] = reaching
                own[dead] = down[dead] = up[dead] = 0
            own[survivor] = mine
            self._set(survivor, down, labels.descendant, reached)
            self._set(survivor, up, labels.ancestor, reaching)
        for dead in merged:
            for node in members[dead]:
                component_of[node] = survivor
        for adjacency, opposite in ((children, parents), (parents, children)):
            beyond = {n for c in cycle for n in adjacency[c]} - cycle
            # A neighbour of a merged component names the survivor instead.
            for neighbour in {n for dead in merged for n in adjacency[dead]} - cycle:
                opposite[neighbour] = tuple(
                    dict.fromkeys(survivor if n in cycle else n for n in opposite[neighbour])
                )
            adjacency[survivor] = tuple(beyond)
        members[survivor] += tuple(node for dead in merged for node in members[dead])
        cyclic[survivor] = True
        for dead in merged:
            members[dead] = children[dead] = parents[dead] = ()
            cyclic[dead] = False
        if labels is not None:
            self._spread(parents[survivor], reached, parents, down, labels.descendant)
            self._spread(children[survivor], reaching, children, up, labels.ancestor)
        return survivor

    def _set(self, component: int, table: List[int], per_node: List[int], bits: int) -> None:
        """``table[component] = bits``, and the same for its members in
        ``per_node``."""
        if table[component] != bits:
            table[component] = bits
            for node in self.arrays.members[component]:
                per_node[node] = bits

    def _spread(
        self,
        start: Iterable[int],
        bits: int,
        adjacency: List[Tuple[int, ...]],
        table: List[int],
        per_node: List[int],
    ) -> None:
        """OR ``bits`` into ``table`` from ``start`` on along ``adjacency``,
        stopping at every component that already has them (so has everything
        beyond it)."""
        stack = list(start)
        while stack:
            component = stack.pop()
            old = table[component]
            if old | bits != old:
                self._set(component, table, per_node, old | bits)
                stack.extend(adjacency[component])


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

    def cone(self, arrays: Condensation, seeds: FrozenSet[int], downward: bool) -> Set[int]:
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
    arrays: Condensation,
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
    arrays: Condensation,
    toward_partners: Sequence[Tuple[int, ...]],
    sweep: Iterable[int],
    askers: Iterable[int],
    partners: Collection[int],
) -> Dict[int, FrozenSet[int]]:
    """``asker -> frozenset(its partners)``, one object per distinct answer.

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
    answers: Dict[int, FrozenSet[int]] = {}
    for mask, group in groups.items():
        answers.update(dict.fromkeys(group, frozenset(_decode(mask, numbered))))
    return answers


class MatchContext:
    """Evaluation context shared by simulation, RIG construction and joins.

    ``reachability`` is an already-built per-pair index to use; without one,
    the first read of :attr:`reachability` builds BFL over this context's
    condensation.
    """

    def __init__(self, graph: DataGraph, reachability: Optional[ReachabilityIndex] = None) -> None:
        self.graph = graph
        self._reachability = reachability
        self._component_arrays: Optional[Condensation] = None
        self._labels: Optional[_Labels] = None
        self._direct_labels: Optional[Tuple[List[int], List[int]]] = None
        #: What the delta :meth:`with_delta` folded into this context can
        #: have connected; ``None`` for a cold context, or when unknown.
        self.gains: Optional[Gains] = None

    @property
    def reachability(self) -> ReachabilityIndex:
        """The per-pair reachability index: BFL labelling this context's
        condensation, built on first read.

        GM never reads it.  Concurrent first readers at worst both build it.
        """
        index = self._reachability
        if index is None:
            index = self._reachability = build_reachability_index(
                self.graph, condensation=self._components()
            )
        return index

    def with_delta(self, graph: DataGraph, delta: GraphDelta) -> "MatchContext":
        """The context of ``graph``: this context's graph with the effective
        ``delta`` folded in (what ``DataGraph.with_delta`` returned).

        The new context carries what this one has built, each outer list
        copied once: the condensation when ``delta`` removes nothing, and the
        label tables too when it relabels nothing and brings no new label
        (those renumber every label bit).  What is not carried is built
        lazily, as in a cold context; the per-pair index never is carried.
        ``self`` is never modified.  The new context's :attr:`gains` records
        what ``delta`` can have connected, when the delta adds no node and the
        label tables were carried.
        """
        if delta.base_num_nodes != self.graph.num_nodes:
            raise ValueError(
                f"delta is based on {delta.base_num_nodes} nodes "
                f"but the context's graph has {self.graph.num_nodes}"
            )
        folded = MatchContext(graph)
        arrays = self._component_arrays
        if arrays is None or delta.has_removals:
            return folded
        # Read before the label tables: a concurrent reader may be building
        # both, and the direct ones are built from the label tables.
        direct, labels = self._direct_labels, self._labels
        added_nodes = delta.added_nodes
        if labels is None or (
            delta.has_relabels or any(label not in labels.label_bit for _, label in added_nodes)
        ):
            labels = direct = None
        fold = _Fold(graph, arrays, labels, direct)
        for node, label in added_nodes:
            fold.add_node(node, label)
        for source, target in delta.added_edges:
            fold.add_edge(source, target)
        folded._component_arrays = fold.arrays
        folded._labels = fold.labels
        folded._direct_labels = fold.direct
        if not added_nodes:
            folded.gains = fold.gains()
        return folded

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

    # ------------------------------------------------------------------ #
    # whole-graph BFS: the reference, and JM's expansion
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

    # ------------------------------------------------------------------ #
    # set-at-a-time: reachability expansion on the SCC condensation, and the
    # semijoins of both edge kinds
    # ------------------------------------------------------------------ #

    def _components(self) -> Condensation:
        """The condensation's flat arrays: carried by :meth:`with_delta`, or
        computed from the graph on first use.  Published by one attribute
        assignment: concurrent first callers at worst both build it."""
        arrays = self._component_arrays
        if arrays is None:
            arrays = self._component_arrays = condensation(self.graph)
        return arrays

    def expand_reachability(
        self,
        tails: Collection[int],
        heads: Collection[int],
        cones: Optional[Cones] = None,
    ) -> Tuple[Dict[int, FrozenSet[int]], Dict[int, FrozenSet[int]]]:
        """Expansion of a reachability edge, both directions:
        ``({tail: heads it reaches}, {head: tails reaching it})``.

        "Reaches" is a path of length >= 1, so ``(u, u)`` is a pair only when
        ``u`` lies on a cycle.  Nodes without a partner are absent.  Every
        answer is a ``frozenset``, and nodes with equal answers (a whole
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
            _shared_answers(arrays, arrays.children, reversed(downward), tails, heads),
            _shared_answers(arrays, arrays.parents, downward, heads, tails),
        )

    def tails_reaching(
        self,
        edge: PatternEdge,
        tails: Iterable[int],
        heads: AbstractSet[int],
        cones: Optional[Cones] = None,
    ) -> Set[int]:
        """Semijoin of ``edge``'s forward check: the ``tails`` with a partner
        among ``heads``.

        On a direct edge that is a child among ``heads``: each tail's
        successor ``frozenset`` is tested with ``isdisjoint``, which walks
        the smaller side and stops at the first partner.  On a reachability
        edge it is a head reached by a path of length >= 1: the cone up the
        condensation from the heads' components, swept once per ``cones``
        (the build's memo).
        """
        if edge.is_child:
            successors = self.graph.successor_set
            return {tail for tail in tails if not successors(tail).isdisjoint(heads)}
        return _with_partner(self._components(), cones or Cones(), tails, heads, downward=False)

    def heads_reached(
        self,
        edge: PatternEdge,
        heads: Iterable[int],
        tails: AbstractSet[int],
        cones: Optional[Cones] = None,
    ) -> Set[int]:
        """Semijoin of ``edge``'s backward check: the ``heads`` with a partner
        among ``tails`` — a parent on a direct edge, a tail reaching the head
        by a path of length >= 1 on a reachability edge (the mirror of
        :meth:`tails_reaching`)."""
        if edge.is_child:
            predecessors = self.graph.predecessor_set
            return {head for head in heads if not predecessors(head).isdisjoint(tails)}
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
        component_of, _, children, parents, cyclic, rank = self._components()
        count = len(rank)
        own = [0] * count
        for node in graph.nodes():
            own[component_of[node]] |= label_bit[graph.label(node)]
        order = sorted(range(count), key=rank.__getitem__)
        tables = []
        for sweep, toward in ((reversed(order), children), (order, parents)):
            bits = [0] * count
            for component in sweep:
                seen = own[component] if cyclic[component] else 0
                for neighbour in toward[component]:
                    seen |= bits[neighbour] | own[neighbour]
                bits[component] = seen
            tables.append(bits)
        down, up = tables
        self._labels = _Labels(
            label_bit,
            own,
            down,
            up,
            [down[component] for component in component_of],
            [up[component] for component in component_of],
        )

    def _label_tables(self) -> _Labels:
        """The reachability label tables, computed on first use."""
        labels = self._labels
        if labels is None:
            self._compute_label_summaries()
            labels = self._labels
        return labels

    def label_bits(self, outgoing: bool, direct: bool) -> Sequence[int]:
        """Per data node, the bit mask of the labels among its children
        (``outgoing``, ``direct``), parents, strict descendants (``outgoing``,
        not ``direct``) or strict ancestors.

        The reachability tables are :meth:`_compute_label_summaries`'s; the
        direct ones are one pass over the adjacency lists, built on the first
        request for either — a context that only ever sees reachability edges
        never pays for them.  :meth:`with_delta` carries both.
        """
        labels = self._label_tables()
        if not direct:
            return labels.descendant if outgoing else labels.ancestor
        tables = self._direct_labels
        if tables is None:
            graph = self.graph
            label_bit = labels.label_bit
            own = [label_bit[graph.label(node)] for node in graph.nodes()]
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
        return self._label_tables().label_bit.get(label, 0)
