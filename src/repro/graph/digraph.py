"""Core directed, node-labelled data graph.

:class:`DataGraph` is the immutable-after-construction structure that every
algorithm in the library operates on.  Nodes are dense integer identifiers
``0 .. n-1``; each node carries exactly one label.  The structure stores:

* forward adjacency lists (``successors``) and backward adjacency lists
  (``predecessors``), each sorted by node id;
* the label of every node and the *inverted list* ``I_label`` (Definition 2.1
  of the paper): the sorted list of nodes carrying a given label.

Adjacency lists and inverted lists are exposed both as tuples (for ordered
scans / binary search) and as frozensets (for O(1) membership tests and
C-level intersection).  GM's runtime index graphs (:mod:`repro.rig`) are
built from these sets on demand.

A graph is never mutated.  A new version is made by
:meth:`DataGraph.with_delta`, which folds a
:class:`~repro.dynamic.GraphDelta` by path copying: the result rebuilds only
the containers the delta touched and shares every other one with its base,
so versions cost O(delta) Python work, not O(V + E).  The constructor is
the cold build.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Set, Tuple

from repro.dynamic.delta import OP_ADD_EDGE, OP_ADD_NODE, OP_RELABEL, OP_REMOVE_EDGE, GraphDelta
from repro.exceptions import GraphError

_NO_NODES: frozenset = frozenset()


class DataGraph:
    """A directed node-labelled data graph with dense integer node ids.

    Parameters
    ----------
    labels:
        Sequence of labels, one per node; node ``i`` has label ``labels[i]``.
    edges:
        Iterable of ``(source, target)`` pairs.  Duplicate edges are
        collapsed; self-loops are allowed (the paper's data graphs are
        arbitrary directed graphs).
    name:
        Optional human-readable name (used by the dataset registry and the
        benchmark reports).
    version:
        Monotone data version.  Freshly built graphs are version 0; each
        effective :meth:`with_delta` fold is one higher than its base, so
        per-graph artifacts (indexes, caches) can detect staleness.  The
        version does not participate in equality or hashing — it describes
        provenance, not structure.

    Versions made by :meth:`with_delta` share every container the delta did
    not touch with their base (and so with each other): an adjacency tuple
    or inverted list may be the very object of an older version.  That is
    safe because no method ever mutates one.
    """

    __slots__ = (
        "_labels",
        "_succ",
        "_pred",
        "_succ_sets",
        "_pred_sets",
        "_inverted",
        "_inverted_sets",
        "_num_edges",
        "name",
        "version",
    )

    def __init__(
        self,
        labels: Sequence[str],
        edges: Iterable[Tuple[int, int]],
        name: str = "graph",
        version: int = 0,
    ) -> None:
        n = len(labels)
        self._labels: Tuple[str, ...] = tuple(str(label) for label in labels)
        self.name = name
        self.version = version

        succ: List[List[int]] = [[] for _ in range(n)]
        pred: List[List[int]] = [[] for _ in range(n)]
        seen = set()
        num_edges = 0
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) references a node outside 0..{n - 1}")
            if (u, v) in seen:
                continue
            seen.add((u, v))
            succ[u].append(v)
            pred[v].append(u)
            num_edges += 1

        self._succ: Tuple[Tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in succ)
        self._pred: Tuple[Tuple[int, ...], ...] = tuple(tuple(sorted(p)) for p in pred)
        self._succ_sets: Tuple[frozenset, ...] = tuple(frozenset(s) for s in self._succ)
        self._pred_sets: Tuple[frozenset, ...] = tuple(frozenset(p) for p in self._pred)
        self._num_edges = num_edges

        inverted: Dict[str, List[int]] = {}
        for node, label in enumerate(self._labels):
            inverted.setdefault(label, []).append(node)
        self._inverted: Dict[str, Tuple[int, ...]] = {
            label: tuple(nodes) for label, nodes in inverted.items()
        }
        self._inverted_sets: Dict[str, frozenset] = {
            label: frozenset(nodes) for label, nodes in self._inverted.items()
        }

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of distinct directed edges in the graph."""
        return self._num_edges

    @property
    def labels(self) -> Tuple[str, ...]:
        """Tuple of node labels indexed by node id."""
        return self._labels

    def nodes(self) -> range:
        """Iterate over node ids."""
        return range(self.num_nodes)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all ``(source, target)`` edges."""
        for u, targets in enumerate(self._succ):
            for v in targets:
                yield (u, v)

    def label(self, node: int) -> str:
        """Return the label of ``node``."""
        return self._labels[node]

    def label_alphabet(self) -> Tuple[str, ...]:
        """Return the sorted tuple of distinct labels used in the graph."""
        return tuple(sorted(self._inverted))

    def num_labels(self) -> int:
        """Return the number of distinct labels."""
        return len(self._inverted)

    # ------------------------------------------------------------------ #
    # adjacency
    # ------------------------------------------------------------------ #

    def successors(self, node: int) -> Tuple[int, ...]:
        """Sorted forward adjacency list (children) of ``node``."""
        return self._succ[node]

    def predecessors(self, node: int) -> Tuple[int, ...]:
        """Sorted backward adjacency list (parents) of ``node``."""
        return self._pred[node]

    def successor_set(self, node: int) -> frozenset:
        """Frozenset of children of ``node`` for O(1) membership tests."""
        return self._succ_sets[node]

    def predecessor_set(self, node: int) -> frozenset:
        """Frozenset of parents of ``node`` for O(1) membership tests."""
        return self._pred_sets[node]

    def has_edge(self, u: int, v: int) -> bool:
        """Return True if the directed edge ``(u, v)`` exists."""
        return v in self._succ_sets[u]

    def has_edge_binary_search(self, u: int, v: int) -> bool:
        """Edge test by binary search over the sorted adjacency list.

        This is the ``binSearch`` method compared in Fig. 12(a) of the paper.
        The alternatives test :meth:`successor_set` / :meth:`predecessor_set`
        instead: bitIter intersects one with the whole candidate set, and
        bitBat's semijoin (``MatchContext.tails_reaching`` / ``heads_reached``)
        asks ``isdisjoint``, which stops at the first partner.
        """
        adjacency = self._succ[u]
        index = bisect_left(adjacency, v)
        return index < len(adjacency) and adjacency[index] == v

    def out_degree(self, node: int) -> int:
        """Number of outgoing edges of ``node``."""
        return len(self._succ[node])

    def in_degree(self, node: int) -> int:
        """Number of incoming edges of ``node``."""
        return len(self._pred[node])

    def degree(self, node: int) -> int:
        """Total (in + out) degree of ``node``."""
        return len(self._succ[node]) + len(self._pred[node])

    # ------------------------------------------------------------------ #
    # inverted label lists
    # ------------------------------------------------------------------ #

    def inverted_list(self, label: str) -> Tuple[int, ...]:
        """Sorted inverted list ``I_label``: nodes carrying ``label``."""
        return self._inverted.get(label, ())

    def inverted_set(self, label: str) -> frozenset:
        """Frozenset variant of :meth:`inverted_list`."""
        return self._inverted_sets.get(label, frozenset())

    def inverted_lists(self) -> Mapping[str, Tuple[int, ...]]:
        """Mapping from every label to its inverted list."""
        return dict(self._inverted)

    def max_inverted_list_size(self) -> int:
        """Size of the largest inverted list (``|I_max|`` in the paper)."""
        if not self._inverted:
            return 0
        return max(len(nodes) for nodes in self._inverted.values())

    # ------------------------------------------------------------------ #
    # folding a delta
    # ------------------------------------------------------------------ #

    def with_delta(self, delta: GraphDelta) -> Tuple["DataGraph", GraphDelta]:
        """Fold ``delta`` into a new graph that shares what it did not touch.

        Returns ``(graph, effective)``.  The ops are validated and applied in
        order: inserting a present edge and relabelling a node to its own
        label change nothing and are left out of ``effective``; removing a
        missing edge raises :class:`GraphError`; an edge added and removed
        in one batch is gone again; a label whose last node leaves it
        disappears.  ``graph`` is one version above ``self``, or ``self``
        itself (with an empty ``effective``) when nothing changed.

        Only the touched nodes' adjacency tuples and frozensets and the
        touched labels' inverted lists are rebuilt.  The four per-node outer
        tuples are copied once each, in C; every other container is
        ``self``'s own object.  ``self`` is never modified.
        """
        n = len(self._labels)
        if delta.base_num_nodes != n:
            raise GraphError(
                f"delta is based on {delta.base_num_nodes} nodes but the graph has {n}"
            )
        effective = GraphDelta(n, base_version=self.version)
        # Working copies of the touched nodes' adjacency, and the final label
        # of every added or relabelled node.  Node ids are in range: a
        # GraphDelta checks them when it records an op.
        out: Dict[int, Set[int]] = {}
        into: Dict[int, Set[int]] = {}
        new_labels: Dict[int, str] = {}
        count = n
        num_edges = self._num_edges
        for op in delta.ops:
            tag = op[0]
            if tag == OP_ADD_NODE:
                new_labels[count] = op[1]
                count += 1
                effective.add_node(op[1])
            elif tag == OP_ADD_EDGE or tag == OP_REMOVE_EDGE:
                source, target = op[1], op[2]
                adding = tag == OP_ADD_EDGE
                targets = out.get(source)
                if targets is None:
                    present = source < n and target in self._succ_sets[source]
                else:
                    present = target in targets
                if present == adding:
                    if adding:
                        continue
                    raise GraphError(f"edge ({source}, {target}) does not exist")
                if targets is None:
                    targets = out[source] = set(self._succ[source] if source < n else ())
                sources = into.get(target)
                if sources is None:
                    sources = into[target] = set(self._pred[target] if target < n else ())
                if adding:
                    targets.add(target)
                    sources.add(source)
                    num_edges += 1
                    effective.add_edge(source, target)
                else:
                    targets.discard(target)
                    sources.discard(source)
                    num_edges -= 1
                    effective.remove_edge(source, target)
            elif tag == OP_RELABEL:
                node, label = op[1], op[2]
                current = new_labels[node] if node in new_labels else self._labels[node]
                if current == label:
                    continue
                new_labels[node] = label
                effective.relabel(node, label)
            else:  # pragma: no cover - GraphDelta validates on record
                raise GraphError(f"unknown delta operation {op!r}")
        if not effective:
            return self, effective

        graph = DataGraph.__new__(DataGraph)
        graph.name = self.name
        graph.version = self.version + 1
        graph._num_edges = num_edges
        grown = count - n
        graph._succ, graph._succ_sets = _patched_adjacency(self._succ, self._succ_sets, out, grown)
        graph._pred, graph._pred_sets = _patched_adjacency(self._pred, self._pred_sets, into, grown)
        graph._labels = self._labels
        graph._inverted = self._inverted
        graph._inverted_sets = self._inverted_sets
        if new_labels:
            labels = list(self._labels)
            labels.extend([""] * grown)
            leaving: Dict[str, List[int]] = {}
            joining: Dict[str, List[int]] = {}
            for node, label in new_labels.items():
                labels[node] = label
                old = self._labels[node] if node < n else None
                if old != label:
                    if old is not None:
                        leaving.setdefault(old, []).append(node)
                    joining.setdefault(label, []).append(node)
            graph._labels = tuple(labels)
            inverted = graph._inverted = dict(self._inverted)
            inverted_sets = graph._inverted_sets = dict(self._inverted_sets)
            for label in leaving.keys() | joining.keys():
                members = (
                    inverted_sets.get(label, _NO_NODES)
                    .difference(leaving.get(label, ()))
                    .union(joining.get(label, ()))
                )
                if members:
                    inverted[label] = tuple(sorted(members))
                    inverted_sets[label] = members
                else:
                    del inverted[label], inverted_sets[label]
        return graph, effective

    # ------------------------------------------------------------------ #
    # traversal helpers
    # ------------------------------------------------------------------ #

    def bfs_forward(self, source: int) -> List[int]:
        """Return all nodes reachable from ``source`` (including itself)."""
        visited = [False] * self.num_nodes
        visited[source] = True
        order = [source]
        frontier = [source]
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                for child in self._succ[node]:
                    if not visited[child]:
                        visited[child] = True
                        order.append(child)
                        next_frontier.append(child)
            frontier = next_frontier
        return order

    def bfs_backward(self, source: int) -> List[int]:
        """Return all nodes that can reach ``source`` (including itself)."""
        visited = [False] * self.num_nodes
        visited[source] = True
        order = [source]
        frontier = [source]
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                for parent in self._pred[node]:
                    if not visited[parent]:
                        visited[parent] = True
                        order.append(parent)
                        next_frontier.append(parent)
            frontier = next_frontier
        return order

    def reaches_bfs(self, u: int, v: int) -> bool:
        """Ground-truth reachability check by BFS (used by tests and oracles).

        Node ``u`` reaches ``v`` if there is a non-empty path from ``u`` to
        ``v`` or ``u == v`` — the paper's ``u ≺ v`` treats every node as
        reaching itself through a trivial path only when an edge exists;
        here we follow the common convention used by its reachability index
        (BFL): ``reaches(u, u)`` is True.
        """
        if u == v:
            return True
        visited = [False] * self.num_nodes
        visited[u] = True
        frontier = [u]
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                for child in self._succ[node]:
                    if child == v:
                        return True
                    if not visited[child]:
                        visited[child] = True
                        next_frontier.append(child)
            frontier = next_frontier
        return False

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DataGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, labels={self.num_labels()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataGraph):
            return NotImplemented
        return self._labels == other._labels and self._succ == other._succ

    def __hash__(self) -> int:
        return hash((self._labels, self._succ))


def _patched_adjacency(
    lists: Tuple[Tuple[int, ...], ...],
    sets: Tuple[frozenset, ...],
    touched: Dict[int, Set[int]],
    grown: int,
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[frozenset, ...]]:
    """One direction of :meth:`DataGraph.with_delta`: ``lists`` / ``sets``
    with ``grown`` empty nodes appended and the ``touched`` nodes replaced."""
    if not touched and not grown:
        return lists, sets
    new_lists = list(lists)
    new_sets = list(sets)
    if grown:
        new_lists.extend([()] * grown)
        new_sets.extend([_NO_NODES] * grown)
    for node, members in touched.items():
        new_lists[node] = tuple(sorted(members))
        new_sets[node] = frozenset(members)
    return tuple(new_lists), tuple(new_sets)
