"""Pattern-query data model.

A :class:`PatternQuery` is a small directed graph: nodes are dense integers
``0 .. n-1`` with labels, edges carry an :class:`EdgeType` distinguishing
*direct* (child) edges from *reachability* (descendant) edges.  Patterns with
both kinds are *hybrid* patterns — the queries this library is about.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import QueryError


class EdgeType(Enum):
    """The two edge kinds of a hybrid pattern."""

    #: Direct (child) edge: mapped to a single edge of the data graph.
    CHILD = "child"
    #: Reachability (descendant) edge: mapped to a path in the data graph.
    DESCENDANT = "descendant"

    def symbol(self) -> str:
        """DSL arrow for this edge type ('->' child, '=>' descendant)."""
        return "->" if self is EdgeType.CHILD else "=>"


@dataclass(frozen=True)
class PatternEdge:
    """A typed edge of a pattern query."""

    source: int
    target: int
    edge_type: EdgeType

    @property
    def is_child(self) -> bool:
        """True if this is a direct (child) edge."""
        return self.edge_type is EdgeType.CHILD

    @property
    def is_descendant(self) -> bool:
        """True if this is a reachability (descendant) edge."""
        return self.edge_type is EdgeType.DESCENDANT

    def endpoints(self) -> Tuple[int, int]:
        """The (source, target) pair."""
        return (self.source, self.target)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.source}{self.edge_type.symbol()}{self.target}"


class PatternQuery:
    """A connected, directed, node-labelled hybrid pattern query.

    Parameters
    ----------
    labels:
        Sequence of node labels; query node ``i`` has label ``labels[i]``.
    edges:
        Iterable of either :class:`PatternEdge` or ``(source, target,
        edge_type)`` triples, where ``edge_type`` may be an
        :class:`EdgeType` or one of the strings ``"child"`` /
        ``"descendant"`` / ``"->"`` / ``"=>"``.
    name:
        Optional human-readable name (templates use ``"HQ3"`` etc.).
    """

    __slots__ = ("_labels", "_edges", "_out", "_in", "_edge_index", "_hash", "name")

    def __init__(
        self,
        labels: Sequence[str],
        edges: Iterable,
        name: str = "query",
    ) -> None:
        self._labels: Tuple[str, ...] = tuple(str(label) for label in labels)
        self.name = name
        n = len(self._labels)
        if n == 0:
            raise QueryError("a pattern query needs at least one node")

        normalised: List[PatternEdge] = []
        seen = set()
        for raw in edges:
            edge = self._normalise_edge(raw)
            if not (0 <= edge.source < n) or not (0 <= edge.target < n):
                raise QueryError(f"edge {edge} references a node outside 0..{n - 1}")
            if edge.source == edge.target:
                raise QueryError(f"self-loop on query node {edge.source} is not allowed")
            key = (edge.source, edge.target)
            if key in seen:
                raise QueryError(f"duplicate query edge ({edge.source}, {edge.target})")
            seen.add(key)
            normalised.append(edge)

        self._edges: Tuple[PatternEdge, ...] = tuple(normalised)
        out: List[List[int]] = [[] for _ in range(n)]
        incoming: List[List[int]] = [[] for _ in range(n)]
        edge_index: Dict[Tuple[int, int], PatternEdge] = {}
        for edge in self._edges:
            out[edge.source].append(edge.target)
            incoming[edge.target].append(edge.source)
            edge_index[(edge.source, edge.target)] = edge
        self._out: Tuple[Tuple[int, ...], ...] = tuple(tuple(sorted(targets)) for targets in out)
        self._in: Tuple[Tuple[int, ...], ...] = tuple(tuple(sorted(sources)) for sources in incoming)
        self._edge_index = edge_index
        # Every RIG-cache probe hashes the query: the edge set is hashed on
        # the first probe only (a query never probed never pays for it).
        self._hash: Optional[int] = None

    @staticmethod
    def _normalise_edge(raw) -> PatternEdge:
        if isinstance(raw, PatternEdge):
            return raw
        try:
            source, target, edge_type = raw
        except (TypeError, ValueError) as exc:
            raise QueryError(f"cannot interpret {raw!r} as a pattern edge") from exc
        if isinstance(edge_type, EdgeType):
            kind = edge_type
        elif edge_type in ("child", "->", "c", "direct"):
            kind = EdgeType.CHILD
        elif edge_type in ("descendant", "=>", "d", "reachability"):
            kind = EdgeType.DESCENDANT
        else:
            raise QueryError(f"unknown edge type {edge_type!r}")
        return PatternEdge(int(source), int(target), kind)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of query nodes."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of query edges."""
        return len(self._edges)

    @property
    def labels(self) -> Tuple[str, ...]:
        """Node labels indexed by query node id."""
        return self._labels

    def nodes(self) -> range:
        """Iterate over query node ids."""
        return range(self.num_nodes)

    def edges(self) -> Tuple[PatternEdge, ...]:
        """All query edges."""
        return self._edges

    def label(self, node: int) -> str:
        """Label of query node ``node``."""
        return self._labels[node]

    def edge(self, source: int, target: int) -> PatternEdge:
        """The edge from ``source`` to ``target``; raises if absent."""
        try:
            return self._edge_index[(source, target)]
        except KeyError as exc:
            raise QueryError(f"no query edge ({source}, {target})") from exc

    def has_edge(self, source: int, target: int) -> bool:
        """True if the query has an edge from ``source`` to ``target``."""
        return (source, target) in self._edge_index

    def children(self, node: int) -> Tuple[int, ...]:
        """Query nodes with an edge from ``node``."""
        return self._out[node]

    def parents(self, node: int) -> Tuple[int, ...]:
        """Query nodes with an edge to ``node``."""
        return self._in[node]

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """All adjacent query nodes (parents and children), deduplicated."""
        return tuple(sorted(set(self._out[node]) | set(self._in[node])))

    def degree(self, node: int) -> int:
        """Total degree (in + out) of a query node."""
        return len(self._out[node]) + len(self._in[node])

    def child_edges(self) -> Tuple[PatternEdge, ...]:
        """Only the direct (child) edges."""
        return tuple(edge for edge in self._edges if edge.is_child)

    def descendant_edges(self) -> Tuple[PatternEdge, ...]:
        """Only the reachability (descendant) edges."""
        return tuple(edge for edge in self._edges if edge.is_descendant)

    def is_hybrid(self) -> bool:
        """True if the query mixes direct and reachability edges."""
        return bool(self.child_edges()) and bool(self.descendant_edges())

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #

    def is_connected(self) -> bool:
        """True if the underlying undirected graph is connected."""
        if self.num_nodes <= 1:
            return True
        visited = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for neighbor in self.neighbors(node):
                if neighbor not in visited:
                    visited.add(neighbor)
                    frontier.append(neighbor)
        return len(visited) == self.num_nodes

    def undirected_edge_pairs(self) -> FrozenSet[Tuple[int, int]]:
        """Set of undirected edge pairs ``(min, max)``."""
        return frozenset(
            (min(edge.source, edge.target), max(edge.source, edge.target)) for edge in self._edges
        )

    def with_edges(self, edges: Iterable, name: Optional[str] = None) -> "PatternQuery":
        """Return a copy of this query with a different edge set."""
        return PatternQuery(self._labels, edges, name=name or self.name)

    def relabeled(self, labels: Sequence[str], name: Optional[str] = None) -> "PatternQuery":
        """Return a copy with new node labels (same structure)."""
        if len(labels) != self.num_nodes:
            raise QueryError("label count must match the number of query nodes")
        return PatternQuery(labels, self._edges, name=name or self.name)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (the wire protocol's query payload)."""
        return {
            "name": self.name,
            "labels": list(self._labels),
            "edges": [
                [edge.source, edge.target, edge.edge_type.value]
                for edge in self._edges
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "PatternQuery":
        """Rebuild a query from :meth:`to_dict` output.

        Malformed payloads raise :class:`~repro.exceptions.QueryError` (the
        constructor's usual validation plus shape checks here), so a wire
        endpoint can reject a corrupt query without crashing.
        """
        if not isinstance(payload, dict):
            raise QueryError(f"query payload must be an object, got {type(payload).__name__}")
        labels = payload.get("labels")
        if not isinstance(labels, (list, tuple)):
            raise QueryError("query payload needs a 'labels' list")
        edges = payload.get("edges", ())
        if not isinstance(edges, (list, tuple)):
            raise QueryError("query payload 'edges' must be a list")
        return cls(
            labels,
            [tuple(edge) for edge in edges],
            name=str(payload.get("name", "query")),
        )

    # ------------------------------------------------------------------ #
    # dunder helpers
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternQuery):
            return NotImplemented
        return self._labels == other._labels and set(self._edges) == set(other._edges)

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash((self._labels, frozenset(self._edges)))
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PatternQuery(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, hybrid={self.is_hybrid()})"
        )
