"""Batched graph mutations: the :class:`GraphDelta` change log.

A :class:`GraphDelta` records a batch of structural edits against a base
graph — node additions, edge insertions, edge removals and relabels — as an
ordered operation log.  The log is the unit of change throughout the dynamic
subsystem:

* :meth:`repro.graph.digraph.DataGraph.with_delta` folds a delta into the
  next structure-shared graph version and returns the *effective* delta
  (:class:`repro.dynamic.MutableDataGraph` records one while being mutated
  directly);
* :meth:`repro.simulation.context.MatchContext.with_delta` folds the
  *effective* delta into the next match context (its condensation and label
  tables);
* :meth:`repro.session.QuerySession.apply` uses the delta's shape (with or
  without removals) to decide whether the match context folds or is
  dropped.

Deltas are serialisable (:meth:`to_dict` / :meth:`from_dict`) so an update
feed can be persisted next to its graph (see :mod:`repro.graph.io`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.exceptions import GraphError

#: Operation tags used in the log (and the JSON serialisation).
OP_ADD_NODE = "add_node"
OP_ADD_EDGE = "add_edge"
OP_REMOVE_EDGE = "remove_edge"
OP_RELABEL = "relabel"

_KNOWN_OPS = (OP_ADD_NODE, OP_ADD_EDGE, OP_REMOVE_EDGE, OP_RELABEL)


class GraphDelta:
    """An ordered batch of graph mutations against a base of ``base_num_nodes``.

    Parameters
    ----------
    base_num_nodes:
        Number of nodes of the graph the delta is written against.  New
        nodes are assigned the next dense ids (``base_num_nodes``,
        ``base_num_nodes + 1``, ...), so :meth:`add_node` can hand out the
        id the node *will* have once the delta is applied.
    base_version:
        The monotone :attr:`DataGraph.version` the delta is written
        against, when known (``None`` for hand-built deltas).  Carried
        through serialisation, so replay paths — the write-ahead log, a
        pending delta persisted next to its graph — can detect that a
        delta was already folded (``base_version < graph.version``) and
        skip it instead of double-applying.

    The recording methods perform only local validation (id range against
    the growing node count, non-empty labels); structural validation against
    the actual base graph — "does the removed edge exist?" — happens when the
    delta is folded by :meth:`repro.graph.digraph.DataGraph.with_delta`.
    """

    __slots__ = ("base_num_nodes", "base_version", "_ops", "_num_added_nodes")

    def __init__(self, base_num_nodes: int = 0, base_version: Optional[int] = None) -> None:
        if base_num_nodes < 0:
            raise GraphError(f"negative base node count {base_num_nodes}")
        self.base_num_nodes = base_num_nodes
        self.base_version = None if base_version is None else int(base_version)
        self._ops: List[Tuple] = []
        self._num_added_nodes = 0

    @classmethod
    def for_graph(cls, graph) -> "GraphDelta":
        """A delta written against ``graph`` (any object with ``num_nodes``).

        The graph's monotone ``version`` (0 when it carries none) is
        recorded as :attr:`base_version`.
        """
        return cls(graph.num_nodes, base_version=getattr(graph, "version", 0))

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def _check_node(self, node: int) -> None:
        limit = self.base_num_nodes + self._num_added_nodes
        if not (0 <= node < limit):
            raise GraphError(f"node {node} outside 0..{limit - 1}")

    def add_node(self, label: str) -> int:
        """Record a node addition; return the id the node will carry."""
        if not str(label):
            raise GraphError("node label must be non-empty")
        node = self.base_num_nodes + self._num_added_nodes
        self._ops.append((OP_ADD_NODE, str(label)))
        self._num_added_nodes += 1
        return node

    def add_edge(self, source: int, target: int) -> "GraphDelta":
        """Record a directed edge insertion (chainable)."""
        self._check_node(source)
        self._check_node(target)
        self._ops.append((OP_ADD_EDGE, source, target))
        return self

    def remove_edge(self, source: int, target: int) -> "GraphDelta":
        """Record a directed edge removal (chainable)."""
        self._check_node(source)
        self._check_node(target)
        self._ops.append((OP_REMOVE_EDGE, source, target))
        return self

    def relabel(self, node: int, label: str) -> "GraphDelta":
        """Record a label change of an existing (or freshly added) node."""
        self._check_node(node)
        if not str(label):
            raise GraphError("node label must be non-empty")
        self._ops.append((OP_RELABEL, node, str(label)))
        return self

    # ------------------------------------------------------------------ #
    # shape
    # ------------------------------------------------------------------ #

    @property
    def ops(self) -> Tuple[Tuple, ...]:
        """The operation log, in recording order."""
        return tuple(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    @property
    def num_added_nodes(self) -> int:
        """Number of node additions in the log."""
        return self._num_added_nodes

    @property
    def added_nodes(self) -> List[Tuple[int, str]]:
        """``(node_id, label)`` pairs of the added nodes, in id order."""
        result: List[Tuple[int, str]] = []
        next_id = self.base_num_nodes
        for op in self._ops:
            if op[0] == OP_ADD_NODE:
                result.append((next_id, op[1]))
                next_id += 1
        return result

    @property
    def added_edges(self) -> List[Tuple[int, int]]:
        """Inserted ``(source, target)`` pairs, in recording order."""
        return [(op[1], op[2]) for op in self._ops if op[0] == OP_ADD_EDGE]

    @property
    def removed_edges(self) -> List[Tuple[int, int]]:
        """Removed ``(source, target)`` pairs, in recording order."""
        return [(op[1], op[2]) for op in self._ops if op[0] == OP_REMOVE_EDGE]

    @property
    def relabels(self) -> List[Tuple[int, str]]:
        """``(node, new_label)`` pairs, in recording order."""
        return [(op[1], op[2]) for op in self._ops if op[0] == OP_RELABEL]

    @property
    def has_removals(self) -> bool:
        """True if the log contains at least one edge removal.

        Removals are what force the reachability / closure maintenance
        paths to rebuild: insertions only ever *add* reachable pairs, which
        the incremental patches exploit.
        """
        return any(op[0] == OP_REMOVE_EDGE for op in self._ops)

    @property
    def has_relabels(self) -> bool:
        """True if the log contains at least one relabel."""
        return any(op[0] == OP_RELABEL for op in self._ops)

    @property
    def is_insert_only(self) -> bool:
        """True if the log contains only node and edge additions."""
        return not (self.has_removals or self.has_relabels)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable representation of the delta."""
        payload: Dict[str, object] = {
            "base_num_nodes": self.base_num_nodes,
            "ops": [list(op) for op in self._ops],
        }
        if self.base_version is not None:
            payload["base_version"] = self.base_version
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "GraphDelta":
        """Rebuild a delta from :meth:`to_dict` output (validating ops).

        Malformed operations — unknown tags, wrong arity, non-integer node
        ids — raise :class:`~repro.exceptions.GraphError`, like every other
        corrupt-document path in :mod:`repro.graph.io`.
        """
        try:
            base_version = payload.get("base_version")
            delta = cls(
                int(payload.get("base_num_nodes", 0)),
                base_version=None if base_version is None else int(base_version),
            )
        except (TypeError, ValueError) as exc:
            raise GraphError(f"invalid base_num_nodes in delta payload: {exc}") from exc
        for raw in payload.get("ops", ()):
            op = tuple(raw)
            if not op or op[0] not in _KNOWN_OPS:
                raise GraphError(f"unknown delta operation {raw!r}")
            expected_arity = 2 if op[0] == OP_ADD_NODE else 3
            if len(op) != expected_arity:
                raise GraphError(f"malformed delta operation {raw!r}")
            try:
                if op[0] == OP_ADD_NODE:
                    delta.add_node(op[1])
                elif op[0] == OP_ADD_EDGE:
                    delta.add_edge(int(op[1]), int(op[2]))
                elif op[0] == OP_REMOVE_EDGE:
                    delta.remove_edge(int(op[1]), int(op[2]))
                else:
                    delta.relabel(int(op[1]), op[2])
            except (TypeError, ValueError) as exc:
                raise GraphError(f"malformed delta operation {raw!r}: {exc}") from exc
        return delta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphDelta(base={self.base_num_nodes}, ops={len(self._ops)}, "
            f"+nodes={self.num_added_nodes}, +edges={len(self.added_edges)}, "
            f"-edges={len(self.removed_edges)}, relabels={len(self.relabels)})"
        )


def merged_delta(first: GraphDelta, second: GraphDelta) -> GraphDelta:
    """Concatenate two deltas written against consecutive states.

    ``second`` must be written against the state produced by applying
    ``first`` (its ``base_num_nodes`` equals ``first``'s final node count).
    """
    expected = first.base_num_nodes + first.num_added_nodes
    if second.base_num_nodes != expected:
        raise GraphError(
            f"cannot merge: second delta is based on {second.base_num_nodes} "
            f"nodes, expected {expected}"
        )
    merged = GraphDelta(first.base_num_nodes, base_version=first.base_version)
    for op in first.ops + second.ops:
        merged._ops.append(op)
        if op[0] == OP_ADD_NODE:
            merged._num_added_nodes += 1
    return merged
