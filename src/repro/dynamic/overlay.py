"""A graph under edit: the current folded :class:`DataGraph` plus its delta.

:class:`MutableDataGraph` records edits against a base graph.  Each batch —
a :class:`repro.dynamic.GraphDelta` handed to :meth:`apply` (or the
constructor), or one :meth:`add_node` / :meth:`add_edge` /
:meth:`remove_edge` / :meth:`relabel` call — is folded at once with
:meth:`DataGraph.with_delta`, so the recorder always holds a finished,
structure-shared graph and every read (adjacency, inverted lists,
traversals, ``version``) is that graph's own.  Every effective batch bumps
the monotone version by one.

:meth:`materialize` returns the current graph; :meth:`delta_since_base`
returns the *effective* accumulated delta (no-op mutations, e.g. inserting
an edge that already exists, are not recorded), which is what the
incremental index-maintenance paths consume.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.dynamic.delta import GraphDelta, merged_delta

if TYPE_CHECKING:  # the graph module imports this package
    from repro.graph.digraph import DataGraph


class MutableDataGraph:
    """``base`` plus recorded edits; reads go to the current folded graph."""

    __slots__ = ("_graph", "_delta")

    def __init__(self, base: "DataGraph", delta: Optional[GraphDelta] = None) -> None:
        self._graph = base
        self._delta = GraphDelta(base.num_nodes, base_version=base.version)
        if delta is not None:
            self.apply(delta)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._graph, name)

    def __len__(self) -> int:
        return len(self._graph)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #

    def apply(self, delta: GraphDelta) -> "MutableDataGraph":
        """Fold one batched delta; a single version bump for the batch.

        A batch whose every operation is a no-op (e.g. inserting edges that
        already exist) leaves the version unchanged — the graph state did
        not change, so dependents must not observe a new version.
        """
        graph, effective = self._graph.with_delta(delta)
        if graph is not self._graph:
            self._graph = graph
            self._delta = merged_delta(self._delta, effective)
        return self

    def _fold(self, delta: GraphDelta) -> bool:
        before = self._graph
        self.apply(delta)
        return self._graph is not before

    def add_node(self, label: str) -> int:
        """Append a node carrying ``label``; returns its id.  Bumps version."""
        delta = GraphDelta.for_graph(self._graph)
        node = delta.add_node(label)
        self.apply(delta)
        return node

    def add_edge(self, source: int, target: int) -> bool:
        """Insert edge ``(source, target)``.  Returns False if it existed."""
        return self._fold(GraphDelta.for_graph(self._graph).add_edge(source, target))

    def remove_edge(self, source: int, target: int) -> None:
        """Remove edge ``(source, target)``; raises if it does not exist."""
        self.apply(GraphDelta.for_graph(self._graph).remove_edge(source, target))

    def relabel(self, node: int, label: str) -> bool:
        """Change the label of ``node``.  Returns False if unchanged."""
        return self._fold(GraphDelta.for_graph(self._graph).relabel(node, label))

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    def delta_since_base(self) -> GraphDelta:
        """The effective delta accumulated since construction.

        No-op mutations (inserting an existing edge, relabelling to the same
        label) are absent, so index-maintenance code can treat every
        recorded op as a real change.
        """
        return self._delta

    def materialize(self) -> "DataGraph":
        """The current graph (``base`` itself when nothing changed)."""
        return self._graph
