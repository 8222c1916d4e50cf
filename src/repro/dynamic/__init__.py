"""Dynamic-graph update subsystem: overlays, deltas, incremental maintenance.

The rest of the library treats a :class:`repro.graph.digraph.DataGraph` as
immutable-after-construction — the property the per-graph artifact caches
(reachability index, transitive closure, RIGs) rely on.  Real
serving scenarios mutate their graphs, though: hierarchies evolve, edge
feeds stream in.  This package provides the machinery that makes
*update-then-query* cheap instead of forcing a cold rebuild:

* :class:`GraphDelta` — an ordered, serialisable batch of mutations
  (``add_node`` / ``add_edge`` / ``remove_edge`` / ``relabel``);
* :class:`MutableDataGraph` — a :class:`DataGraph`-compatible overlay that
  answers adjacency / inverted-list / traversal reads through delta
  structures, and can :meth:`~MutableDataGraph.materialize` into a fresh
  immutable graph carrying a bumped monotone version;
* :func:`should_patch` plus the patch helpers in
  :mod:`repro.dynamic.maintenance` — the rebuild-vs-patch cost heuristic
  and in-place refresh paths for the expanded graph and edge partitions (the
  reachability indexes carry their own ``apply_delta`` methods);
* :class:`ApplyReport` — the outcome record of
  :meth:`repro.session.QuerySession.apply`, which ties it all together:
  one call patches or invalidates every cached artifact and bumps the
  session to the new graph version.

>>> delta = GraphDelta.for_graph(graph)
>>> n = delta.add_node("Task")
>>> delta.add_edge(project_id, n)
>>> report = session.apply(delta)          # patches indexes in place
>>> session.query(query)                   # sees the new node immediately
"""

from repro.dynamic.delta import GraphDelta, merged_delta
from repro.dynamic.maintenance import (
    ApplyReport,
    patch_expanded_graph,
    patch_partitions,
    should_patch,
)
from repro.dynamic.overlay import MutableDataGraph

__all__ = [
    "ApplyReport",
    "GraphDelta",
    "MutableDataGraph",
    "merged_delta",
    "patch_expanded_graph",
    "patch_partitions",
    "should_patch",
]
