"""Dynamic-graph update subsystem: deltas, the fold, incremental maintenance.

The rest of the library treats a :class:`repro.graph.digraph.DataGraph` as
immutable — the property the per-graph artifact caches (reachability
index, transitive closure, RIGs) rely on; a new version is a new graph that
shares what the delta did not touch.  Real
serving scenarios mutate their graphs, though: hierarchies evolve, edge
feeds stream in.  This package provides the machinery that makes
*update-then-query* cheap instead of forcing a cold rebuild:

* :class:`GraphDelta` — an ordered, serialisable batch of mutations
  (``add_node`` / ``add_edge`` / ``remove_edge`` / ``relabel``);
* :meth:`DataGraph.with_delta` — the fold: the next graph version, sharing
  every container the delta did not touch, at a bumped monotone version;
* :class:`MutableDataGraph` — a recorder for direct edits: it folds each
  one at once and keeps the effective delta since its base;
* :class:`ApplyReport` — the outcome record of
  :meth:`repro.session.QuerySession.apply`, which ties it all together:
  one call folds the graph, folds the match context
  (``MatchContext.with_delta``), carries the RIGs the delta spares, drops
  the comparator engines' artifacts (they rebuild per version, on first
  use) and bumps the session to the new graph version.

>>> delta = GraphDelta.for_graph(graph)
>>> n = delta.add_node("Task")
>>> delta.add_edge(project_id, n)
>>> report = session.apply(delta)          # folds the match context forward
>>> session.query(query)                   # sees the new node immediately
"""

from repro.dynamic.delta import GraphDelta, merged_delta
from repro.dynamic.maintenance import ApplyReport
from repro.dynamic.overlay import MutableDataGraph

__all__ = [
    "ApplyReport",
    "GraphDelta",
    "MutableDataGraph",
    "merged_delta",
]
