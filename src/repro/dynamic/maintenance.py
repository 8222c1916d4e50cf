"""Rebuild-vs-patch decisions and artifact patch helpers.

The dynamic subsystem keeps the :class:`repro.session.QuerySession` caches
alive across graph updates.  Each cached artifact falls into one of three
maintenance classes:

* **folded or patched** — the match context, which
  :meth:`repro.simulation.context.MatchContext.with_delta` folds forward for
  every delta without a removal (the SCC condensation with its merges, the
  label tables); the transitive closure (``apply_delta``); the EH edge
  partitions (:func:`patch_partitions`); and — for insert-only deltas — the
  closure-expanded graph (:func:`patch_expanded_graph`, fed by the closure
  patch's added pairs) and the GF catalog
  (:func:`repro.engines.wcoj.patch_catalog`);
* **lazily rebuilt** — the context's per-pair reachability index (built only
  for the matchers that ask per-pair questions), the whole context after a
  removal, its label tables after a relabel, and any of the above artifacts
  whose delta shape was not patchable;
* **per-query** — RIG caches and matcher instances, which are dropped on
  every version bump (they embed node candidates of the old state).

:func:`should_patch` is the cost heuristic gating the closure and the
catalog: patching pays off for small insertion-only deltas, while
deletion-bearing or bulk deltas fall back to a rebuild.  It does not gate the
match context, whose fold costs what the delta touches.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.dynamic.delta import GraphDelta

#: Deltas whose edge insertions exceed this fraction of the graph's current
#: edge count are rebuilt rather than patched: each inserted edge costs one
#: targeted traversal / closure-column scan, so beyond a fraction of |E| the
#: linear-pass rebuild is cheaper.
PATCH_EDGE_FRACTION = 0.25

#: Small graphs: always patch below this many inserted edges (the constant
#: costs of a rebuild dominate no matter the fraction).
PATCH_MIN_EDGES = 16


def should_patch(graph, delta: GraphDelta) -> bool:
    """Decide between incremental patching and a full rebuild.

    ``graph`` is the *pre-delta* graph (any object with ``num_edges``).
    Deltas with edge removals always rebuild — the reachability structures
    are monotone under insertion only.  Insertion deltas patch unless they
    are bulk-sized relative to the graph.
    """
    if delta.has_removals:
        return False
    num_inserts = len(delta.added_edges) + delta.num_added_nodes
    if num_inserts <= PATCH_MIN_EDGES:
        return True
    return num_inserts <= max(PATCH_MIN_EDGES, int(graph.num_edges * PATCH_EDGE_FRACTION))


# ---------------------------------------------------------------------- #
# artifact patch helpers
# ---------------------------------------------------------------------- #


def patch_expanded_graph(expanded, new_graph, delta: GraphDelta, closure_additions):
    """Patch the closure-expanded data graph for an insert-only delta.

    The expanded graph is ``graph edges ∪ closure pairs``; an insert-only
    delta can only ever *add* members to both sets, so the new expanded
    graph is the old one plus the delta's nodes/edges plus exactly the
    reachable pairs the closure patch added (``closure_additions``, the
    ``(source, added_mask)`` rows from
    :meth:`TransitiveClosureIndex.last_patch_additions`), folded as one
    batch with :meth:`DataGraph.with_delta` — work proportional to the
    delta, not to the closure.

    Returns the patched expanded graph, or ``None`` when the delta shape is
    not patchable (removals / relabels change label keys and reachable
    pairs non-monotonically — rebuild lazily instead).  The result always
    carries ``new_graph``'s version, so engine staleness checks accept it —
    even when the fold changed nothing (an inserted edge whose endpoints
    were already connected is already an expanded edge).
    """
    if not delta.is_insert_only:
        return None
    from repro.bitmap.intbitset import IntBitSet

    batch = GraphDelta(expanded.num_nodes)
    for _node, label in delta.added_nodes:
        batch.add_node(label)
    for source, target in delta.added_edges:
        batch.add_edge(source, target)
    for source, mask in closure_additions:
        for target in IntBitSet.from_mask(mask):
            if target != source:
                batch.add_edge(source, target)
    folded, _ = expanded.with_delta(batch)
    if folded is expanded:
        folded = copy.copy(expanded)
    folded.version = getattr(new_graph, "version", 0)
    return folded


def patch_partitions(
    partitions: Dict[Tuple[str, str], List[Tuple[int, int]]], graph, delta: GraphDelta
) -> bool:
    """Append inserted edges to the EH label-pair partitions in place.

    Only insertion-only deltas are patchable: a removal or relabel moves
    edges between partitions, which would need per-partition rescans —
    cheaper to rebuild lazily.  ``graph`` is the post-delta graph (used for
    endpoint labels).  Returns False (partitions untouched) when the delta
    shape is not patchable.
    """
    if not delta.is_insert_only:
        return False
    for source, target in delta.added_edges:
        key = (graph.label(source), graph.label(target))
        partitions.setdefault(key, []).append((source, target))
    return True


# ---------------------------------------------------------------------- #
# apply outcome
# ---------------------------------------------------------------------- #


@dataclass
class ApplyReport:
    """Outcome of one :meth:`repro.session.QuerySession.apply` call.

    ``patched`` artifacts were updated in place (their build cost was
    saved); ``invalidated`` artifacts were dropped and will rebuild lazily
    on next use; artifacts that had never been built appear in neither
    list.
    """

    old_version: int
    new_version: int
    num_ops: int
    seconds: float
    patched: List[str] = field(default_factory=list)
    invalidated: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """One-line human-readable outcome."""
        return (
            f"apply v{self.old_version}->v{self.new_version}: {self.num_ops} ops "
            f"in {self.seconds * 1000:.2f}ms; patched=[{', '.join(self.patched)}] "
            f"invalidated=[{', '.join(self.invalidated)}]"
        )
