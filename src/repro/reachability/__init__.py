"""Node-reachability indexes.

Evaluating reachability (descendant) query edges requires checking whether a
data node reaches another (``u ≺ v``).  The paper's implementation uses the
BFL (Bloom Filter Labeling) scheme; this package provides:

* :class:`TransitiveClosureIndex` — full materialised transitive closure
  (exact, expensive to build — the scheme GF has to fall back to in Fig. 18);
* :class:`BloomFilterLabeling` — a BFL-style scheme: Bloom filters over the
  ancestor and descendant sets of every SCC give constant-time negative
  cuts, with a pruned DFS resolving the (rare) candidate-positive cases.  It
  labels the graph's :class:`~repro.graph.transform.Condensation` — the one
  a match context already holds, when given;
* :class:`BFSReachability` — index-free BFS fallback used as ground truth.

All indexes share the :class:`ReachabilityIndex` interface and operate on
arbitrary directed graphs.  GM itself asks no per-pair question: it expands
reachability edges set-at-a-time on the condensation
(:class:`repro.simulation.context.MatchContext`).
"""

from repro.reachability.base import ReachabilityIndex, BFSReachability
from repro.reachability.transitive_closure import TransitiveClosureIndex
from repro.reachability.bfl import BloomFilterLabeling
from repro.reachability.factory import build_reachability_index, REACHABILITY_KINDS

__all__ = [
    "ReachabilityIndex",
    "BFSReachability",
    "TransitiveClosureIndex",
    "BloomFilterLabeling",
    "build_reachability_index",
    "REACHABILITY_KINDS",
]
