"""Simplified in-Python stand-ins for the query engines the paper compares to.

The paper benchmarks GM against four external systems — EmptyHeaded (EH),
GraphflowDB (GF), RapidMatch (RM) and Neo4j — none of which can be bundled
here.  Each engine below reproduces the *algorithmic idea* that drives the
corresponding system's behaviour in the paper's experiments:

* :class:`BinaryJoinEngine` (Neo4j-like): per-edge scans combined with
  Selinger-style binary joins, no worst-case-optimal joins, no reachability
  index (descendant edges require an explicit transitive-closure expansion);
* :class:`RelationalEngine` (EmptyHeaded-like): materialises every edge
  relation up front (the expensive "precomputation step"), then hash-joins;
* :class:`WCOJEngine` (GraphflowDB-like): builds a catalog of subgraph
  cardinalities per label pattern (expensive precomputation, grows with the
  label alphabet) and then runs node-at-a-time worst-case-optimal joins
  directly on the data graph;
* :class:`TreeDecompEngine` (RapidMatch-like): spanning-tree candidate
  filtering followed by WCO-style enumeration with a density-driven order.

All four only support edge-to-edge semantics natively, mirroring the
original systems, so each query edge reads the graph its type names
(:meth:`Engine._relation`): a child edge the data graph, a descendant edge
the transitive-closure-expanded graph (see :func:`expand_descendant_edges`;
the experimental setup of Fig. 18).  A hybrid query therefore gets its own
answer, the one GM and brute force give.  GF and RM share one
node-at-a-time extension routine (:meth:`Engine._wco_extend`).

Execution is incremental-first: every engine implements a lazy
``_iter_evaluate`` generator, :meth:`Engine.iter_matches` is the public
streaming primitive (GF and RM yield each embedding as the innermost
extension completes; EH and Neo4j stream their projection tails over
materialised join pipelines), and ``match()`` / ``count()`` / ``explain()``
are the drivers every :class:`~repro.matching.stream.Evaluator` inherits.
"""

from repro.engines.base import Engine, expand_descendant_edges
from repro.engines.binary_join import BinaryJoinEngine
from repro.engines.relational import RelationalEngine
from repro.engines.wcoj import WCOJEngine, Catalog
from repro.engines.treedecomp import TreeDecompEngine

__all__ = [
    "Engine",
    "expand_descendant_edges",
    "BinaryJoinEngine",
    "RelationalEngine",
    "WCOJEngine",
    "Catalog",
    "TreeDecompEngine",
]
