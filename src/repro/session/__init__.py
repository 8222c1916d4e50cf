"""Cached-index batch query execution: the :class:`QuerySession` façade.

Why a session?
--------------
The paper's central argument is economic: a Runtime-Index-Graph matcher wins
because the expensive per-*graph* artifacts — the SCC condensation GM's
reachability checks run on, the transitive closure and the inverted label
lists — are built once
and amortised over many queries, while per-*query* work (simulation, RIG,
enumeration) stays small.  The standalone entry points
(:class:`repro.GraphMatcher`, the ``repro.engines`` classes) rebuild those
artifacts on every construction; a :class:`QuerySession` owns them instead.

Cache lifecycle
---------------
* A session follows **one evolving data graph**: it starts bound to the
  graph it was constructed with, and graph updates flow in through
  :meth:`QuerySession.apply` as batched
  :class:`~repro.dynamic.GraphDelta` edits.  Each ``apply`` bumps the
  graph's monotone version.  The match context folds forward with the
  delta (a removal drops it); the comparator artifacts (closure, expanded
  graph, GF catalog, EH partitions) are dropped and rebuild from the new
  version's graph on first use.  RIG caches are keyed by version:
  ``apply`` moves each RIG the delta cannot have changed to the new
  version and leaves the rest behind; matcher instances are always
  rebuilt.
* Every artifact is built **lazily on first use**: the reachability index
  on the first query, the transitive closure and the closure-expanded
  graph only when a comparator engine meets its first descendant query,
  the GF catalog / EH partitions when those engines are first requested,
  and one RIG per distinct (GM variant, query, graph version).
* Builds, reuses and update outcomes are counted per artifact in the
  ``session_cache_*`` families of the session's telemetry registry
  (misses = builds, hits = reuses, patches = artifacts carried to the
  next version, invalidations = drops) and read back with ``session.cache_counts()``,
  so "the second identical query rebuilds nothing" and "a small insert
  delta rebuilds nothing expensive" are assertable properties, not hopes.
  The counts are per tenant: a bare session owns its registry, the
  epochs of a store share the tenant's.
* ``session.clear()`` drops every cached artifact; the counts, like every
  registry counter, only go up (assert on deltas).

One session = one epoch
-----------------------
Under concurrency a session is exactly **one epoch** of a
:class:`~repro.store.VersionedGraphStore`: the store keeps one (frozen)
session per published graph version and never mutates any of them.  Two
methods implement that contract: :meth:`QuerySession.fork` produces a
clone that shares every built artifact with the original and copies none
(nothing changes an artifact in place, so the clone's ``apply`` — the
store's write path — cannot alter the original's answers), and :meth:`QuerySession.freeze` makes
in-place :meth:`~QuerySession.apply` raise so updates cannot bypass the
store.  A standalone (unfrozen) session still supports in-place ``apply``
for single-owner use.

When to prefer ``run_batch``
----------------------------
Use :meth:`QuerySession.query` for one-off, latency-sensitive calls.  Use
:meth:`QuerySession.run_batch` whenever you have a *workload*: it warms the
matcher once, optionally fans the queries out over a thread pool
(``workers=N``) while enforcing per-query :class:`~repro.matching.result.Budget`
limits, and returns a :class:`BatchReport` with latency percentiles,
solved/match counts, throughput and the cache-counter deltas for the batch —
the numbers a serving system actually monitors.

>>> session = QuerySession(graph)
>>> report = session.run_batch(queries, engine="GM", workers=4)
>>> report.p50, report.throughput_qps, report.cache_hits
>>> session.apply(delta)             # graph update: patch, don't rebuild
>>> session.run_batch(queries)       # served against the new version
"""

from repro.dynamic.maintenance import ApplyReport
from repro.session.batch import BatchReport, QueryOutcome, percentile
from repro.session.session import QuerySession

__all__ = [
    "ApplyReport",
    "BatchReport",
    "QueryOutcome",
    "QuerySession",
    "percentile",
]
