"""Versioned graph store: MVCC snapshots over one evolving data graph.

The dynamic subsystem makes *update-then-query* cheap for a
single-threaded owner: :meth:`QuerySession.apply` moves the session itself
to the next graph version.  Concurrent readers cannot share a session that
moves under them, though — a long-running batch must answer from one
version throughout.  This package serves them with multi-version
concurrency control:

* :class:`VersionedGraphStore` — an immutable **version chain**.  Each
  epoch owns a frozen :class:`~repro.graph.digraph.DataGraph` snapshot and
  its per-version artifact cache (a frozen
  :class:`~repro.session.QuerySession`).  Writers fork the head (the
  fork shares its artifacts and copies none), fold a
  :class:`~repro.dynamic.GraphDelta` into it with
  :meth:`QuerySession.apply`, and publish with one pointer swap;
  an optional background writer queue (:meth:`~VersionedGraphStore.apply_async`)
  folds a streamed feed in submission order.
* :class:`StoreSnapshot` — an epoch **pin** with refcounted release.  A
  batch pins the version it starts on and is guaranteed bit-identical
  answers for that version no matter how many writes land meanwhile;
  releasing the last pin lets the store garbage-collect the epoch and its
  cached indexes.
* :meth:`VersionedGraphStore.counters` — applies, no-ops, GC count (read
  from the tenant's ``store_*`` metric families) and the peak chain length.

Readers never block writers and writers never block readers: pinning takes
a tiny chain mutex, folding happens outside it.

>>> store = VersionedGraphStore(graph)
>>> with store.pin() as snap:          # epoch pinned
...     snap.run_batch(queries)        # consistent at snap.version
>>> store.apply(delta)                 # publishes a new head meanwhile
"""

from repro.store.versioned import (
    Reader,
    StoreSnapshot,
    VersionedGraphStore,
    VersionRecord,
)

__all__ = [
    "Reader",
    "StoreSnapshot",
    "VersionRecord",
    "VersionedGraphStore",
]
