"""MVCC versioned graph store: immutable epochs, pinning, a writer queue.

The store keeps an **immutable version chain**: one :class:`VersionRecord`
per published graph version, each owning the frozen :class:`DataGraph`
snapshot of that version plus its per-version artifact cache (a frozen
:class:`~repro.session.QuerySession` — the match context, the comparator
engines' closure, catalog and partitions, and the RIGs of exactly that
epoch).

Concurrency contract
--------------------
* **Readers pin, never lock.**  :meth:`VersionedGraphStore.pin` increments
  a refcount on the current head under a tiny chain mutex and hands back a
  :class:`StoreSnapshot`; every read the snapshot serves — queries, counts,
  streams — sees that one version forever, no matter how many writes
  publish behind it.
* **Writers fold, then publish.**  :meth:`VersionedGraphStore.apply` forks
  the head's session (:meth:`QuerySession.fork`: it shares the built
  artifacts and copies none), folds the :class:`~repro.dynamic.GraphDelta`
  into the fork (the match context is folded into a new one that shares
  what the delta did not touch; the comparator artifacts are dropped and
  rebuild from the new graph on first use), and publishes the fork as the
  new head with one pointer swap under the chain mutex.  Readers pinned to
  older epochs never observe a torn artifact because no artifact they can
  reach is ever mutated.
* **Writers are serialised, readers are not.**  A writer mutex orders
  concurrent ``apply`` calls; the fold itself runs outside the chain
  mutex, so pinning (and reading) proceeds during even a slow fold.
* **Unpinned epochs are garbage-collected.**  When the head advances or a
  pin is released, every non-head record with zero pins is retired: its
  artifact caches are dropped and the record leaves the chain
  (``store_gc_retired_total`` counts them).
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from typing import Dict, List, Optional, Tuple, Union

from repro.dynamic.delta import GraphDelta
from repro.dynamic.maintenance import ApplyReport
from repro.exceptions import StoreError
from repro.graph.digraph import DataGraph
from repro.matching.result import MatchReport
from repro.obs.context import trace_span
from repro.obs.telemetry import Telemetry, require_one_registry
from repro.session.session import QuerySession


class VersionRecord:
    """One epoch of the version chain: a frozen graph + its artifact cache."""

    __slots__ = ("version", "graph", "session", "pins", "retired")

    def __init__(self, version: int, graph, session: QuerySession) -> None:
        self.version = version
        self.graph = graph
        self.session = session
        self.pins = 0
        self.retired = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VersionRecord(version={self.version}, pins={self.pins}, "
            f"retired={self.retired})"
        )


class Reader:
    """The five read verbs, declared once over one abstract :meth:`_read`.

    Every layer that forwards reads — a pinned :class:`StoreSnapshot`, the
    :class:`~repro.api.GraphDB` facade, the wire
    :class:`~repro.client.GraphClient` and its server-side pins, the replica
    router — is a ``Reader`` and writes only ``_read(verb, *args,
    **options)``; a layer overrides a verb only where it does different
    work.  :class:`~repro.session.QuerySession` implements all five itself:
    it is where evaluation happens.

    Each verb takes one query (DSL text is accepted from the facade up)
    plus keyword options; many queries at one version are a pin plus one
    read per query.  Which options a
    layer takes is the layer's own (``docs/architecture.md``, "The reader
    surface"); one it does not take raises :class:`TypeError` before
    anything runs or any frame is sent.
    """

    __slots__ = ()

    def query(self, query, **options) -> MatchReport:
        """Evaluate one query to completion: a :class:`MatchReport` carrying
        every occurrence (up to the budget's match cap)."""
        return self._read("query", query=query, **options)

    def count(self, query, **options) -> int:
        """Number of occurrences of ``query``.

        A counting drain over the streaming iterator: no occurrence list is
        materialised, and a budget-capped run returns the count so far.
        """
        return self._read("count", query=query, **options)

    def histogram(self, query, **options) -> Dict[str, int]:
        """Per-label count of the distinct data nodes in the result set.

        A streamed aggregation drain: how many distinct data nodes of each
        label participate in at least one occurrence (bindings of query node
        ``node`` only, when given), without materialising the occurrences.
        """
        return self._read("histogram", query=query, **options)

    def explain(self, query, **options):
        """EXPLAIN (or, with ``analyze=True``, EXPLAIN ANALYZE) ``query``.

        Returns a :class:`~repro.explain.QueryPlan`: ``analyze=False`` plans
        without executing (ordering strategy, vertex order, per-step
        estimates, the cached artifacts consulted); ``analyze=True``
        executes under the budget with per-operator counters, and the root's
        actual row count equals what :meth:`query` reports.
        """
        return self._read("explain", query=query, **options)

    def stream(self, query, **options):
        """Evaluate incrementally: occurrences flow before the query finishes.

        Every occurrence describes one graph version; the stream holds that
        version until it is drained or closed.
        """
        return self._read("stream", query=query, **options)

    def _read(self, verb: str, *args, **options):
        """Answer one read verb: the one method a reader layer writes."""
        raise NotImplementedError


class StoreSnapshot(Reader):
    """A pinned, immutable read view of one store epoch.

    Obtained from :meth:`VersionedGraphStore.pin`; usable as a context
    manager so the pin is always released::

        with store.pin() as snap:
            report = snap.query(query)

    Every read goes through the epoch's frozen session, so repeated queries
    enjoy the same artifact reuse a plain :class:`QuerySession` gives —
    just guaranteed against one version.  After :meth:`release`, reads
    raise :class:`~repro.exceptions.StoreError`.
    """

    __slots__ = ("_store", "_record", "_released", "_release_lock")

    def __init__(self, store: "VersionedGraphStore", record: VersionRecord) -> None:
        self._store = store
        self._record = record
        self._released = False
        self._release_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # pinned state
    # ------------------------------------------------------------------ #

    def _require_pinned(self) -> VersionRecord:
        if self._released:
            raise StoreError("snapshot was already released")
        return self._record

    @property
    def version(self) -> int:
        """The pinned graph version."""
        return self._require_pinned().version

    @property
    def graph(self):
        """The pinned immutable data graph."""
        return self._require_pinned().graph

    @property
    def session(self) -> QuerySession:
        """The pinned epoch's frozen artifact cache / query executor."""
        return self._require_pinned().session

    @property
    def released(self) -> bool:
        """True once the pin has been given back."""
        return self._released

    def _read(self, verb: str, *args, **options):
        """Every read runs on the pinned epoch's session (its signatures are
        the options a snapshot takes)."""
        return getattr(self._require_pinned().session, verb)(*args, **options)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def release(self) -> None:
        """Give the pin back (idempotent).  Unpinned old epochs may be GCed.

        Safe under concurrent release attempts (e.g. a worker finishing a
        caller-pinned ticket racing the caller's own cleanup): exactly one
        of them decrements the record's pin count.
        """
        with self._release_lock:
            if self._released:
                return
            self._released = True
        self._store._release(self._record)

    def __enter__(self) -> "StoreSnapshot":
        self._require_pinned()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "released" if self._released else "pinned"
        return f"StoreSnapshot(version={self._record.version}, {state})"


class VersionedGraphStore:
    """Concurrent MVCC store over one evolving data graph.

    Parameters
    ----------
    graph:
        The initial :class:`DataGraph`, or an existing
        :class:`~repro.session.QuerySession` whose artifacts seed the first
        epoch.  Either way the store takes ownership: the epoch session is
        frozen, so in-place ``apply`` on it raises and all writes flow
        through the store.
    durability:
        Optional write-ahead hook (e.g.
        :class:`~repro.wal.WalDurability`).  When set, every effective
        delta is journaled — durably, via the hook's ``journal`` — *before*
        its epoch is published or its caller acknowledged, on both the
        synchronous :meth:`apply` path and the :meth:`apply_async`
        writer-queue path; a journal failure aborts the fold with the head
        unchanged.  The store drives the hook's auto-checkpoint policy
        (``should_checkpoint`` → ``checkpoint`` right after a publish) and
        closes it with the store.
    telemetry:
        The tenant's :class:`~repro.obs.Telemetry`: the store and every
        epoch session count into its registry (``store_*`` and
        ``session_cache_*`` families).  By default the store adopts the
        registry of a session or durability hook it is given, or owns a
        private one; parts counting into different registries raise
        :class:`ValueError`.
    session_kwargs:
        Forwarded to :class:`QuerySession` when ``graph`` is a plain data
        graph (``budget``).
    """

    def __init__(
        self,
        graph: Union[DataGraph, QuerySession],
        durability=None,
        telemetry: Optional[Telemetry] = None,
        **session_kwargs,
    ) -> None:
        if isinstance(graph, QuerySession):
            session = graph
        else:
            if telemetry is None and durability is not None:
                telemetry = Telemetry(registry=durability.registry)
            session = QuerySession(graph, telemetry=telemetry, **session_kwargs)
        #: The tenant's telemetry, shared with every epoch session.
        self.telemetry = session.telemetry
        registry = self.telemetry.registry
        require_one_registry(registry, telemetry, durability)
        session.freeze()
        record = VersionRecord(session.version, session.graph, session)
        self._chain_lock = threading.Lock()
        self._writer_lock = threading.Lock()
        self._records: "OrderedDict[int, VersionRecord]" = OrderedDict(
            [(record.version, record)]
        )
        self._head = record
        self._closed = False
        self.durability = durability
        # The longest the chain has been: state, so not a registry counter.
        self._peak_versions = 1
        # Lazily started background writer (apply_async).
        self._write_queue: Optional[queue_module.Queue] = None
        self._writer_thread: Optional[threading.Thread] = None
        # Publish listeners (replication log shipping): called under the
        # writer lock, right after the head swap, in registration order.
        self._publish_listeners: List = []
        self._m_applies = registry.counter(
            "store_applies_total", "Delta folds published as new epochs"
        )
        self._m_noop = registry.counter(
            "store_noop_applies_total", "Delta folds that changed nothing"
        )
        self._m_gc = registry.counter(
            "store_gc_retired_total", "Unpinned epochs retired by the garbage collector"
        )
        self._m_apply_seconds = registry.histogram(
            "store_apply_seconds", "Fold duration (delta absorb + publish)"
        )
        self._m_pins = registry.counter(
            "store_pins_total", "Snapshot pins taken against the version chain"
        )
        # Version-chain gauges are snapshot-time callbacks: zero hot-path cost.
        registry.gauge(
            "store_head_version", "Latest published graph version",
            fn=lambda: self.head_version,
        )
        registry.gauge(
            "store_versions_retained", "Epochs currently in the chain",
            fn=lambda: self.num_versions_retained,
        )
        registry.gauge(
            "store_pinned_epochs", "Epochs with at least one live pin",
            fn=lambda: self.pinned_epoch_count,
        )
        registry.gauge(
            "store_live_pins", "Total live pins across retained epochs",
            fn=lambda: self.total_pin_count,
        )

    def add_publish_listener(self, listener) -> None:
        """Register ``listener(delta, old_version, new_version, published_at)``.

        Called for every *effective* fold (no-ops publish nothing), after
        the new head is visible to readers but still under the writer lock
        — so listeners observe publishes in exactly version order, which is
        what lets the replication hub ship a gapless delta stream without
        re-reading the journal.  Listeners must be fast and must not apply
        deltas to this store (deadlock: the writer lock is held).  A
        listener that raises is dropped from subsequent publishes by the
        caller's own error handling, not here — exceptions are swallowed so
        a broken subscriber can never poison the write path.
        """
        with self._chain_lock:
            self._publish_listeners.append(listener)

    def remove_publish_listener(self, listener) -> None:
        """Deregister a publish listener (missing listeners are ignored)."""
        with self._chain_lock:
            try:
                self._publish_listeners.remove(listener)
            except ValueError:
                pass

    # ------------------------------------------------------------------ #
    # read side: pinning
    # ------------------------------------------------------------------ #

    def pin(self, version: Optional[int] = None) -> StoreSnapshot:
        """Pin an epoch (the head by default) and return its snapshot.

        Pinning a specific retained ``version`` is allowed while that
        version is still in the chain (pinned by someone, or the head);
        asking for a retired version raises :class:`StoreError`.
        """
        with self._chain_lock:
            if self._closed:
                raise StoreError("store is closed")
            if version is None:
                record = self._head
            else:
                record = self._records.get(version)
                if record is None:
                    raise StoreError(
                        f"version {version} is not retained "
                        f"(chain holds {sorted(self._records)})"
                    )
            record.pins += 1
            snapshot = StoreSnapshot(self, record)
        self._m_pins.inc()
        return snapshot

    def _release(self, record: VersionRecord) -> None:
        with self._chain_lock:
            record.pins -= 1
            self._gc_locked()

    def _gc_locked(self) -> None:
        """Retire every non-head, unpinned record (chain lock held)."""
        retired: List[VersionRecord] = []
        for version in list(self._records):
            record = self._records[version]
            if record is self._head or record.pins > 0:
                continue
            del self._records[version]
            record.retired = True
            retired.append(record)
        if retired:
            self._m_gc.inc(len(retired))
        # Drop the artifact caches outside the record dict; the sessions
        # are frozen but clear() only drops caches, which is the point.
        for record in retired:
            record.session.clear()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def head_version(self) -> int:
        """The latest published graph version."""
        with self._chain_lock:
            return self._head.version

    @property
    def graph(self):
        """The head epoch's immutable graph."""
        with self._chain_lock:
            return self._head.graph

    @property
    def num_versions_retained(self) -> int:
        """Number of epochs currently in the chain (head + pinned)."""
        with self._chain_lock:
            return len(self._records)

    @property
    def pinned_epoch_count(self) -> int:
        """Number of epochs with at least one live pin."""
        with self._chain_lock:
            return sum(1 for record in self._records.values() if record.pins > 0)

    @property
    def total_pin_count(self) -> int:
        """Total live pins across every retained epoch.

        The gauge a catalog consults before dropping a tenant: a non-zero
        count means snapshots (and the reads / streams going through
        them) are still outstanding.
        """
        with self._chain_lock:
            return sum(record.pins for record in self._records.values())

    def retained_versions(self) -> Tuple[int, ...]:
        """The versions currently in the chain, oldest first."""
        with self._chain_lock:
            return tuple(self._records)

    def counters(self) -> Dict[str, object]:
        """The store's write / GC counts, read from its ``store_*`` families,
        plus the peak chain length (the ``store`` section of ``stats()``)."""
        read = self.telemetry.registry.read
        return {
            "applies": int(read("store_applies_total")),
            "noop_applies": int(read("store_noop_applies_total")),
            "apply_seconds": round(read("store_apply_seconds"), 6),
            "gc_count": int(read("store_gc_retired_total")),
            "peak_versions": self._peak_versions,
        }

    # ------------------------------------------------------------------ #
    # write side: fold + publish
    # ------------------------------------------------------------------ #

    def apply(self, delta: GraphDelta) -> ApplyReport:
        """Fold a delta into a new epoch and publish it as the head.

        The head session is forked (sharing its artifacts, copying none),
        the fork absorbs the delta through :meth:`QuerySession.apply`, and
        the fork becomes the new head in one atomic pointer swap.  Readers pinned
        before the swap keep their version; readers pinning after it see
        the new one.  A delta that turns out to be a no-op publishes
        nothing.
        """
        return self._apply(delta)

    def _apply(self, delta: GraphDelta, from_writer: bool = False) -> ApplyReport:
        """The fold itself.  ``from_writer`` lets the background writer
        drain deltas that were admitted before :meth:`close` flipped
        ``_closed`` — the close contract is that every already-queued
        delta still folds ahead of the shutdown sentinel."""
        with self._writer_lock:
            if self._closed and not from_writer:
                raise StoreError("store is closed")
            head = self._head  # only writers move the head; lock held
            # A traced write (the server activated the client's context on
            # this thread) records the fold as a span tree: ``fold`` with
            # ``journal`` and ``publish`` children, and the publish
            # listeners — the replication hub among them — run while the
            # fold span is the active context, so shipped delta frames
            # carry it and every replica's apply links back to this fold.
            with trace_span("fold") as fold_span:
                fork = head.session.fork()
                report = fork.apply(delta)
                if report.new_version == report.old_version:
                    self._m_noop.inc()
                    return report
                if fold_span is not None:
                    fold_span.meta.update(
                        base_version=int(report.old_version),
                        new_version=int(report.new_version),
                        num_ops=len(delta),
                    )
                # Write-ahead: the delta reaches stable storage before the new
                # epoch becomes reachable.  A journal failure propagates — the
                # fork is discarded, the head is untouched, the caller is never
                # acknowledged for a version that could not survive a crash.
                if self.durability is not None:
                    with trace_span("journal"):
                        self.durability.journal(
                            delta, report.old_version, report.new_version
                        )
                with trace_span("publish"):
                    fork.freeze()
                    record = VersionRecord(fork.version, fork.graph, fork)
                    with self._chain_lock:
                        self._records[record.version] = record
                        self._head = record
                        self._gc_locked()
                        self._peak_versions = max(self._peak_versions, len(self._records))
                        listeners = list(self._publish_listeners)
                self._m_applies.inc()
                self._m_apply_seconds.observe(report.seconds)
                if listeners:
                    published_at = time.time()
                    for listener in listeners:
                        try:
                            listener(
                                delta, report.old_version, report.new_version, published_at
                            )
                        except Exception:  # a subscriber must never poison the write path
                            pass
                # Auto-checkpoint (still under the writer lock, so the head is
                # stable).  Failure is non-fatal: the journal still covers every
                # published version, so durability holds — only the replay tail
                # stays longer than the policy wanted.  The hook counts it.
                if self.durability is not None and self.durability.should_checkpoint():
                    try:
                        self.durability.checkpoint(record.graph)
                    except (StoreError, OSError):
                        pass
                return report

    # ------------------------------------------------------------------ #
    # write side: background writer queue
    # ------------------------------------------------------------------ #

    def _ensure_writer(self) -> None:
        with self._chain_lock:
            if self._closed:
                raise StoreError("store is closed")
            if self._writer_thread is None:
                self._write_queue = queue_module.Queue()
                self._writer_thread = threading.Thread(
                    target=self._writer_loop, name="graph-store-writer", daemon=True
                )
                self._writer_thread.start()

    def _writer_loop(self) -> None:
        queue = self._write_queue
        while True:
            item = queue.get()
            try:
                if item is None:
                    return
                delta, future = item
                try:
                    future.set_result(self._apply(delta, from_writer=True))
                except BaseException as exc:  # propagate through the future
                    future.set_exception(exc)
            finally:
                queue.task_done()

    def apply_async(self, delta: GraphDelta) -> "Future[ApplyReport]":
        """Queue a delta for the background writer; returns a future.

        Deltas are folded strictly in submission order (one writer thread);
        the future resolves to the :class:`ApplyReport` once that delta's
        epoch is published.  This is the streaming-feed entry point: a
        producer enqueues edits and readers keep serving pinned snapshots
        while the writer folds.
        """
        self._ensure_writer()
        future: "Future[ApplyReport]" = Future()
        # Enqueue under the chain lock so a racing close() cannot slot its
        # shutdown sentinel ahead of this item (which would strand the
        # future unresolved and deadlock drain()).
        with self._chain_lock:
            if self._closed:
                raise StoreError("store is closed")
            self._write_queue.put((delta, future))
        return future

    def drain(self) -> None:
        """Block until every queued async delta has been folded."""
        if self._write_queue is not None:
            self._write_queue.join()

    # ------------------------------------------------------------------ #
    # durability
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot the head version through the durability hook.

        Taken under the writer lock, so the checkpoint always captures a
        fully-published head (readers are unaffected — they pin, they
        don't lock).  After it returns, the delta log is truncated: a
        recovery from this directory loads the checkpoint and replays
        only deltas journaled afterwards.
        """
        if self.durability is None:
            raise StoreError(
                "store has no durability hook (construct with durability=...)"
            )
        with self._writer_lock:
            if self._closed:
                raise StoreError("store is closed")
            return self.durability.checkpoint(self._head.graph)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Stop the background writer and refuse new pins/applies.

        The shutdown sentinel is enqueued under the chain lock — the same
        lock :meth:`apply_async` enqueues under — so every item admitted
        before the close is queued ahead of the sentinel and still folds.
        """
        thread = None
        with self._chain_lock:
            if self._closed:
                return
            self._closed = True
            thread = self._writer_thread
            if thread is not None:
                self._write_queue.put(None)
        if thread is not None:
            thread.join(timeout=30.0)
        if self.durability is not None:
            self.durability.close()

    def __enter__(self) -> "VersionedGraphStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VersionedGraphStore(head=v{self._head.version}, "
            f"versions={len(self._records)}, "
            f"pinned={self.pinned_epoch_count})"
        )
