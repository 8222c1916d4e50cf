"""GraphDB: the unified facade over the whole execution stack.

Every capability the library grew — cached-index sessions (PR 1), dynamic
updates (PR 2), the MVCC store and the concurrent query service (PR 3),
pipelined streaming (this layer) — historically had its own entry point:
build a :class:`~repro.graph.digraph.DataGraph`, wrap a
:class:`~repro.session.QuerySession`, wrap *that* in a
:class:`~repro.store.VersionedGraphStore`, put a
:class:`~repro.service.QueryService` in front, and parse query text with
:func:`~repro.query.parse_query` on the side.  :class:`GraphDB` unifies
them behind one object with a database-shaped surface::

    from repro import GraphDB

    with GraphDB.open() as db:                    # empty database
        people = db.ingest(labels=["Person", "Person", "Project"],
                           edges=[(0, 2), (1, 2)])
        report = db.query("node p Person\\nnode j Project\\nedge p -> j")
        for page in db.stream("node p Person\\nnode j Project\\nedge p => j").pages():
            ...
        db.apply(delta)                           # publishes a new version
        db.stats()                                # service + store gauges

``open`` also accepts an existing :class:`DataGraph`, a
:class:`QuerySession` (its warm artifacts seed the first epoch), a
:class:`VersionedGraphStore`, or a path to a graph saved with
:func:`~repro.graph.io.save_graph_json`.  The old entry points all keep
working — the facade only composes them.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.dynamic.delta import GraphDelta
from repro.dynamic.maintenance import ApplyReport
from repro.graph.digraph import DataGraph
from repro.graph.io import load_graph_json, save_graph_json
from repro.matching.result import Budget, MatchReport
from repro.obs.telemetry import Telemetry
from repro.query.parser import parse_query
from repro.query.pattern import PatternQuery
from repro.service.service import QueryService, ServiceConfig, StreamingResult
from repro.session.session import QuerySession
from repro.store.versioned import Reader, StoreSnapshot, VersionedGraphStore

#: Anything :meth:`GraphDB.open` can bootstrap from.
GraphSource = Union[DataGraph, QuerySession, VersionedGraphStore, str, os.PathLike, None]

#: A query, as a parsed pattern or DSL text (``node a L\nedge a -> b`` ...).
QueryLike = Union[PatternQuery, str]


class GraphDB(Reader):
    """One graph database: storage, versioning, serving, streaming.

    Composed of the existing layers — a :class:`VersionedGraphStore` for
    MVCC versioning and a :class:`QueryService` for admission-controlled
    concurrent execution — so everything those layers guarantee (pinned
    snapshots, copy-on-write folds, bounded queues, budget enforcement,
    pipelined streaming) holds here too.

    Construct via :meth:`open` / :meth:`from_edges`; the instance is a
    context manager and must be :meth:`close`\\ d to stop the worker pool.
    """

    #: True on databases that only fold deltas shipped by a replication
    #: primary (see :meth:`open_replica`).  Both the in-process write
    #: methods (:meth:`ingest` / :meth:`apply` / :meth:`apply_async` /
    #: :meth:`checkpoint`) and the server's wire surface reject writes
    #: against a read-only database with
    #: :class:`~repro.exceptions.ReadOnlyReplicaError` — a local fold
    #: would fork the replica's version chain off the primary's.
    read_only = False

    def __init__(
        self,
        store: VersionedGraphStore,
        config: Optional[ServiceConfig] = None,
        owns_store: bool = True,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.store = store
        self.service = QueryService(store, config=config, telemetry=telemetry)
        #: The database's :class:`~repro.obs.Telemetry` context — metrics
        #: registry, slow-query log and span ring — shared by every layer
        #: (store, sessions, WAL, service); the store's unless given.
        self.telemetry = self.service.telemetry
        self._owns_store = owns_store
        #: Callables run (in registration order) at the top of
        #: :meth:`close` — how optional attachments (the replication hub,
        #: a replica tail) tear down with the database.
        self._close_hooks = []

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def open(
        cls,
        source: GraphSource = None,
        config: Optional[ServiceConfig] = None,
        durability=None,
        telemetry: Optional[Telemetry] = None,
        **session_kwargs,
    ) -> "GraphDB":
        """Open a database over ``source``.

        ``source`` may be:

        * ``None`` — an empty database (grow it with :meth:`ingest`);
        * a :class:`DataGraph` — served as version 0;
        * a :class:`QuerySession` — its already-built artifacts seed the
          first epoch (the store freezes and takes ownership of it);
        * a :class:`VersionedGraphStore` — served as-is (not closed with
          the database);
        * a path to a JSON graph file written by
          :func:`~repro.graph.io.save_graph_json` / :meth:`save`.

        ``durability`` attaches a write-ahead hook (see
        :class:`~repro.wal.WalDurability` and :meth:`open_durable`) to the
        store created here: every fold journals before it publishes.

        ``telemetry`` is the database's observability context: by default
        (``None``) the database adopts the one its ``source`` or
        ``durability`` hook already counts into, or gets its own
        :class:`~repro.obs.Telemetry` (metrics registry always on; tracing
        and slow-query logging governed by its knobs).  Pass an explicit
        ``Telemetry(...)`` to share a registry or enable tracing; it must
        count into the registry of any pre-built part (:class:`ValueError`
        otherwise).

        ``session_kwargs`` (``budget``) are forwarded to the underlying
        :class:`QuerySession` when one is created here; ``config`` tunes
        the serving layer.
        """
        owns_store = True
        if isinstance(source, VersionedGraphStore):
            if durability is not None:
                raise TypeError(
                    "durability cannot be attached to an existing "
                    "VersionedGraphStore — pass it when the store is created"
                )
            store = source
            owns_store = False
        else:
            if source is None:
                graph: Union[DataGraph, QuerySession] = DataGraph([], [], name="graphdb")
            elif isinstance(source, (DataGraph, QuerySession)):
                graph = source
            elif isinstance(source, (str, os.PathLike)):
                graph = load_graph_json(os.fspath(source))
            else:
                raise TypeError(
                    "GraphDB.open expects a DataGraph, QuerySession, "
                    f"VersionedGraphStore, path or None — got {type(source).__name__}"
                )
            store = VersionedGraphStore(
                graph,
                durability=durability,
                telemetry=telemetry,
                **session_kwargs,
            )
        return cls(store, config=config, owns_store=owns_store, telemetry=telemetry)

    @classmethod
    def open_durable(
        cls,
        directory: Union[str, os.PathLike],
        config: Optional[ServiceConfig] = None,
        checkpoint_every: Optional[int] = None,
        name: Optional[str] = None,
        labels: Sequence[str] = (),
        edges: Iterable[Tuple[int, int]] = (),
        **open_kwargs,
    ) -> "GraphDB":
        """Open a database whose tenants survive process restarts.

        ``directory`` is the tenant's durable storage (checkpoint + delta
        write-ahead log).  A directory that already holds tenant state is
        **recovered**: the latest checkpoint is loaded and the journal
        tail replayed to the exact head version the log last acknowledged
        (the pass is recorded in :attr:`last_recovery` and in
        ``stats()["durability"]["recovery"]``).  A fresh directory is
        **initialised** with ``labels``/``edges`` (both empty gives an
        empty database) and an initial checkpoint.  Either way, every
        subsequent fold journals before it publishes; ``checkpoint_every``
        bounds log growth by checkpointing automatically after that many
        folds (manual :meth:`checkpoint` is always available).
        """
        from repro.wal.durability import WalDurability, is_tenant_directory

        directory = os.fspath(directory)
        telemetry = open_kwargs.get("telemetry")
        registry = None if telemetry is None else telemetry.registry
        if is_tenant_directory(directory):
            graph, durability, _report = WalDurability.recover(
                directory, name=name, checkpoint_every=checkpoint_every, registry=registry
            )
        else:
            graph = DataGraph(
                list(labels),
                sorted(set(edges)),
                name=name or os.path.basename(directory) or "graphdb",
            )
            durability = WalDurability.create(
                directory, graph, checkpoint_every=checkpoint_every, registry=registry
            )
        return cls.open(graph, config=config, durability=durability, **open_kwargs)

    @classmethod
    def open_replica(
        cls,
        host: str,
        port: int,
        graph: str,
        data_dir: Optional[Union[str, os.PathLike]] = None,
        config: Optional[ServiceConfig] = None,
        checkpoint_every: Optional[int] = None,
        **open_kwargs,
    ) -> "GraphDB":
        """Open a read-only replica of a tenant served by a primary.

        Connects to the :class:`~repro.server.GraphServer` at
        ``host:port``, bootstraps ``graph`` from a shipped snapshot (or,
        with ``data_dir``, recovers the replica's own write-ahead log and
        tails from its exact pre-crash version), then folds every delta
        the primary publishes through the ordinary store publish path on
        a background thread.  The returned database serves the full read
        surface at the replicated version and refuses local writes
        (:attr:`read_only`); its replication state — mode, lag in
        versions and seconds, frames applied — is available as
        ``db.replication_status()`` and through the
        ``replication_*`` metric families in :meth:`metrics`.  Closing
        the database stops the tail.
        """
        from repro.replication.replica import ReplicaTail

        tail = ReplicaTail(
            host,
            int(port),
            graph,
            data_dir=os.fspath(data_dir) if data_dir is not None else None,
            config=config,
            checkpoint_every=checkpoint_every,
            **open_kwargs,
        )
        return tail.start()

    @classmethod
    def from_edges(
        cls,
        labels: Sequence[str],
        edges: Iterable[Tuple[int, int]],
        name: str = "graphdb",
        config: Optional[ServiceConfig] = None,
        **session_kwargs,
    ) -> "GraphDB":
        """Open a database directly over node labels and an edge list."""
        return cls.open(
            DataGraph(list(labels), sorted(set(edges)), name=name),
            config=config,
            **session_kwargs,
        )

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def _require_writable(self) -> None:
        if self.read_only:
            from repro.exceptions import ReadOnlyReplicaError

            raise ReadOnlyReplicaError(
                "this database is a read-only replica; send writes to the"
                " primary (e.g. through a RoutedClient)"
            )

    def ingest(
        self,
        labels: Sequence[str] = (),
        edges: Iterable[Tuple[int, int]] = (),
        remove_edges: Iterable[Tuple[int, int]] = (),
    ) -> ApplyReport:
        """Fold new nodes and edges into a new published version.

        ``labels`` appends one node per label; the new nodes receive the
        next dense ids (``db.num_nodes`` before the call, onward), so
        ``edges`` may reference both existing and just-added ids.  Under
        the hood this is one :class:`~repro.dynamic.GraphDelta` folded
        through the store's copy-on-write writer — pinned readers are
        never disturbed.  Returns the fold's
        :class:`~repro.dynamic.ApplyReport`.
        """
        self._require_writable()
        delta = GraphDelta.for_graph(self.store.graph)
        for label in labels:
            delta.add_node(label)
        for source, target in edges:
            delta.add_edge(source, target)
        for source, target in remove_edges:
            delta.remove_edge(source, target)
        return self.store.apply(delta)

    def apply(self, delta: GraphDelta) -> ApplyReport:
        """Fold a prepared delta synchronously (see :meth:`VersionedGraphStore.apply`)."""
        self._require_writable()
        return self.store.apply(delta)

    def apply_async(self, delta: GraphDelta):
        """Queue a delta on the store's background writer; returns a future."""
        self._require_writable()
        return self.store.apply_async(delta)

    def delta(self) -> GraphDelta:
        """A fresh :class:`GraphDelta` written against the current head."""
        return GraphDelta.for_graph(self.store.graph)

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    @staticmethod
    def _as_query(query: QueryLike, name: Optional[str] = None) -> PatternQuery:
        if isinstance(query, PatternQuery):
            return query
        return parse_query(query, name=name or "query")

    def _read(
        self,
        verb: str,
        query: QueryLike,
        name: Optional[str] = None,
        engine: Optional[str] = None,
        budget: Optional[Budget] = None,
        **options,
    ):
        """``count`` / ``histogram`` / ``explain``: in the calling thread,
        on a pin of the head, with the tenant's default engine and budget."""
        query = self._as_query(query, name)
        engine, budget = self.service.defaults(engine, budget)
        with self.store.pin() as snapshot:
            return getattr(snapshot, verb)(query, engine=engine, budget=budget, **options)

    def query(
        self,
        query: QueryLike,
        engine: Optional[str] = None,
        budget: Optional[Budget] = None,
        deadline_seconds: Optional[float] = None,
        timeout: Optional[float] = None,
        name: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> MatchReport:
        """Evaluate one query (DSL text or :class:`PatternQuery`) to completion.

        Admission-controlled and version-pinned: the query runs on a
        worker against a pinned snapshot of the head.  ``trace_id`` traces
        the query: its root ``query`` span and one child span per stage land
        in the span ring (:meth:`trace_spans`), and the tree — the root's
        span document plus ``spans`` — in ``report.extra["trace"]``.
        """
        return self.service.submit(
            self._as_query(query, name),
            engine=engine,
            budget=budget,
            deadline_seconds=deadline_seconds,
            trace_id=trace_id,
        ).result(timeout)

    def stream(
        self,
        query: QueryLike,
        engine: Optional[str] = None,
        budget: Optional[Budget] = None,
        page_size: int = 256,
        deadline_seconds: Optional[float] = None,
        keep_occurrences: bool = True,
        name: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> StreamingResult:
        """Evaluate incrementally on a service worker: pages flow before the
        query finishes."""
        return self.service.stream(
            self._as_query(query, name),
            engine=engine,
            budget=budget,
            page_size=page_size,
            deadline_seconds=deadline_seconds,
            keep_occurrences=keep_occurrences,
            trace_id=trace_id,
        )

    def pin(self, version: Optional[int] = None) -> StoreSnapshot:
        """Pin a version (head by default) for repeated consistent reads.

        The snapshot reads on its epoch's session, with the session's
        defaults (engine ``GM``, the session's budget), not the
        :class:`ServiceConfig` ones; pass ``engine`` / ``budget`` to match.
        """
        return self.store.pin(version)

    # ------------------------------------------------------------------ #
    # introspection / persistence
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> DataGraph:
        """The head version's immutable data graph."""
        return self.store.graph

    @property
    def num_nodes(self) -> int:
        """Node count of the head version."""
        return self.store.graph.num_nodes

    @property
    def head_version(self) -> int:
        """The latest published graph version."""
        return self.store.head_version

    @property
    def durability(self):
        """The store's write-ahead hook (``None`` for in-memory databases)."""
        return self.store.durability

    @property
    def last_recovery(self):
        """The :class:`~repro.wal.RecoveryReport` that opened this database, if any."""
        durability = self.store.durability
        return getattr(durability, "last_recovery", None)

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot the head version durably and truncate the delta log.

        Requires a durable database (see :meth:`open_durable`); returns
        the checkpoint summary (path, version, log entries dropped).
        """
        self._require_writable()
        return self.store.checkpoint()

    def stats(self) -> Dict[str, object]:
        """Service counters merged with the store's version-chain gauges.

        Durable databases additionally carry a ``durability`` section:
        journal appends/bytes/seconds, checkpoints, the log backlog since
        the last checkpoint, and the recovery report when this instance
        was opened from existing storage.  Every count is a read of the
        tenant's registry, so it equals its :meth:`metrics` family.
        """
        stats = self.service.stats_snapshot()
        durability = self.store.durability
        if durability is not None:
            stats["durability"] = durability.counters()
        return stats

    def metrics(self, format: str = "json"):
        """The telemetry registry's metric families, snapshotted.

        ``format="json"`` returns the structured snapshot
        (:meth:`~repro.obs.MetricsRegistry.snapshot`); ``"prometheus"``
        returns the text exposition format ready for a scrape endpoint.
        Raises :class:`ValueError` on other formats.
        """
        if format == "json":
            return self.telemetry.registry.snapshot()
        if format == "prometheus":
            return self.telemetry.registry.to_prometheus()
        raise ValueError(f"unknown metrics format {format!r} (json | prometheus)")

    def slow_queries(self, limit: Optional[int] = None):
        """Recent slow-query log entries, oldest first (empty if the log is off)."""
        return self.telemetry.slow_log.recent(limit)

    def trace_spans(
        self, trace_id: Optional[str] = None, limit: Optional[int] = None
    ):
        """Finished distributed-trace spans from this tenant's span ring.

        With ``trace_id``: every retained span of that trace (this node's
        contribution to the cross-node tree —
        :func:`repro.obs.assemble_trace` stitches contributions from
        several nodes).  Without: the most recent spans, oldest first.
        """
        if trace_id is not None:
            return self.telemetry.spans.for_trace(trace_id)
        return self.telemetry.spans.recent(limit)

    def save(self, path: str) -> str:
        """Persist the head version as one JSON document (see :meth:`open`)."""
        return save_graph_json(self.store.graph, path)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Stop the service workers (and an owned store's writer)."""
        hooks, self._close_hooks = list(self._close_hooks), []
        for hook in hooks:
            try:
                hook()
            except Exception:  # a hook must not block database shutdown
                pass
        self.service.close()
        if not self._owns_store:
            return
        # The service closes a store it created itself; here the store was
        # created by (and belongs to) the facade.
        self.store.close()

    def __enter__(self) -> "GraphDB":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphDB(head=v{self.store.head_version}, "
            f"nodes={self.store.graph.num_nodes}, "
            f"workers={self.service.config.workers})"
        )
