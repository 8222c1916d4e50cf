"""GraphCatalog: the multi-tenant registry of named graph databases.

One wire server fronts many tenants.  Each catalog entry is a fully
independent :class:`~repro.api.GraphDB` — its own
:class:`~repro.store.VersionedGraphStore` (version chain, writer queue) and
:class:`~repro.service.QueryService` (worker pool, admission queue) — so
one tenant's overload sheds *that tenant's* requests without touching the
others, and a dropped tenant releases every resource it owned.

The catalog is the server's dispatch table, but it is useful standalone:
an embedding process can host several independent graphs behind one object
and the wire server simply puts that object on the network.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterable, Optional, Sequence, Tuple
from urllib.parse import quote, unquote

from repro.api import GraphDB, GraphSource
from repro.exceptions import CatalogError, UnknownGraphError
from repro.graph.digraph import DataGraph
from repro.graph.io import load_graph_json
from repro.service.service import ServiceConfig
from repro.session.session import QuerySession
from repro.store.versioned import VersionedGraphStore
from repro.wal.durability import (
    WalDurability,
    is_tenant_directory,
    remove_tenant_directory,
)


class GraphCatalog:
    """A named, thread-safe registry of independent :class:`GraphDB` tenants.

    Parameters
    ----------
    config:
        Default :class:`ServiceConfig` for databases the catalog creates
        (per-tenant overrides via :meth:`create`'s ``config``).
    data_dir:
        When set, the catalog is **durable**: every tenant created through
        it gets its own write-ahead-log directory under ``data_dir``
        (the tenant name, percent-encoded), each fold journals before it
        publishes, and :meth:`open` on the same ``data_dir`` recovers
        every tenant to its exact pre-crash head version.
    checkpoint_every:
        Auto-checkpoint policy for durable tenants (see
        :class:`~repro.wal.WalDurability`); ``None`` leaves checkpointing
        to explicit ``checkpoint()`` calls.

    Databases *created* through the catalog are owned by it (dropped or
    closed with it); databases *attached* keep their original owner.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        data_dir: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        self._config = config
        self._data_dir = None if data_dir is None else os.fspath(data_dir)
        self._checkpoint_every = checkpoint_every
        self._lock = threading.Lock()
        self._databases: Dict[str, GraphDB] = {}
        self._owned: Dict[str, bool] = {}
        self._storage: Dict[str, str] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # durable open / recovery
    # ------------------------------------------------------------------ #

    @classmethod
    def open(
        cls,
        data_dir: str,
        config: Optional[ServiceConfig] = None,
        checkpoint_every: Optional[int] = None,
        **session_kwargs,
    ) -> "GraphCatalog":
        """Open a durable catalog, recovering every tenant under ``data_dir``.

        Each subdirectory holding tenant state (a checkpoint or a delta
        log) is recovered — checkpoint loaded, journal tail replayed,
        version-checked — and registered under its decoded name, owned by
        the catalog.  New tenants created afterwards are durable in the
        same directory.  This is what a restarted
        :class:`~repro.server.GraphServer` calls: the catalog it gets back
        serves every tenant at the exact head version the write-ahead log
        last acknowledged.
        """
        catalog = cls(
            config=config, data_dir=data_dir, checkpoint_every=checkpoint_every
        )
        os.makedirs(catalog._data_dir, exist_ok=True)
        for entry in sorted(os.listdir(catalog._data_dir)):
            directory = os.path.join(catalog._data_dir, entry)
            if not os.path.isdir(directory) or not is_tenant_directory(directory):
                continue
            name = unquote(entry)
            database = GraphDB.open_durable(
                directory,
                config=config,
                checkpoint_every=checkpoint_every,
                name=name,
                **session_kwargs,
            )
            with catalog._lock:
                catalog._databases[name] = database
                catalog._owned[name] = True
                catalog._storage[name] = directory
        return catalog

    @property
    def data_dir(self) -> Optional[str]:
        """The durable storage root (``None`` for in-memory catalogs)."""
        return self._data_dir

    def _tenant_directory(self, name: str) -> str:
        return os.path.join(self._data_dir, quote(name, safe=""))

    # ------------------------------------------------------------------ #
    # tenant lifecycle
    # ------------------------------------------------------------------ #

    @staticmethod
    def _check_name(name) -> str:
        if not isinstance(name, str) or not name:
            raise CatalogError(f"graph name must be a non-empty string, got {name!r}")
        return name

    def create(
        self,
        name: str,
        source: GraphSource = None,
        labels: Sequence[str] = (),
        edges: Iterable[Tuple[int, int]] = (),
        config: Optional[ServiceConfig] = None,
        exist_ok: bool = False,
        **session_kwargs,
    ) -> GraphDB:
        """Create (and own) a new named database.

        ``source`` accepts everything :meth:`GraphDB.open` does; with no
        source, ``labels``/``edges`` seed the initial graph (both empty
        gives an empty database to :meth:`GraphDB.ingest` into).  A name
        collision raises :class:`~repro.exceptions.CatalogError` unless
        ``exist_ok`` — then the existing database is returned unchanged.

        In a durable catalog (``data_dir`` set) the new tenant gets its
        own write-ahead-log directory seeded with an initial checkpoint
        of the starting graph, so even a tenant that crashes before its
        first delta recovers.
        """
        self._check_name(name)
        with self._lock:
            if self._closed:
                raise CatalogError("catalog is closed")
            existing = self._databases.get(name)
            if existing is not None:
                if exist_ok:
                    return existing
                raise CatalogError(f"graph {name!r} already exists")
            if self._data_dir is not None:
                database = self._create_durable(
                    name, source, labels, edges, config, **session_kwargs
                )
            elif source is None and (labels or edges):
                database = GraphDB.from_edges(
                    labels, edges, name=name, config=config or self._config,
                    **session_kwargs,
                )
            else:
                database = GraphDB.open(
                    source, config=config or self._config, **session_kwargs
                )
            self._databases[name] = database
            self._owned[name] = True
            return database

    def _create_durable(
        self,
        name: str,
        source: GraphSource,
        labels: Sequence[str],
        edges: Iterable[Tuple[int, int]],
        config: Optional[ServiceConfig],
        **session_kwargs,
    ) -> GraphDB:
        """Provision WAL storage for a new tenant and open it (lock held)."""
        if isinstance(source, VersionedGraphStore):
            raise CatalogError(
                "a durable catalog cannot adopt an existing VersionedGraphStore "
                f"for {name!r} — attach() it instead (its owner keeps durability)"
            )
        directory = self._tenant_directory(name)
        if is_tenant_directory(directory):
            raise CatalogError(
                f"durable storage for {name!r} already exists at {directory}; "
                "recover it with GraphCatalog.open(data_dir)"
            )
        if source is None:
            opened: GraphSource = DataGraph(
                list(labels), sorted(set(edges)), name=name
            )
            initial = opened
        elif isinstance(source, (str, os.PathLike)):
            opened = load_graph_json(os.fspath(source), name=name)
            initial = opened
        elif isinstance(source, QuerySession):
            opened = source
            initial = source.graph
        elif isinstance(source, DataGraph):
            opened = source
            initial = source
        else:
            raise CatalogError(
                f"cannot create durable tenant {name!r} from {type(source).__name__}"
            )
        # The WAL counts into the registry of the tenant it will join.
        telemetry = (
            source.telemetry
            if isinstance(source, QuerySession)
            else session_kwargs.get("telemetry")
        )
        durability = WalDurability.create(
            directory,
            initial,
            checkpoint_every=self._checkpoint_every,
            registry=None if telemetry is None else telemetry.registry,
        )
        try:
            database = GraphDB.open(
                opened,
                config=config or self._config,
                durability=durability,
                **session_kwargs,
            )
        except BaseException:
            durability.close()
            remove_tenant_directory(directory)
            raise
        self._storage[name] = directory
        return database

    def attach(self, name: str, database: GraphDB, owned: bool = False) -> GraphDB:
        """Register an existing database under ``name``.

        With ``owned=False`` (default) the caller keeps lifecycle control:
        dropping or closing the catalog deregisters the database without
        closing it.
        """
        self._check_name(name)
        with self._lock:
            if self._closed:
                raise CatalogError("catalog is closed")
            if name in self._databases:
                raise CatalogError(f"graph {name!r} already exists")
            self._databases[name] = database
            self._owned[name] = owned
            return database

    def drop(
        self, name: str, force: bool = False, delete_storage: bool = False
    ) -> None:
        """Remove a tenant; an owned database is closed (workers stopped).

        A tenant with live pinned snapshots — a client-held pin, a batch
        mid-flight, a server stream still paging — is **refused**
        (:class:`~repro.exceptions.CatalogError` naming the pin count):
        closing its store under those readers would yank every pinned
        epoch out from under them.  Pass ``force=True`` to drop anyway
        (outstanding snapshots then fail with
        :class:`~repro.exceptions.StoreError` on their next read).

        ``delete_storage=True`` also removes a durable tenant's
        write-ahead-log directory, so a restart does not resurrect it;
        by default the files survive for a later
        :meth:`GraphCatalog.open`.
        """
        with self._lock:
            database = self._databases.get(name)
            if database is None:
                raise UnknownGraphError(name, self._databases)
            owned = self._owned.get(name, False)
            if owned and not force:
                pins = getattr(database.store, "total_pin_count", 0)
                if pins:
                    raise CatalogError(
                        f"graph {name!r} has {pins} live pinned snapshot(s) "
                        "(release them, or drop with force=True)"
                    )
            self._databases.pop(name, None)
            self._owned.pop(name, None)
            storage = self._storage.pop(name, None)
        if owned:
            database.close()
        if delete_storage and storage is not None:
            remove_tenant_directory(storage)

    def get(self, name: str) -> GraphDB:
        """The database registered under ``name`` (:class:`UnknownGraphError` if absent)."""
        with self._lock:
            database = self._databases.get(self._check_name(name))
            if database is None:
                raise UnknownGraphError(name, self._databases)
            return database

    def names(self) -> Tuple[str, ...]:
        """The registered graph names, sorted."""
        with self._lock:
            return tuple(sorted(self._databases))

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._databases

    def __len__(self) -> int:
        with self._lock:
            return len(self._databases)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drop every tenant; owned databases are closed (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            databases = [
                (database, self._owned.get(name, False))
                for name, database in self._databases.items()
            ]
            self._databases.clear()
            self._owned.clear()
            self._storage.clear()
        for database, owned in databases:
            if owned:
                database.close()

    def __enter__(self) -> "GraphCatalog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphCatalog(graphs={list(self.names())})"
