"""Replica side: tail the primary's delta stream, serve reads locally.

:class:`ReplicaTail` owns one socket to the primary, speaks the
``subscribe_log`` protocol, and folds every shipped
:class:`~repro.dynamic.GraphDelta` through the ordinary store publish
path — so a replica's version chain is, frame for frame, the primary's
version chain, and every write carries the same artifacts (the folded
match context, the RIGs it spares) and drops the same ones (the
comparator engines' artifacts, rebuilt per version on first use) as on
the primary.  The tail's lifecycle::

    connect -> subscribe (bootstrap | tail) -> fold frames -> [lost] -> reconnect

* **bootstrap**: the primary ships a snapshot (its latest checkpoint, or
  a live pinned head) plus the journal tail above it; the tail installs
  the snapshot as a fresh store at the snapshot's exact version and
  folds forward from there.
* **tail**: the replica already holds version ``H`` (a durable replica
  recovers ``H`` from its own write-ahead log) and the primary's journal
  still covers ``H`` — only the frames above ``H`` are shipped.

Frames are folded idempotently (``new_version <= head`` is skipped, so
overlapping catch-up and live frames are harmless), gaps trigger a
resubscribe from the current head, and a fold that does not reproduce
the announced version — impossible while the chain is deterministic —
rebootstraps from a fresh snapshot.  The tail survives primary death:
the socket loop retries with bounded exponential backoff + jitter until
:meth:`close`, while the replica keeps serving reads at its last folded
version.

A replica *server* is ``GraphServer(primary=(host, port))``: it builds
one tail per replicated tenant into its catalog and serves them read-only
over the ordinary wire protocol (match / stream / count / histogram /
explain); writes answer with
:class:`~repro.exceptions.ReadOnlyReplicaError`, and each tenant's
``health`` entry reports replication lag in versions and seconds.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
from typing import Dict, Optional

from repro.api import GraphDB
from repro.dynamic.delta import GraphDelta
from repro.exceptions import (
    ProtocolError,
    ReplicaDivergedError,
    ReplicationError,
)
from repro.graph.digraph import DataGraph
from repro.obs import context as trace_context
from repro.obs.telemetry import Telemetry
from repro.server.protocol import (
    connect,
    decode_error,
    encode_frame,
    encode_request,
    read_frame_sync,
)
from repro.service.service import QueryService, ServiceConfig
from repro.store.versioned import VersionedGraphStore
from repro.wal.durability import (
    WalDurability,
    is_tenant_directory,
    remove_tenant_directory,
)


class _Gap(Exception):
    """A shipped frame's base is ahead of the local head: resubscribe."""


class ReplicaTail:
    """One tenant's replication tail: subscribe, fold, reconnect, report.

    Parameters
    ----------
    host / port:
        The primary :class:`~repro.server.GraphServer`'s address.
    graph:
        The tenant to replicate.
    data_dir:
        Optional durable storage for the replica itself.  The folded
        deltas are journalled through the replica's own write-ahead log,
        so a killed replica recovers its head locally and resubscribes
        in *tail* mode — catching up from its exact pre-crash version
        instead of re-shipping a full snapshot.
    config:
        :class:`~repro.service.ServiceConfig` for the replica's serving
        layer.
    """

    def __init__(
        self,
        host: str,
        port: int,
        graph: str,
        data_dir: Optional[str] = None,
        config: Optional[ServiceConfig] = None,
        checkpoint_every: Optional[int] = None,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        subscribe_timeout: float = 60.0,
        node: Optional[str] = None,
        **open_kwargs,
    ) -> None:
        self.host = host
        self.port = port
        self.graph = graph
        #: This node's name on cross-node trace spans (``replica_apply``).
        self.node = node or f"replica:{graph}"
        self._data_dir = os.fspath(data_dir) if data_dir is not None else None
        self._config = config
        self._checkpoint_every = checkpoint_every
        self._open_kwargs = dict(open_kwargs)
        # One telemetry for every store the tail installs (a bootstrap swaps
        # the store in place): the tenant keeps one set of books.
        self._telemetry = self._open_kwargs.pop("telemetry", None) or Telemetry()
        self._backoff_base = float(backoff_base)
        self._backoff_max = float(backoff_max)
        self._subscribe_timeout = float(subscribe_timeout)

        self.database: Optional[GraphDB] = None
        self._sock: Optional[socket.socket] = None
        self._sub_ident: Optional[int] = None
        self._ids = iter(range(1, 1 << 62))
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._force_bootstrap = False

        # Status, read by the health op / the lag gauges.
        self.mode: Optional[str] = None
        self.connected = False
        self.primary_head = -1
        self.frames_applied = 0
        self.frames_skipped = 0
        self.resubscribes = 0
        self.bootstraps = 0
        self.last_error: Optional[str] = None
        self._last_published_at: Optional[float] = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> GraphDB:
        """Recover/bootstrap the local database, subscribe, start tailing.

        Blocks until the initial subscription succeeded (so the returned
        database exists and is at most one catch-up behind the primary),
        then tails on a daemon thread.  Raises if the primary is
        unreachable *and* no local state exists to serve from.
        """
        if self._thread is not None:
            raise ReplicationError("replica tail already started")
        if self._data_dir is not None and is_tenant_directory(self._data_dir):
            graph, durability, _report = WalDurability.recover(
                self._data_dir,
                name=self.graph,
                checkpoint_every=self._checkpoint_every,
                registry=self._telemetry.registry,
            )
            self.database = GraphDB.open(
                graph,
                config=self._config,
                durability=durability,
                telemetry=self._telemetry,
                **self._open_kwargs,
            )
            self._bind_database()
        try:
            self._connect_and_subscribe()
        except Exception:
            if self.database is None:
                raise  # nothing recovered locally, nothing to serve
            # Recovered state serves (stale) reads; the loop keeps retrying.
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name=f"replica-tail-{self.graph}", daemon=True
        )
        self._thread.start()
        return self.database

    def close(self) -> None:
        """Stop tailing and drop the socket (idempotent; does not close the db)."""
        self._stop.set()
        self._drop_socket()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=10.0)

    # ------------------------------------------------------------------ #
    # status
    # ------------------------------------------------------------------ #

    def head_version(self) -> int:
        return int(self.database.head_version) if self.database is not None else -1

    def lag_versions(self) -> int:
        if self.database is None or self.primary_head < 0:
            return 0
        return max(0, self.primary_head - int(self.database.head_version))

    def lag_seconds(self) -> float:
        if self.lag_versions() == 0:
            return 0.0
        if self._last_published_at is None:
            return 0.0
        return max(0.0, time.time() - self._last_published_at)

    def status(self) -> Dict[str, object]:
        """The structured status a replica's ``health`` reply carries per tenant."""
        return {
            "connected": self.connected,
            "mode": self.mode,
            "primary": [self.host, self.port],
            "head_version": self.head_version(),
            "primary_head": self.primary_head,
            "lag_versions": self.lag_versions(),
            "lag_seconds": self.lag_seconds(),
            "frames_applied": self.frames_applied,
            "frames_skipped": self.frames_skipped,
            "resubscribes": self.resubscribes,
            "bootstraps": self.bootstraps,
            "last_error": self.last_error,
        }

    # ------------------------------------------------------------------ #
    # wiring the local database
    # ------------------------------------------------------------------ #

    def _bind_database(self) -> None:
        database = self.database
        database.read_only = True
        database.replication_status = self.status
        database.replication_tail = self
        database._close_hooks.append(self.close)
        registry = database.telemetry.registry
        registry.gauge(
            "replication_lag_versions",
            "Versions the primary's head is ahead of this replica",
            fn=lambda: float(self.lag_versions()),
        )
        registry.gauge(
            "replication_lag_seconds",
            "Age of the newest folded delta while the replica is behind",
            fn=lambda: float(self.lag_seconds()),
        )
        registry.gauge(
            "replication_connected",
            "1 while the tail is subscribed to the primary",
            fn=lambda: 1.0 if self.connected else 0.0,
        )
        self._m_applied = registry.counter(
            "replication_frames_applied_total",
            "Shipped delta frames folded into the replica's store",
        )
        self._m_skipped = registry.counter(
            "replication_frames_skipped_total",
            "Shipped delta frames skipped as already applied",
        )
        self._m_resubscribes = registry.counter(
            "replication_resubscribes_total",
            "Times the tail resubscribed after a drop, gap or lag",
        )
        self._m_bootstraps = registry.counter(
            "replication_bootstraps_total",
            "Full snapshot bootstraps installed",
        )

    def _install_bootstrap(self, snapshot: Dict[str, object]) -> None:
        """Install a shipped snapshot as the local store at its exact version."""
        graph = DataGraph(
            [str(label) for label in snapshot.get("labels", [])],
            [tuple(edge) for edge in snapshot.get("edges", [])],
            name=str(snapshot.get("name") or self.graph),
            version=int(snapshot.get("version", 0)),
        )
        durability = None
        if self._data_dir is not None:
            if is_tenant_directory(self._data_dir):
                remove_tenant_directory(self._data_dir)
            durability = WalDurability.create(
                self._data_dir,
                graph,
                checkpoint_every=self._checkpoint_every,
                registry=self._telemetry.registry,
            )
        if self.database is None:
            self.database = GraphDB.open(
                graph,
                config=self._config,
                durability=durability,
                telemetry=self._telemetry,
                **self._open_kwargs,
            )
            self._bind_database()
        else:
            # Same facade object, new store: a snapshot too far ahead of
            # the local chain cannot be reached by folding, so the store
            # is swapped in place — catalog entries and caller references
            # stay valid, in-flight reads finish on the old epoch.
            database = self.database
            store = VersionedGraphStore(
                graph, durability=durability, telemetry=self._telemetry, **self._open_kwargs
            )
            service = QueryService(store, config=self._config)
            old_store, old_service = database.store, database.service
            database.store = store
            database.service = service
            for stale in (old_service, old_store):
                try:
                    stale.close()
                except Exception:
                    pass
        self.bootstraps += 1
        self._m_bootstraps.inc()

    # ------------------------------------------------------------------ #
    # the subscribe protocol
    # ------------------------------------------------------------------ #

    def _drop_socket(self) -> None:
        sock, self._sock = self._sock, None
        self.connected = False
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def _disconnect(self, error: Optional[BaseException]) -> None:
        if error is not None:
            self.last_error = str(error)
        self._drop_socket()

    def _connect_and_subscribe(self) -> None:
        from_version = None
        if self.database is not None and not self._force_bootstrap:
            from_version = int(self.database.head_version)
        sock = connect(self.host, self.port, 10.0)
        try:
            sock.settimeout(1.0)
            ident = next(self._ids)
            request = encode_request(
                "subscribe_log", graph=self.graph, from_version=from_version
            )
            request["id"] = ident
            sock.sendall(encode_frame(request))
            result = self._await_response(sock, ident)
        except BaseException:
            try:
                sock.close()
            except OSError:
                pass
            raise
        self.mode = str(result.get("mode"))
        if self.mode == "bootstrap":
            snapshot = result.get("snapshot")
            if not isinstance(snapshot, dict):
                raise ProtocolError("bootstrap reply carries no snapshot")
            self._install_bootstrap(snapshot)
            self._force_bootstrap = False
        self.primary_head = max(self.primary_head, int(result.get("head_version", -1)))
        self._sub_ident = int(result.get("subscription", ident))
        self._sock = sock
        self.connected = True

    def _await_response(self, sock: socket.socket, ident: int) -> Dict[str, object]:
        """Read until the subscribe response; early log frames are dropped.

        Dropping is safe: any frame shipped before we learned the
        subscription id belongs to the catch-up the primary computed
        *after* registering us, and the frames it carries re-arrive
        nowhere — but every one of them has ``new_version`` at or below
        the reply's ``head_version``, which the fold loop re-requests on
        the inevitable gap.  In practice the reply always precedes the
        first shipped frame (the shipper starts after the handler built
        the reply); this is belt-and-braces.
        """
        deadline = time.monotonic() + self._subscribe_timeout
        while True:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"no subscribe_log response within {self._subscribe_timeout}s"
                )
            try:
                frame = read_frame_sync(sock)
            except socket.timeout:
                continue
            if frame is None:
                raise ConnectionError("primary closed during subscribe")
            if frame.get("id") == ident:
                if frame.get("ok"):
                    return frame.get("result") or {}
                raise decode_error(frame.get("error"))

    # ------------------------------------------------------------------ #
    # the fold loop
    # ------------------------------------------------------------------ #

    def _apply_frame(self, frame: Dict[str, object]) -> None:
        new_version = int(frame["new_version"])
        base_version = int(frame["base_version"])
        head = int(self.database.head_version)
        if new_version <= head:
            self.frames_skipped += 1
            self._m_skipped.inc()
            return
        if base_version > head:
            raise _Gap(
                f"frame base v{base_version} is ahead of local head v{head}"
            )
        delta = GraphDelta.from_dict(frame["delta"])
        context = trace_context.TraceContext.from_wire(frame.get("trace"))
        if context is not None:
            # A traced fold: activate the shipped context (parented on the
            # primary's fold span) so this replica's apply — and the
            # nested fold/journal spans its own store opens — lands in the
            # replica's span ring under the same trace id.
            recorder = self.database.telemetry.spans
            with trace_context.activate(context, recorder=recorder, node=self.node):
                with trace_context.trace_span(
                    "replica_apply", version=new_version
                ):
                    report = self.database.store.apply(delta)
        else:
            report = self.database.store.apply(delta)
        if int(report.new_version) != new_version:
            raise ReplicaDivergedError(new_version, int(report.new_version))
        self.frames_applied += 1
        self._m_applied.inc()
        published_at = frame.get("published_at")
        if published_at is not None:
            self._last_published_at = float(published_at)

    def _handle_batch(self, frame: Dict[str, object]) -> None:
        head = frame.get("head")
        if head is not None:
            self.primary_head = max(self.primary_head, int(head))
        for shipped in frame.get("frames") or ():
            self._apply_frame(shipped)

    def _note_resubscribe(self) -> None:
        self.resubscribes += 1
        self._m_resubscribes.inc()

    def _run(self) -> None:
        delay = self._backoff_base
        while not self._stop.is_set():
            if self._sock is None:
                try:
                    self._connect_and_subscribe()
                    self._note_resubscribe()
                    delay = self._backoff_base
                except Exception as exc:
                    self.last_error = str(exc)
                    self._stop.wait(delay + random.uniform(0.0, delay))
                    delay = min(delay * 2.0, self._backoff_max)
                    continue
            try:
                frame = read_frame_sync(self._sock)
            except socket.timeout:
                continue
            except (ProtocolError, ConnectionError, OSError) as exc:
                self._disconnect(exc)
                continue
            if self._stop.is_set():
                break
            if frame is None:
                self._disconnect(ConnectionError("primary closed the log stream"))
                continue
            if frame.get("sub") != self._sub_ident:
                continue  # a stale shipper from a previous subscription
            if frame.get("end"):
                # The subscription lagged out server-side: reconnect and
                # catch up from wherever the folds actually got to.
                self._disconnect(decode_error(frame.get("error")))
                continue
            try:
                self._handle_batch(frame)
            except _Gap as exc:
                self._disconnect(exc)
            except ReplicaDivergedError as exc:
                self._force_bootstrap = True
                self._disconnect(exc)
        self._drop_socket()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicaTail({self.graph!r} <- {self.host}:{self.port}, "
            f"head=v{self.head_version()}, lag={self.lag_versions()})"
        )

