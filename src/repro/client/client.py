"""GraphClient: the synchronous wire client mirroring the GraphDB facade.

A :class:`GraphClient` speaks the frame protocol of
:mod:`repro.server.protocol` over one blocking socket and exposes the same
method surface as :class:`~repro.api.GraphDB` — ``ingest`` / ``apply`` /
``apply_async`` / ``query`` / ``stream`` / ``count`` / ``histogram`` /
``explain`` / ``pin`` / ``stats`` / ``save`` — plus the catalog's tenant
lifecycle (``create_graph`` / ``drop_graph`` / ``graphs``).  Existing
facade callers switch transports without code changes::

    with GraphClient(host, port, graph="social") as db:
        report = db.query("node a Person\\nnode b Person\\nedge a => b")
        for page in db.stream(query).pages():
            ...

Results come back as the same domain objects the facade returns —
:class:`~repro.matching.result.MatchReport`,
:class:`~repro.dynamic.ApplyReport`, :class:`~repro.explain.QueryPlan` —
and server-side errors
re-raise as the same exception classes (a shed request raises
:class:`~repro.exceptions.ServiceOverloadedError` with its ``reason``, a
missing tenant raises :class:`~repro.exceptions.UnknownGraphError`, a
stale injected index raises :class:`~repro.exceptions.StaleIndexError`).

Streaming stays pipelined end-to-end: :meth:`GraphClient.stream` returns a
lazy :class:`RemoteStream` whose pages arrive as the server's worker
produces them, under credit-based flow control — the client grants one
credit per consumed page, so an unread stream never buffers more than its
window.  Closing (or abandoning) the stream sends a cancel frame; the
server cancels the producing worker and releases its snapshot pin.

The client is intentionally single-threaded: one in-flight request at a
time, with stream frames demultiplexed off the socket whenever they
interleave with a response.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
import weakref
from collections import deque
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.dynamic.delta import GraphDelta
from repro.dynamic.maintenance import ApplyReport
from repro.exceptions import ProtocolError, StoreError, UnknownGraphError
from repro.matching.result import MatchReport
from repro.matching.stream import decode_page
from repro.obs.context import TraceContext
from repro.obs.metrics import MetricsRegistry
from repro.query.pattern import PatternQuery
from repro.server.protocol import (
    APPLY_REPORT,
    OPS,
    connect,
    decode_error,
    encode_frame,
    encode_request,
    read_frame_sync,
)
from repro.service.service import PagedResult
from repro.store.versioned import Reader

#: A query, as a parsed pattern or DSL text (mirrors ``repro.api.QueryLike``).
QueryLike = Union[PatternQuery, str]

class RemoteApplyHandle:
    """Handle for a delta queued on the server's background writer.

    The remote analogue of the future :meth:`GraphDB.apply_async` returns:
    :meth:`result` blocks until the server's writer folded the delta and
    returns its :class:`~repro.dynamic.ApplyReport`.
    """

    def __init__(self, client: "GraphClient", graph: str, token: str) -> None:
        self._client = client
        self._graph = graph
        self.token = token
        self._report: Optional[ApplyReport] = None

    def result(self, timeout: Optional[float] = None) -> ApplyReport:
        """Block until the fold published (or failed); returns its report."""
        if self._report is None:
            payload = self._client._request(
                "apply_wait", graph=self._graph, token=self.token, timeout=timeout
            )
            self._report = APPLY_REPORT.decode(payload)
        return self._report


class RemoteSnapshot(Reader):
    """A server-side pin: repeated reads against one immutable version.

    The remote analogue of :class:`~repro.store.StoreSnapshot`: every read
    issued through it answers from the pinned version even while writers
    publish new heads — it is the client's read with ``pin=`` set, so it
    takes the client's options.  Release it (or use it as a context
    manager) — the server also releases any pins a dropped connection left
    behind.
    """

    def __init__(self, client: "GraphClient", graph: str, token: str, version: int) -> None:
        self._client = client
        self._graph = graph
        self.token = token
        self._version = version
        self._released = False

    @property
    def version(self) -> int:
        """The pinned graph version."""
        return self._version

    def _read(self, verb: str, **options):
        return getattr(self._client, verb)(graph=self._graph, pin=self.token, **options)

    def release(self) -> None:
        """Give the server-side pin back (idempotent)."""
        if self._released:
            return
        self._released = True
        try:
            self._client._request("release", pin=self.token)
        except (ConnectionError, OSError):
            pass  # connection gone: the server released the pin at teardown

    def __enter__(self) -> "RemoteSnapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "released" if self._released else "pinned"
        return f"RemoteSnapshot({self._graph!r} v{self._version}, {state})"


class RemoteStream(PagedResult):
    """Pipelined, credit-gated iteration over one remote query's occurrences.

    The wire analogue of :class:`~repro.service.StreamingResult`: pages
    arrive as the server's worker produces them (the first one typically
    long before the query completes), and the client's consumption rate
    bounds the producer through credits — one granted per consumed page,
    within the window the server's tenant sets (``stream_buffer_pages``,
    reported as the ``stream_open`` reply's ``window``).  The server holds the snapshot pin for
    the stream's lifetime; :meth:`close` (or abandoning the iterator, or
    dropping the connection) cancels the producing worker and releases it.

    :meth:`report` drains the remaining pages and returns the finalised
    :class:`MatchReport` — counters and terminal status only (streamed
    occurrences travel in the pages, not in the report).
    """

    def __init__(
        self,
        client: "GraphClient",
        graph: str,
        stream_id: int,
        version: int,
        page_size: int,
    ) -> None:
        self._client = client
        self._graph = graph
        self.stream_id = stream_id
        self._version = version
        self.page_size = page_size
        self._frames: deque = deque()
        self._ended = False
        self._error: Optional[Exception] = None
        self._report: Optional[MatchReport] = None
        self._closed = False

    @property
    def version(self) -> int:
        """The pinned graph version the stream's occurrences describe."""
        return self._version

    # ------------------------------------------------------------------ #
    # frame plumbing (called by the owning client)
    # ------------------------------------------------------------------ #

    def _enqueue(self, frame: Dict[str, object]) -> None:
        self._frames.append(frame)

    def _next_page(self, timeout: Optional[float]):
        """The next page, or ``None`` at end of stream (raising its error)."""
        while True:
            if self._frames:
                frame = self._frames.popleft()
            elif self._ended or self._closed:
                frame = None
            else:
                frame = self._client._read_stream_frame(self.stream_id, timeout)
            if frame is None:
                if self._error is not None:
                    error, self._error = self._error, None
                    raise error
                return None
            if frame.get("end"):
                self._ended = True
                error_payload = frame.get("error")
                if error_payload is not None:
                    self._error = decode_error(error_payload)
                else:
                    self._report = MatchReport.from_wire(frame.get("report") or {})
                self._client._forget_stream(self.stream_id)
                continue
            self._client._grant_credit(self.stream_id, 1)
            return decode_page(frame.get("page") or ())

    # ------------------------------------------------------------------ #
    # consumption
    # ------------------------------------------------------------------ #

    def report(self, timeout: Optional[float] = None) -> MatchReport:
        """Drain to completion and return the finalised (count-only) report."""
        for _ in self.pages(timeout):
            pass
        if self._report is None:
            raise StoreError("stream ended without a final report")
        return self._report

    def close(self) -> None:
        """Cancel a live remote producer and drop local buffers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._client._forget_stream(self.stream_id)
        if not self._ended:
            self._client._cancel_stream(self.stream_id)
        self._frames.clear()

    def __del__(self) -> None:  # pragma: no cover - gc safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("ended" if self._ended else "open")
        return f"RemoteStream(#{self.stream_id} {self._graph!r} v{self._version}, {state})"


class GraphClient(Reader):
    """Synchronous client for a :class:`~repro.server.GraphServer`.

    Parameters
    ----------
    host / port:
        The server's bind address (``GraphServer.address``).
    graph:
        Default tenant name for every operation (individual calls may
        override with ``graph=...``); create one first with
        :meth:`create_graph` if the server's catalog is empty.
    timeout:
        Default per-response wait in seconds (:class:`TimeoutError` past
        it); per-call ``timeout`` arguments override.
    reconnect:
        When True (default), a connection dropped under an **idempotent
        read** (``query`` / ``count`` / ``explain`` / ``histogram`` /
        ``graphs`` / ``stats`` / ...) is transparently
        re-established — up to ``max_retries`` times, with bounded
        exponential backoff plus jitter — and the request resent.
        Writes (``ingest`` / ``apply`` / ...) are **never** retried: a
        socket that died mid-write leaves the fold in doubt, and the
        caller must decide.  Response *timeouts* are never retried
        either (the server is still working; resending would double the
        load).  Reconnects are counted in the ``client_reconnects_total``
        metric on :attr:`registry`.
    registry:
        The :class:`~repro.obs.MetricsRegistry` client-side metrics land
        in; by default the client creates its own (read it with
        ``client.registry.snapshot()``).
    """

    def __init__(
        self,
        host: str,
        port: int,
        graph: Optional[str] = None,
        timeout: Optional[float] = 60.0,
        connect_timeout: float = 10.0,
        reconnect: bool = True,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_max: float = 1.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._host = host
        self._port = int(port)
        self._connect_timeout = connect_timeout
        self._sock = connect(host, port, connect_timeout)
        self._sock.settimeout(timeout)
        self._timeout = timeout
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._graph = graph
        self._reconnect_enabled = bool(reconnect)
        self._max_retries = max(0, int(max_retries))
        self._backoff_base = float(backoff_base)
        self._backoff_max = float(backoff_max)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_reconnects = self.registry.counter(
            "client_reconnects_total",
            "Connections transparently re-established under idempotent reads",
        )
        self.reconnects = 0
        # Weak refs: a stream the caller abandons must become garbage, so
        # its __del__ can cancel the remote producer (a strong registry
        # reference would pin it — and the server-side query — forever).
        self._streams: Dict[int, "weakref.ref[RemoteStream]"] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # wire plumbing
    # ------------------------------------------------------------------ #

    def _send(self, frame: Dict[str, object]) -> None:
        if self._closed:
            raise StoreError("client is closed")
        self._sock.sendall(encode_frame(frame))

    def _read_frame(self, timeout: Optional[float]) -> Optional[Dict[str, object]]:
        self._sock.settimeout(timeout if timeout is not None else self._timeout)
        try:
            return read_frame_sync(self._sock)
        except socket.timeout:
            raise TimeoutError(
                f"no frame from the server within {timeout or self._timeout}s"
            ) from None

    def _reopen(self) -> None:
        """Replace the dead socket with a fresh connection.

        Connection-scoped state does not survive: open streams are
        forgotten (their server side tore down with the old connection),
        and any pin / apply tokens the caller still holds will answer
        with their mapped server errors.
        """
        try:
            self._sock.close()
        except OSError:
            pass
        self._streams.clear()
        self._sock = connect(self._host, self._port, self._connect_timeout)
        self._sock.settimeout(self._timeout)
        self.reconnects += 1
        self._m_reconnects.inc()

    def _can_retry(self, op: str, frame: Dict[str, object]) -> bool:
        # Only reads with no server-side connection state resend: a
        # connection that died mid-write may or may not have folded the
        # delta, a stream's pages are connection-scoped, and pin tokens
        # died with the socket — a retried read naming one would fail
        # loudly rather than silently read a different version.
        return (
            self._reconnect_enabled
            and not self._closed
            and OPS[op].idempotent
            and frame.get("pin") is None
        )

    def _request(
        self,
        op: str,
        timeout: Optional[float] = None,
        wait_timeout: Optional[float] = None,
        **args,
    ) -> Dict[str, object]:
        """One request/response round trip (stream frames are demultiplexed).

        ``timeout`` travels in the frame, so the *server* bounds its
        blocking wait (ticket/future result) and answers with a mapped
        :class:`TimeoutError` — otherwise a timed-out client would leave
        an executor thread blocked server-side.  The client's own socket
        wait gets a grace period on top so that error frame can arrive.

        A connection lost under an idempotent read reconnects (bounded
        exponential backoff + jitter) and resends; see the class notes.
        """
        with self._lock:
            if timeout is not None:
                args["timeout"] = timeout
            frame = encode_request(op, **args)
            wait = None
            if timeout is not None:
                wait = timeout + 10.0
            if wait_timeout is not None:
                # Probe mode: bound the *socket* wait itself.  A frozen
                # process (SIGSTOP) keeps its TCP socket open but answers
                # nothing — health probes must fail in probe time, not in
                # request-timeout-plus-grace time.
                wait = wait_timeout
            last_error: Optional[BaseException] = None
            for attempt in range(self._max_retries + 1):
                if attempt:
                    delay = min(
                        self._backoff_base * (2 ** (attempt - 1)), self._backoff_max
                    )
                    time.sleep(delay + random.uniform(0.0, delay))
                    try:
                        self._reopen()
                    except OSError as exc:
                        last_error = exc
                        continue  # server still down; next attempt backs off more
                frame["id"] = next(self._ids)
                try:
                    self._send(frame)
                    return self._wait_response(frame["id"], wait)
                except TimeoutError:
                    # The server is (presumably) still working on it;
                    # resending would double the load, not halve the wait.
                    raise
                except (ConnectionError, OSError) as exc:
                    if not self._can_retry(op, frame):
                        raise
                    last_error = exc
            raise last_error

    def _wait_response(self, ident: int, timeout: Optional[float]) -> Dict[str, object]:
        while True:
            frame = self._read_frame(timeout)
            if frame is None:
                raise ConnectionError("server closed the connection")
            if "stream" in frame:
                self._route_stream_frame(frame)
                continue
            response_id = frame.get("id")
            if response_id == ident:
                if frame.get("ok"):
                    return frame.get("result")
                raise decode_error(frame.get("error"))
            if isinstance(response_id, int) and response_id < ident:
                # Stale reply to a request whose wait timed out earlier.
                continue
            raise ProtocolError(f"out-of-order response: {frame!r}")

    def _read_stream_frame(
        self, stream_id: int, timeout: Optional[float]
    ) -> Optional[Dict[str, object]]:
        """Blocking read of the next frame belonging to ``stream_id``."""
        with self._lock:
            while True:
                frame = self._read_frame(timeout)
                if frame is None:
                    raise ConnectionError("server closed the connection mid-stream")
                if frame.get("stream") == stream_id:
                    return frame
                if "stream" in frame:
                    self._route_stream_frame(frame)
                    continue
                if isinstance(frame.get("id"), int):
                    # Stale reply to a request whose wait timed out earlier;
                    # no request is in flight while paging (single-threaded
                    # client), so it is safe to drop.
                    continue
                raise ProtocolError(
                    f"unexpected frame while paging stream {stream_id}: {frame!r}"
                )

    def _route_stream_frame(self, frame: Dict[str, object]) -> None:
        reference = self._streams.get(frame.get("stream"))
        stream = reference() if reference is not None else None
        if stream is not None:
            stream._enqueue(frame)
        # Frames for unknown/closed streams are dropped: the server may
        # have pumped a few pages before observing our cancel.

    def _grant_credit(self, stream_id: int, credits: int) -> None:
        try:
            self._send({"op": "credit", "stream": stream_id, "n": credits})
        except (ConnectionError, OSError):
            pass

    def _cancel_stream(self, stream_id: int) -> None:
        try:
            self._send({"op": "stream_cancel", "stream": stream_id})
        except (ConnectionError, OSError, StoreError):
            pass  # connection gone: server-side teardown already cleaned up

    def _forget_stream(self, stream_id: int) -> None:
        self._streams.pop(stream_id, None)

    def _graph_name(self, graph: Optional[str]) -> str:
        name = graph or self._graph
        if not name:
            raise StoreError(
                "no graph selected: pass graph=..., or create/use one first"
            )
        return name

    # ------------------------------------------------------------------ #
    # catalog (tenant lifecycle)
    # ------------------------------------------------------------------ #

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return bool(self._request("ping").get("pong"))

    def create_graph(
        self,
        name: str,
        labels: Sequence[str] = (),
        edges: Iterable[Tuple[int, int]] = (),
        exist_ok: bool = False,
        switch: bool = True,
    ) -> Dict[str, object]:
        """Create a named tenant server-side; ``switch`` selects it as default."""
        info = self._request(
            "create_graph",
            name=name,
            labels=labels,
            edges=edges,
            exist_ok=exist_ok,
        )
        if switch:
            self._graph = name
        return info

    def drop_graph(
        self, name: str, force: bool = False, delete_storage: bool = False
    ) -> None:
        """Drop a tenant (its store and service are closed server-side).

        The server refuses while the tenant has live pinned snapshots
        (:class:`~repro.exceptions.CatalogError`) unless ``force``;
        ``delete_storage`` also removes a durable tenant's write-ahead-log
        directory so a server restart does not resurrect it.
        """
        self._request(
            "drop_graph", name=name, force=force, delete_storage=delete_storage
        )
        if self._graph == name:
            self._graph = None

    def graphs(self) -> Tuple[Dict[str, object], ...]:
        """Info for every tenant in the server's catalog."""
        return tuple(self._request("graphs").get("graphs", ()))

    def use(self, graph: str) -> "GraphClient":
        """Select the default tenant for subsequent operations."""
        self._graph = graph
        return self

    def info(self, graph: Optional[str] = None) -> Dict[str, object]:
        """Head version / node / edge counts of one tenant: its entry of
        :meth:`graphs` (:class:`~repro.exceptions.UnknownGraphError` when
        the catalog has no such tenant)."""
        name = self._graph_name(graph)
        infos = self.graphs()
        for info in infos:
            if info["name"] == name:
                return info
        raise UnknownGraphError(name, [info["name"] for info in infos])

    @property
    def graph_name(self) -> Optional[str]:
        """The currently selected tenant name."""
        return self._graph

    @property
    def head_version(self) -> int:
        """The selected tenant's latest published version."""
        return int(self.info()["head_version"])

    @property
    def num_nodes(self) -> int:
        """Node count of the selected tenant's head version."""
        return int(self.info()["num_nodes"])

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def ingest(
        self,
        labels: Sequence[str] = (),
        edges: Iterable[Tuple[int, int]] = (),
        remove_edges: Iterable[Tuple[int, int]] = (),
        graph: Optional[str] = None,
        trace: Optional[Union[str, TraceContext]] = None,
    ) -> ApplyReport:
        """Fold nodes/edges into a new version (see :meth:`GraphDB.ingest`).

        ``trace`` (a :class:`~repro.obs.TraceContext` or plain trace id)
        makes the fold a traced write: the server parents its
        ingest/fold/journal/publish spans under the caller's span, and the
        replication frames ship the context so every replica's apply lands
        in the same trace.
        """
        payload = self._request(
            "ingest",
            graph=self._graph_name(graph),
            labels=labels,
            edges=edges,
            remove_edges=remove_edges,
            trace=trace,
        )
        return APPLY_REPORT.decode(payload)

    def delta(self, graph: Optional[str] = None) -> GraphDelta:
        """A fresh delta written against the tenant's current head."""
        return GraphDelta(int(self.info(graph)["num_nodes"]))

    def apply(
        self,
        delta: GraphDelta,
        graph: Optional[str] = None,
        trace: Optional[Union[str, TraceContext]] = None,
    ) -> ApplyReport:
        """Fold a prepared delta synchronously (``trace`` as in :meth:`ingest`)."""
        payload = self._request(
            "apply",
            graph=self._graph_name(graph),
            delta=delta,
            trace=trace,
        )
        return APPLY_REPORT.decode(payload)

    def apply_async(self, delta: GraphDelta, graph: Optional[str] = None) -> RemoteApplyHandle:
        """Queue a delta on the server's background writer; returns a handle."""
        name = self._graph_name(graph)
        payload = self._request("apply_async", graph=name, delta=delta)
        return RemoteApplyHandle(self, name, payload["token"])

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def _read(self, verb: str, graph: Optional[str] = None, **fields):
        """One read op on the tenant (``graph`` or the selected one): its
        answer decoded by the reply codec its :data:`OPS` row declares.

        The options are the op's declared fields (``pin``, and ``timeout``
        where the op takes one); any other raises :class:`TypeError`
        before a frame is sent.
        """
        payload = self._request(verb, graph=self._graph_name(graph), **fields)
        return OPS[verb].reply.decode(payload)

    def query(self, query: QueryLike, *, trace_id: Optional[str] = None, **options) -> MatchReport:
        """Evaluate one query to completion (see :meth:`GraphDB.query`).

        ``trace_id`` (any short string, e.g.
        :func:`repro.obs.new_trace_id`, or a :class:`~repro.obs.TraceContext`)
        traces the query server-side: its root ``query`` span and one child
        per stage — queue wait, pin, plan, enumeration, wire encoding — land
        in the tenant's span ring (:meth:`trace`) and come back in
        ``report.extra["trace"]``, and the same id rides on the error
        payload if the request fails instead.  An unsampled context only
        tags the error payload and the slow-log entry.
        """
        return self._read("query", query=query, trace=trace_id, **options)

    def stream(
        self,
        query: QueryLike,
        *,
        page_size: int = 256,
        graph: Optional[str] = None,
        trace_id: Optional[str] = None,
        **options,
    ) -> RemoteStream:
        """Open a pipelined stream: pages flow before the query finishes.

        With ``trace_id`` (as in :meth:`query`) the stream's terminal
        report carries the span tree in ``extra["trace"]``, including the
        server's accumulated ``wire_encode`` time across all page frames
        and the ``stream_flush`` remainder.
        """
        graph_name = self._graph_name(graph)
        payload = self._request(
            "stream_open",
            graph=graph_name,
            query=query,
            **options,
            page_size=page_size,
            trace=trace_id,
        )
        stream = RemoteStream(
            self,
            graph_name,
            int(payload["stream"]),
            int(payload.get("version", -1)),
            int(payload.get("page_size", page_size)),
        )
        self._streams[stream.stream_id] = weakref.ref(stream)
        return stream

    def pin(self, version: Optional[int] = None, graph: Optional[str] = None) -> RemoteSnapshot:
        """Pin a version server-side for repeated consistent reads."""
        name = self._graph_name(graph)
        payload = self._request("pin", graph=name, version=version)
        return RemoteSnapshot(self, name, payload["pin"], int(payload["version"]))

    def stats(self, graph: Optional[str] = None) -> Dict[str, object]:
        """Service counters merged with store gauges for one tenant.

        Durable tenants carry a ``durability`` section (journal appends,
        checkpoints, log backlog, last recovery) — see
        :meth:`GraphDB.stats`.
        """
        return self._request("stats", graph=self._graph_name(graph))

    def server_metrics(
        self, graph: Optional[str] = None, format: str = "json"
    ):
        """The tenant's metric families, snapshotted server-side.

        ``format="json"`` returns the structured
        :meth:`~repro.obs.MetricsRegistry.snapshot` document — every
        ``session_cache_*`` / ``store_*`` / ``service_*`` / ``server_*`` /
        ``wal_*`` / ``engine_*`` family with labelled values;
        ``format="prometheus"`` returns the text exposition format.
        """
        payload = self._request(
            "metrics", graph=self._graph_name(graph), format=format
        )
        if payload.get("format") == "prometheus":
            return str(payload.get("text", ""))
        return dict(payload.get("metrics", {}))

    def health(self, timeout: Optional[float] = None) -> Dict[str, object]:
        """The node's health summary (graph-less, cheap, probe-friendly).

        Returns ``{"status", "node", "role", "uptime_seconds", "tenants"}``
        where each tenant entry carries its head version, WAL state, a
        ``ready`` / ``degraded`` / ``unhealthy`` classification (see
        :mod:`repro.obs.health`) and, on a replica, ``replication``: its
        tail's status (connection, mode, ``head_version``,
        ``lag_versions`` / ``lag_seconds``, frame counters).  ``timeout`` bounds
        the *socket* wait: a node that cannot answer within it raises
        :class:`TimeoutError`, which routers treat as ``unreachable``.
        """
        return self._request("health", wait_timeout=timeout)

    def events(
        self,
        limit: Optional[int] = None,
        kinds: Optional[Sequence[str]] = None,
        after_seq: Optional[int] = None,
    ) -> Dict[str, object]:
        """Recent server lifecycle events, oldest first.

        Returns ``{"events": [...], "last_seq": n}``; pass ``after_seq``
        (the previous reply's ``last_seq``) to page incrementally — the
        ring's monotonic sequence numbers survive overflow, so a consumer
        polling with ``after_seq`` never re-reads an event.
        """
        return self._request(
            "events",
            limit=limit,
            kinds=kinds,
            after_seq=after_seq,
        )

    def trace(
        self,
        trace_id: Optional[str] = None,
        graph: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, list]:
        """One tenant's recorded spans and slow-query entries, oldest first.

        Returns ``{"spans": [...], "slow_queries": [...]}``.  With
        ``trace_id`` each list holds only that trace's entries: the spans
        this node recorded for it (the raw material
        :func:`repro.obs.assemble_trace` stitches into a cross-node tree)
        and its slow-query records.  ``limit`` keeps each list's newest
        entries.  A slow-query entry is the structured record the service
        logged — wall seconds, query name, engine, status, match count,
        version, and the full span tree when the query was traced; there
        are none while the tenant has no slow-query threshold.
        """
        return self._request(
            "trace", graph=self._graph_name(graph), trace_id=trace_id, limit=limit
        )

    def checkpoint(self, graph: Optional[str] = None) -> Dict[str, object]:
        """Checkpoint a durable tenant server-side: snapshot head, truncate log.

        Returns the checkpoint summary (path, version, log entries
        dropped); a tenant without durable storage raises
        :class:`~repro.exceptions.StoreError`.
        """
        return self._request("checkpoint", graph=self._graph_name(graph))

    def save(self, path: str, graph: Optional[str] = None) -> str:
        """Persist the tenant's head version server-side; returns the path."""
        return str(
            self._request("save", graph=self._graph_name(graph), path=path)["path"]
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Close the connection; the server releases everything we held."""
        if self._closed:
            return
        self._closed = True
        self._streams.clear()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def __enter__(self) -> "GraphClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "connected"
        return f"GraphClient(graph={self._graph!r}, {state})"
