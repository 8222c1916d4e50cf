"""GraphServer: asyncio TCP serving of a multi-tenant graph catalog.

The server puts the :class:`~repro.api.GraphDB` facade on the wire: every
facade capability — ``ingest`` / ``apply`` / ``apply_async`` / ``query`` /
``stream`` / ``count`` / ``explain`` / ``histogram`` / ``pin`` / ``stats``
/ ``save`` — plus the tenant lifecycle of a
:class:`~repro.server.catalog.GraphCatalog` (``create_graph`` /
``drop_graph`` / ``graphs``) is one request frame away (see
:mod:`repro.server.protocol` for the frame format).  Each introspection
question has one op: ``graphs`` (every tenant's head version and size),
``health`` (role and per-tenant readiness; a replica tenant's entry
carries its tail's full replication status), ``stats`` / ``metrics``
(one tenant's counters), ``trace`` (one tenant's recorded spans and
slow-query entries, optionally of one trace) and ``events`` (the node's
lifecycle ring).

Dispatch
--------
One gate, :meth:`_Connection._dispatch`, reads the op's row of
:data:`~repro.server.protocol.OPS`: it resolves the tenant, refuses writes
on a replica, decodes and type-checks every declared field
(:func:`~repro.server.protocol.decode_request`), parses DSL query text,
and for ops that read at a version resolves the request's ``pin`` to the
``snapshot`` it names (``None`` reads at the tenant's head).  The handler
``_op_<name>`` then receives typed keyword arguments only; a read handler
fills in the tenant's ``ServiceConfig`` defaults whether it reads at a
pin or at the head, and encodes its answer with the reply codec its
``OPS`` row declares.

Execution model
---------------
The event loop only ever parses frames and routes; every blocking call —
ticket waits, folds, catalog builds — runs on a thread-pool executor, so
one slow query never stalls another connection's frames.
Per-request errors answer with a typed error frame and the connection
lives on; *framing* errors (truncation, non-JSON bodies) are
unrecoverable and close the connection.

Streaming
---------
``stream_open`` starts a server-side :class:`StreamingResult` whose
service worker sends each page itself — no thread relays them — as a
``{"stream": s, "seq": k, "page": ...}`` frame under **credit-based flow
control**: the stream's one window (the tenant's ``stream_buffer_pages``)
keeps the worker at most that many pages ahead of the client's ``credit``
grants, and its wait obeys the query's budget.  A client that cancels
(``stream_cancel``) or disconnects mid-stream, or a failed send, closes
the server-side result, which cancels the executing worker cooperatively
and releases its snapshot pin — abandoned streams leak nothing.

Disconnects
-----------
Connection teardown closes every live stream, cancels every in-flight
ticket (through the service's cooperative cancel hooks), and releases
every pin the client still held.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Dict, Optional, Set, Tuple
from urllib.parse import quote

from repro.api import GraphDB
from repro.exceptions import (
    ProtocolError,
    QueryCancelled,
    ReadOnlyReplicaError,
    ReplicationError,
    ReproError,
    ServiceOverloadedError,
    StoreError,
    UnknownGraphError,
)
from repro.matching.result import jsonable
from repro.matching.stream import encode_page
from repro.obs import context as trace_context
from repro.obs import health as health_states
from repro.obs.events import EventLog, tail
from repro.obs.log import configure as configure_logging, get_logger
from repro.query.parser import parse_query
from repro.query.pattern import PatternQuery
from repro.server.catalog import GraphCatalog
from repro.server.protocol import (
    APPLY_REPORT,
    OPS,
    decode_request,
    encode_error,
    encode_frame,
    error_code,
    read_frame,
)
from repro.service.service import ServiceConfig, StreamingResult, StreamWindow


def _decode_query(payload, name: Optional[str] = None) -> PatternQuery:
    """A request's query: DSL text is parsed here, a query object arrives decoded."""
    if isinstance(payload, str):
        return parse_query(payload, name=name or "query")
    return payload


def _info(graph: str, database: GraphDB) -> Dict[str, object]:
    return {
        "name": graph,
        "head_version": database.head_version,
        "num_nodes": database.graph.num_nodes,
        "num_edges": database.graph.num_edges,
    }


def _metrics(graph: str, database: GraphDB, format: str = "json") -> Dict[str, object]:
    key = "text" if format == "prometheus" else "metrics"
    return {"format": format, key: database.metrics(format=format)}


def _trace(
    graph: str,
    database: GraphDB,
    trace_id: Optional[str] = None,
    limit: Optional[int] = None,
) -> Dict[str, object]:
    """The tenant's span ring and slow-query log, each filtered to
    ``trace_id`` when one is given, then cut to its ``limit`` newest."""
    slow = database.slow_queries()
    if trace_id is not None:
        slow = [entry for entry in slow if entry.get("trace_id") == trace_id]
    return {
        "spans": tail(database.trace_spans(trace_id), limit),
        "slow_queries": [jsonable(entry) for entry in tail(slow, limit)],
    }


def _tag_trace(error: BaseException, trace_id: Optional[str]) -> None:
    """Carry ``trace_id`` on a traced request's error, so its payload
    still correlates with the client's trace."""
    if trace_id is not None and getattr(error, "trace_id", None) is None:
        try:
            error.trace_id = trace_id
        except Exception:  # pragma: no cover - exotic exception types
            pass


def _with_trace(
    wire: Dict[str, object],
    database: GraphDB,
    ticket,
    node: Optional[str],
    encode_seconds: float,
    remainder: Optional[str] = None,
) -> Dict[str, object]:
    """``wire`` carrying its query's trace, when the query was sampled.

    The service added the stage spans under the root; the server adds its
    ``wire_encode`` span and ends the trace, so the tree the client sees —
    the same spans the tenant's ring and slow log get — covers the whole
    server-side wall clock.  A ``remainder`` span takes the wall time no
    other span covers, so the children sum to the root.
    """
    if ticket.trace is not None:
        ticket.add_span("wire_encode", encode_seconds)
    trace = database.service.end_trace(ticket, node, remainder)
    if trace is not None:
        wire["extra"]["trace"] = trace
    return wire


def _on_executor(call):
    """An op handler running ``call(graph, database, **fields)`` on the executor."""

    async def handler(self, *tenant, **fields):
        return await self._run(partial(call, *tenant, **fields))

    return handler


def _read(verb: str):
    """``count`` / ``explain`` / ``histogram``: one ``verb`` call on the
    resolved snapshot (the tenant's head by default) with the tenant's
    default engine and budget, its answer in the reply shape the op's
    :data:`OPS` row declares.  ``name`` was spent parsing the query;
    ``timeout`` only bounds the client's wait."""
    encode = OPS[verb].reply.encode

    def call(
        graph, database, query, snapshot=None, engine=None, budget=None,
        name=None, timeout=None, **options,
    ):
        engine, budget = database.service.defaults(engine, budget)
        read = getattr(snapshot or database, verb)
        return encode(read(query, engine=engine, budget=budget, **options))

    return _on_executor(call)


class _ServerStream(StreamWindow):
    """One streaming query's window on one connection, plus its socket.

    The window stays shut until :meth:`open`, which runs once the
    ``stream_open`` reply is written, so the client knows the stream id
    before its first frame; an end frame that comes sooner waits for it.
    """

    def __init__(
        self, connection: "_Connection", stream_id: int, database: GraphDB, size: int
    ) -> None:
        super().__init__(size)
        self._in_flight = self.size  # shut until open()
        self.connection = connection
        self.stream_id = stream_id
        self.database = database
        self.result: Optional[StreamingResult] = None
        self._opened = False
        self._early_end: Optional[Dict[str, object]] = None
        self._sequence = 0
        #: Page and report encoding time, the trace's ``wire_encode`` span.
        self.encode_seconds = 0.0

    def open(self) -> None:
        """Hand out the window (event loop, after the reply was written)."""
        with self._cond:
            self._opened = True
            end, self._early_end = self._early_end, None
        self.release(self.size)
        if end is not None:
            self._send_end(end)

    def pump(self, page, deadline=None) -> None:
        """Send one page under one credit (the query's worker thread); a
        failed send abandons the stream."""
        self.acquire(deadline)
        encode_started = time.perf_counter()
        frame = {"stream": self.stream_id, "seq": self._sequence, "page": encode_page(page)}
        self.encode_seconds += time.perf_counter() - encode_started
        self._sequence += 1
        try:
            self.connection.post(frame, self.database)
        except (ConnectionError, RuntimeError):
            self.close()
            raise QueryCancelled() from None

    def finish(self, ticket) -> None:
        """Post the end frame: the finalised (count-only) report, or the
        mapped error.  An abandoned stream ends silently."""
        error, node = ticket.error, self.connection.server.node
        if self._abandoned or error is not None:
            if not ticket.service_ends_trace:
                self.database.service.end_trace(ticket, node)
            if self._abandoned:
                return
            _tag_trace(error, ticket.trace_id)
            end = {"stream": self.stream_id, "end": True, "error": encode_error(error)}
        else:
            encode_started = time.perf_counter()
            wire = ticket.report.to_wire(include_occurrences=False)
            self.encode_seconds += time.perf_counter() - encode_started
            if not ticket.service_ends_trace:
                # stream_flush: credit waits and frame hand-offs, the remainder.
                wire = _with_trace(
                    wire, self.database, ticket, node, self.encode_seconds, "stream_flush"
                )
            end = {"stream": self.stream_id, "end": True, "report": wire}
        with self._cond:
            if not self._opened:
                self._early_end = end
                return
        self._send_end(end)

    def _send_end(self, end: Dict[str, object]) -> None:
        try:
            self.connection.post(end, self.database)
        except (ConnectionError, RuntimeError):
            pass  # connection gone; teardown releases the rest
        self.close()

    def close(self) -> None:
        """Stop the stream: forget its id, cancel a live producer and
        release the snapshot pin (idempotent; any thread).

        Dropping the result breaks the cycle ticket -> window -> result ->
        ticket, so the stream is freed without waiting for the collector.
        """
        self.abandon()
        self.connection._streams.pop(self.stream_id, None)
        result, self.result = self.result, None
        if result is not None:
            result.close()


class _Connection:
    """One client connection: frame loop, dispatch, per-client resources."""

    def __init__(self, server: "GraphServer", reader, writer) -> None:
        self.server = server
        self._reader = reader
        self._writer = writer
        self._loop = asyncio.get_running_loop()
        self._send_lock = asyncio.Lock()
        self._tasks: Set[asyncio.Task] = set()
        self._streams: Dict[int, _ServerStream] = {}
        self._shippers: Dict[int, object] = {}
        self._tickets: Set[object] = set()
        self._pins: Dict[str, Tuple[str, object]] = {}
        self._apply_futures: Dict[str, object] = {}
        self._ids = itertools.count(1)
        self._closing = False

    # ------------------------------------------------------------------ #
    # frame loop
    # ------------------------------------------------------------------ #

    async def run(self) -> None:
        try:
            while True:
                try:
                    frame = await read_frame(self._reader)
                except ProtocolError as exc:
                    # Framing is broken: answer if the socket still works,
                    # then drop the connection (the stream position is lost).
                    await self._safe_send(
                        {"id": None, "ok": False, "error": encode_error(exc)}
                    )
                    break
                except (ConnectionError, OSError, asyncio.CancelledError):
                    break
                if frame is None:
                    break
                op = frame.get("op")
                if op == "credit":
                    # Outside input, handled on the event loop: a malformed
                    # grant answers a typed error and the connection lives.
                    credits = frame.get("n", 1)
                    if type(credits) is not int or credits < 1:
                        error = ProtocolError(
                            f"credit 'n' must be an integer >= 1, got {credits!r:.40}"
                        )
                        await self._safe_send(
                            {"id": None, "ok": False, "error": encode_error(error)}
                        )
                        continue
                    stream = self._streams.get(frame.get("stream"))
                    if stream is not None:
                        stream.release(credits)
                    continue
                if op == "stream_cancel":
                    stream = self._streams.get(frame.get("stream"))
                    if stream is not None:
                        stream.close()
                    continue
                task = self._loop.create_task(self._dispatch(frame))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        finally:
            await self._teardown()

    async def _dispatch(self, frame: Dict[str, object]) -> None:
        ident = frame.get("id")
        op = frame.get("op")
        # The tenant the frame names, resolved once per request: a
        # graph-scoped handler runs on it, and its registry takes the
        # request, error and byte counts.  For every other op the lookup is
        # best-effort — a frame naming no live tenant has no registry.
        name = frame.get("graph")
        database = unresolved = None
        if isinstance(name, str) and name:
            try:
                database = self.server.catalog.get(name)
            except ReproError as exc:
                unresolved = exc
        try:
            if not isinstance(ident, int):
                raise ProtocolError(f"request carries no integer 'id': {frame!r}")
            flags = OPS.get(op) if isinstance(op, str) else None
            if flags is None:
                raise ProtocolError(f"unknown op {op!r}")
            tenant = ()
            if flags.scope == "graph":
                if database is None:
                    raise unresolved or ProtocolError(
                        "request names no graph (missing 'graph' field)"
                    )
                self._count(
                    database,
                    "server_requests_total",
                    "Wire requests handled for this tenant, by op",
                    op=op,
                )
                tenant = (name, database)
            if flags.write and (
                self.server.role == "replica" or getattr(database, "read_only", False)
            ):
                raise ReadOnlyReplicaError(
                    f"{op} refused: {name or frame.get('name')!r} is served by a "
                    "read-only replica — writes must go to the primary"
                )
            args = decode_request(op, frame)
            if "query" in args:
                args["query"] = _decode_query(args["query"], args.get("name"))
            if flags.pin:
                args["snapshot"] = self._pinned(args.pop("pin", None), name)
            result = await getattr(self, f"_op_{op}")(*tenant, **args)
            await self._safe_send(
                {"id": ident, "ok": True, "result": result}, database
            )
        except Exception as exc:
            # A traced request that fails still correlates: the client's
            # propagated trace id rides on the error payload (and on the
            # lifecycle WARNING below).
            trace_id = None
            context = trace_context.TraceContext.from_wire(frame.get("trace"))
            if context is not None:
                trace_id = context.trace_id
            _tag_trace(exc, trace_id)
            self._count(
                database,
                "server_errors_total",
                "Wire requests that answered with an error, by op and error kind",
                op=str(op),
                kind=error_code(exc),
            )
            if isinstance(exc, ServiceOverloadedError):
                self.server._log.warning(
                    "shed %s request for graph %r (trace_id=%s): %s",
                    op,
                    name,
                    trace_id or "-",
                    exc,
                )
                self.server.events.emit(
                    "shed",
                    f"shed {op} for {name!r}: {exc}",
                    op=op,
                    graph=name,
                    trace_id=trace_id,
                )
            try:
                await self._safe_send(
                    {
                        "id": ident if isinstance(ident, int) else None,
                        "ok": False,
                        "error": encode_error(exc),
                    },
                    database,
                )
            except Exception:  # pragma: no cover - reply path is best-effort
                pass

    # ------------------------------------------------------------------ #
    # sending
    # ------------------------------------------------------------------ #

    def _write(self, data: bytes, database: Optional[GraphDB]) -> None:
        """Write one encoded frame (event loop); its bytes count against
        ``database``'s registry.

        The count is taken before the frame reaches the transport
        (``write`` may put it on the socket at once), so whoever has read
        this frame — a client about to ask for ``server_metrics()``, a
        thread reading the registry — sees it counted.  A frame posted
        after teardown began is dropped.
        """
        if self._closing:
            return
        self._count(
            database,
            "server_bytes_sent_total",
            "Bytes of response and stream frames sent for this tenant",
            amount=len(data),
        )
        self._writer.write(data)

    async def _send(
        self, payload: Dict[str, object], database: Optional[GraphDB] = None
    ) -> None:
        """Write one frame, then wait out the transport's buffer.

        The write happens before the first ``await``, so frames reach the
        transport in the order they are sent: a ``stream_open`` reply is
        written before the stream's window opens.
        """
        if self._closing:
            raise ConnectionError("connection is closing")
        self._write(encode_frame(payload), database)
        async with self._send_lock:  # one drain at a time (Python < 3.10 asserts)
            await self._writer.drain()

    async def _safe_send(
        self, payload: Dict[str, object], database: Optional[GraphDB] = None
    ) -> None:
        try:
            await self._send(payload, database)
        except (ConnectionError, RuntimeError, OSError):
            pass  # client went away mid-reply; teardown will follow

    def post(self, payload: Dict[str, object], database: Optional[GraphDB]) -> None:
        """Queue one stream frame for the socket from a worker thread.

        Nothing waits for the write: the stream's credits bound its frames
        in flight.  Raises once the connection is closing or the loop gone.
        """
        if self._closing:
            raise ConnectionError("connection is closing")
        self._loop.call_soon_threadsafe(self._write, encode_frame(payload), database)

    def send_from_thread(
        self, payload: Dict[str, object], database: Optional[GraphDB]
    ) -> None:
        """Send one frame from a log-shipper thread (raises once the connection dies).

        ``database`` is the tenant whose ``server_bytes_sent_total`` the
        frame counts against — required, so no shipped frame goes uncounted.
        """
        future = asyncio.run_coroutine_threadsafe(
            self._send(payload, database), self._loop
        )
        future.result(30.0)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    async def _run(self, fn, *args):
        """Run a blocking call on the server executor."""
        return await self._loop.run_in_executor(self.server._executor, fn, *args)

    @staticmethod
    def _count(database, family: str, help: str, amount: int = 1, **labels) -> None:
        """Bump one of a tenant's ``server_*`` counter families.

        A no-op when the request resolved no tenant.
        """
        if database is None:
            return
        counter = database.telemetry.registry.counter(
            family, help, labelnames=tuple(labels)
        )
        if labels:
            counter = counter.labels(*labels.values())
        counter.inc(amount)

    def _pinned(self, token: Optional[str], graph: str):
        """The snapshot ``token`` pinned on this connection, or ``None`` to
        read at the head."""
        if token is None:
            return None
        entry = self._pins.get(token)
        if entry is None:
            raise StoreError(f"unknown pin token {token!r}")
        pinned_graph, snapshot = entry
        if pinned_graph != graph:
            raise StoreError(
                f"pin {token!r} belongs to graph {pinned_graph!r}, not {graph!r}"
            )
        return snapshot

    def _ship(self, shipper, database) -> None:
        """Send one log subscription's payloads (runs on its own thread).

        A lagged-out subscription ends with ``{"sub": s, "end": true,
        "error": {...}}``.
        """
        try:
            try:
                for payload in shipper.payloads():
                    self.send_from_thread(payload, database)
            except ReplicationError as exc:
                self.send_from_thread(
                    {"sub": shipper.ident, "end": True, "error": encode_error(exc)},
                    database,
                )
        except Exception:
            pass  # connection gone (or shutting down); teardown cleans up
        finally:
            self._shippers.pop(shipper.ident, None)
            shipper.stop()

    def _track_ticket(self, ticket) -> None:
        self._tickets.add(ticket)
        ticket.add_done_callback(self._tickets.discard)

    # ------------------------------------------------------------------ #
    # op handlers: ``_op_<name>(graph, database, **fields)`` for a
    # graph-scoped op, ``_op_<name>(**fields)`` for a node-scoped one
    # ------------------------------------------------------------------ #

    async def _op_ping(self):
        return {"pong": True, "graphs": len(self.server.catalog)}

    async def _op_graphs(self):
        catalog = self.server.catalog
        infos = []
        for name in catalog.names():
            try:
                infos.append(_info(name, catalog.get(name)))
            except UnknownGraphError:
                continue  # dropped by a concurrent client between list and get
        return {"graphs": infos}

    async def _op_create_graph(self, name, **options):
        database = await self._run(partial(self.server.catalog.create, name, **options))
        self.server._log.info("created graph %r (%d node(s))", name, database.num_nodes)
        self.server.events.emit("create_graph", f"created graph {name!r}", graph=name)
        return _info(name, database)

    async def _op_drop_graph(self, name, **options):
        await self._run(partial(self.server.catalog.drop, name, **options))
        self.server._log.info("dropped graph %r", name)
        self.server.events.emit("drop_graph", f"dropped graph {name!r}", graph=name)
        return {"dropped": name}

    # Ops that only call the tenant's GraphDB.
    _op_stats = _on_executor(
        lambda graph, database: {
            key: jsonable(value) for key, value in database.stats().items()
        }
    )
    _op_metrics = _on_executor(_metrics)
    _op_trace = _on_executor(_trace)
    _op_checkpoint = _on_executor(lambda graph, database: database.checkpoint())
    _op_save = _on_executor(lambda graph, database, path: {"path": database.save(path)})

    # count / explain / histogram: one call on the resolved snapshot.
    _op_count = _read("count")
    _op_explain = _read("explain")
    _op_histogram = _read("histogram")

    async def _fold(self, op, graph, database, trace, fold) -> Dict[str, object]:
        """Run one write under the request's trace context; its apply report.

        The context activates on the executor thread that performs the
        fold, so the store's fold/journal/publish spans — and the
        replication frames the publish listeners ship — all hang under
        this server-side op span.
        """

        def run():
            with trace_context.activate(
                trace, recorder=database.telemetry.spans, node=self.server.node
            ):
                with trace_context.trace_span(op, graph=graph):
                    return fold()

        return APPLY_REPORT.encode(await self._run(run))

    async def _op_ingest(self, graph, database, trace=None, **changes):
        return await self._fold(
            "ingest", graph, database, trace, partial(database.ingest, **changes)
        )

    async def _op_apply(self, graph, database, delta, trace=None):
        return await self._fold(
            "apply", graph, database, trace, partial(database.apply, delta)
        )

    async def _op_apply_async(self, graph, database, delta):
        token = f"a{next(self._ids)}"
        self._apply_futures[token] = database.apply_async(delta)
        return {"token": token}

    async def _op_apply_wait(self, token, timeout=None):
        future = self._apply_futures.get(token)
        if future is None:
            raise StoreError(f"unknown apply token {token!r}")
        report = await self._run(future.result, timeout)
        self._apply_futures.pop(token, None)
        return APPLY_REPORT.encode(report)

    async def _op_query(self, graph, database, query, timeout=None, trace=None, **options):
        # A traced read's spans carry this node, so routed reads show up on
        # whichever node served them when the trace is assembled fleet-wide.
        ticket = database.service.submit(query, trace_id=trace, **options)
        self._track_ticket(ticket)
        try:
            report = await self._run(ticket.result, timeout)
        except BaseException:
            if not ticket.service_ends_trace:  # end it whenever the ticket finishes
                ticket.add_done_callback(
                    partial(database.service.end_trace, node=self.server.node)
                )
            raise
        encode_started = time.perf_counter()
        wire = report.to_wire()
        if ticket.service_ends_trace:
            return wire
        return _with_trace(
            wire, database, ticket, self.server.node, time.perf_counter() - encode_started
        )

    async def _op_pin(self, graph, database, version=None):
        snapshot = database.store.pin(version)
        token = f"p{next(self._ids)}"
        self._pins[token] = (graph, snapshot)
        return {"pin": token, "version": snapshot.version}

    async def _op_release(self, pin):
        entry = self._pins.pop(pin, None)
        if entry is None:
            raise StoreError(f"unknown pin token {pin!r}")
        entry[1].release()
        return {"released": pin}

    async def _op_stream_open(
        self, graph, database, query, snapshot=None, name=None, trace=None, **options
    ):
        self._count(
            database,
            "server_streams_opened_total",
            "Streaming queries opened for this tenant",
        )
        stream = _ServerStream(
            self, next(self._ids), database, database.service.config.stream_buffer_pages
        )
        # The stream holds its own pin at the snapshot's version for its whole
        # life.  Pages never accumulate server-side (keep_occurrences=False):
        # the stream's memory bound is its window.
        stream.result = await self._run(
            partial(
                database.service.stream,
                query,
                version=snapshot.version if snapshot is not None else None,
                keep_occurrences=False,
                trace_id=trace,
                window=stream,
                **options,
            )
        )
        self._streams[stream.stream_id] = stream
        self._track_ticket(stream.result.ticket)
        # Runs after _dispatch has written the reply (``_send`` writes before
        # it awaits), so the client sees the stream id before any frame of it.
        self._loop.call_soon(stream.open)
        return {
            "stream": stream.stream_id,
            "version": stream.result.version,
            "window": stream.size,
            "page_size": stream.result.page_size,
        }

    async def _op_subscribe_log(self, graph, database, from_version=None):
        # Lazy import: repro.replication imports the api/server layers,
        # so the hub cannot be a module-level dependency of the server.
        from repro.replication.hub import LogShipper, get_hub

        def subscribe():
            return get_hub(database).subscribe(from_version=from_version)

        subscription, catchup = await self._run(subscribe)
        ident = next(self._ids)
        shipper = LogShipper(ident, database, subscription, catchup["entries"])
        self._shippers[ident] = shipper
        snapshot = catchup["snapshot"]
        reply = {
            "subscription": ident,
            "graph": graph,
            "mode": catchup["mode"],
            "snapshot": snapshot,
            "snapshot_version": int(snapshot["version"]) if snapshot else None,
            "head_version": catchup["head_version"],
        }
        # Long-lived pump: a dedicated thread, not an executor slot — a
        # fleet of replicas must not starve the query pool.
        threading.Thread(
            target=self._ship,
            args=(shipper, database),
            name=f"log-shipper-{ident}",
            daemon=True,
        ).start()
        return reply

    async def _op_health(self):
        """Cheap, graph-less readiness probe: role, uptime, per-tenant state.

        Routers poll this with short timeouts instead of per-graph
        probes — one frame answers for every tenant (a replica tenant's
        ``replication`` entry is its tail's full status), and a node
        that cannot answer it *at all* (frozen, partitioned) is the
        router's cue to mark it unreachable.
        """

        def collect():
            server = self.server
            tenants: Dict[str, object] = {}
            states = []
            for name in server.catalog.names():
                try:
                    database = server.catalog.get(name)
                except UnknownGraphError:
                    continue  # dropped between list and get
                entry: Dict[str, object] = {
                    "head_version": int(database.head_version),
                    "read_only": bool(getattr(database, "read_only", False)),
                }
                durability = getattr(database, "durability", None)
                if durability is not None:
                    counters = durability.counters()
                    entry["wal"] = {
                        "entries_since_checkpoint": counters.get(
                            "entries_since_checkpoint"
                        ),
                        "last_checkpoint_version": counters.get(
                            "last_checkpoint_version"
                        ),
                    }
                hub = getattr(database, "replication_hub", None)
                if hub is not None and not hub._closed:
                    entry["subscribers"] = hub.subscriber_count()
                tail_status = None
                reporter = getattr(database, "replication_status", None)
                if reporter is not None:
                    tail_status = entry["replication"] = reporter()
                state = health_states.classify_tenant(
                    server.role,
                    tail_status,
                    degraded_lag_versions=server.degraded_lag_versions,
                    unhealthy_lag_versions=server.unhealthy_lag_versions,
                )
                entry["status"] = state
                states.append(state)
                tenants[name] = entry
            return {
                "status": health_states.worst(states),
                "node": server.node,
                "role": server.role,
                "uptime_seconds": max(0.0, time.time() - server.started_at),
                "tenants": tenants,
            }

        return await self._run(collect)

    async def _op_events(self, **filters):
        """Recent server lifecycle events from the bounded ring, oldest first."""
        events = self.server.events
        return {"events": events.recent(**filters), "last_seq": events.last_seq}

    # ------------------------------------------------------------------ #
    # teardown
    # ------------------------------------------------------------------ #

    async def _teardown(self) -> None:
        """Release everything this client owned (streams, tickets, pins)."""
        self._closing = True
        for stream in list(self._streams.values()):
            stream.close()
        for shipper in list(self._shippers.values()):
            shipper.stop()
        self._shippers.clear()
        for ticket in list(self._tickets):
            ticket.cancel()
        for _, snapshot in self._pins.values():
            snapshot.release()
        self._pins.clear()
        self._apply_futures.clear()
        if self._tasks:
            await asyncio.wait(list(self._tasks), timeout=10.0)
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    def abort(self) -> None:
        """Hard-close the transport (server shutdown); loop thread only."""
        transport = self._writer.transport
        if transport is not None:
            transport.abort()


class GraphServer:
    """A TCP server exposing a :class:`GraphCatalog` over the wire protocol.

    Parameters
    ----------
    catalog:
        The tenant registry to serve.  ``None`` creates an owned catalog —
        empty, recovered from ``data_dir``, or replicated from
        ``primary``; a caller-supplied catalog keeps its owner (it is
        *not* closed with the server), which is how an existing
        in-process :class:`GraphDB` is put on the network:
        ``catalog.attach("main", db)``.
    primary:
        ``(host, port)`` of a primary server, which makes this server a
        read-only **replica** (``role == "replica"``): each tenant the
        primary lists is a :class:`~repro.replication.ReplicaTail`
        bootstrapped before the socket binds, tailing the primary's delta
        stream from then on.  Reads behave exactly as on the primary; every write op
        answers :class:`~repro.exceptions.ReadOnlyReplicaError`, and
        each tenant's ``health`` entry reports the lag.  Without it the
        server is a primary.
    data_dir:
        Durable storage root (only with ``catalog=None``), one directory
        per tenant.  On a primary the server opens
        :meth:`GraphCatalog.open` over it: tenants present on disk are
        recovered to their exact pre-crash head versions before the
        socket binds, and tenants created over the wire journal every
        fold ahead of publish, so a killed-and-restarted server loses
        nothing that was acknowledged.  On a replica each tail journals
        its folds there, so a killed replica restarts in tail mode from
        its exact pre-crash head.  ``checkpoint_every`` sets the tenants'
        auto-checkpoint policy.
    host / port:
        Bind address; port 0 picks a free port (read it from
        :attr:`address` after :meth:`start`).
    service_config:
        Default :class:`ServiceConfig` for catalogs the server creates
        (its ``stream_buffer_pages`` is each wire stream's credit window).
    log_level:
        When given (``"INFO"``, ``logging.DEBUG``, ...), attaches the
        library's managed log handler (see :func:`repro.obs.get_logger`)
        so connection, tenant-lifecycle, recovery and shed events are
        emitted; ``None`` (default) leaves handler configuration to the
        embedding application.

    The server runs its event loop on a dedicated daemon thread:
    :meth:`start` returns once the socket is bound, :meth:`close` stops
    accepting, aborts live connections (running their resource teardown)
    and joins the thread.  Usable as a context manager.
    """

    def __init__(
        self,
        catalog: Optional[GraphCatalog] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        service_config: Optional[ServiceConfig] = None,
        data_dir: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        log_level=None,
        node: Optional[str] = None,
        event_capacity: int = 256,
        degraded_lag_versions: int = health_states.DEFAULT_DEGRADED_LAG_VERSIONS,
        unhealthy_lag_versions: int = health_states.DEFAULT_UNHEALTHY_LAG_VERSIONS,
        primary: Optional[Tuple[str, int]] = None,
    ) -> None:
        # ``log_level`` ("INFO", logging.DEBUG, ...) attaches the library's
        # managed stream handler; None leaves logging to the application.
        if log_level is not None:
            configure_logging(log_level)
        self._log = get_logger("server")
        # Node identity: stamped on every distributed-trace span this
        # server records and reported by the ``health`` op.  ``None``
        # resolves to ``role@host:port`` once the socket binds.
        self.node = node
        self.role = "primary" if primary is None else "replica"
        #: Tenant name -> :class:`~repro.replication.ReplicaTail` (replicas only).
        self.tails: Dict[str, object] = {}
        self.events = EventLog(event_capacity)
        self.started_at = time.time()
        self.degraded_lag_versions = degraded_lag_versions
        self.unhealthy_lag_versions = unhealthy_lag_versions
        if catalog is not None:
            if data_dir is not None or primary is not None:
                raise StoreError(
                    "pass data_dir / primary only with catalog=None — a supplied "
                    "catalog carries its own tenants and durability configuration"
                )
            self.catalog = catalog
        elif primary is not None:
            self.catalog = self._replicate(
                primary, data_dir, service_config, checkpoint_every
            )
        elif data_dir is not None:
            self.catalog = GraphCatalog.open(
                data_dir, config=service_config, checkpoint_every=checkpoint_every
            )
            for name in self.catalog.names():
                recovery = getattr(self.catalog.get(name), "last_recovery", None)
                if recovery is not None:
                    self._log.info(
                        "recovered tenant %r to version %s",
                        name,
                        getattr(recovery, "head_version", "?"),
                    )
                    self.events.emit(
                        "recovery",
                        f"recovered tenant {name!r}",
                        graph=name,
                        head_version=getattr(recovery, "head_version", None),
                    )
        else:
            self.catalog = GraphCatalog(config=service_config)
        self._owns_catalog = catalog is None
        self._host = host
        self._port = port
        self.address: Optional[Tuple[str, int]] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._connections: Set[_Connection] = set()
        self._connection_tasks: Set[asyncio.Task] = set()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False

    def _replicate(self, primary, data_dir, config, checkpoint_every) -> GraphCatalog:
        """An owned catalog of read-only tenants, one tail of ``primary`` each."""
        # Lazy imports: both modules import this one.
        from repro.client.client import GraphClient
        from repro.replication.replica import ReplicaTail

        host, port = primary
        with GraphClient(host, port) as client:
            graphs = [str(info["name"]) for info in client.graphs()]
        if not graphs:
            raise ReplicationError("primary lists no graphs to replicate")
        catalog = GraphCatalog(config=config)
        try:
            for name in graphs:
                tail = ReplicaTail(
                    host,
                    port,
                    name,
                    data_dir=None
                    if data_dir is None
                    else os.path.join(data_dir, quote(name, safe="")),
                    config=config,
                    checkpoint_every=checkpoint_every,
                    node=self.node,
                )
                catalog.attach(name, tail.start(), owned=True)
                self.tails[name] = tail
        except BaseException:
            catalog.close()  # owned databases close -> close hooks stop tails
            raise
        return catalog

    def status(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant replication tail status (empty on a primary)."""
        return {name: tail.status() for name, tail in self.tails.items()}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> Tuple[str, int]:
        """Bind and serve on a background thread; returns ``(host, port)``.

        A server that fails to bind is closed before the error propagates,
        so its owned catalog and replication tails do not outlive it (a
        failing ``__enter__`` never reaches ``__exit__``).
        """
        if self._thread is not None:
            raise StoreError("server was already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="graph-server", daemon=True
        )
        self._thread.start()
        if self._started.wait(timeout=30.0):
            error = self._startup_error
        else:  # pragma: no cover - defensive
            error = StoreError("server failed to start within 30s")
        if error is not None:
            self.close()
            raise error
        return self.address

    def _run_loop(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=64, thread_name_prefix="graph-server-io"
        )
        try:
            server = await asyncio.start_server(self._on_client, self._host, self._port)
        except Exception as exc:
            self._startup_error = exc
            self._executor.shutdown(wait=False)
            self._started.set()
            return
        bound = server.sockets[0].getsockname()
        self.address = (bound[0], bound[1])
        if self.node is None:
            self.node = f"{self.role}@{bound[0]}:{bound[1]}"
            for tail in self.tails.values():
                tail.node = self.node
        self.started_at = time.time()
        self._log.info(
            "listening on %s:%s (%d tenant(s))", bound[0], bound[1], len(self.catalog)
        )
        self.events.emit(
            "listening",
            f"{self.node} listening on {bound[0]}:{bound[1]}",
            node=self.node,
            role=self.role,
            tenants=len(self.catalog),
        )
        self._started.set()
        async with server:
            await self._stop_event.wait()
        for connection in list(self._connections):
            connection.abort()
        if self._connection_tasks:
            await asyncio.wait(list(self._connection_tasks), timeout=10.0)
        self._executor.shutdown(wait=True)

    async def _on_client(self, reader, writer) -> None:
        connection = _Connection(self, reader, writer)
        peer = writer.get_extra_info("peername")
        self._log.info("client connected from %s", peer)
        self.events.emit("client_connect", f"client connected from {peer}")
        self._connections.add(connection)
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
            task.add_done_callback(self._connection_tasks.discard)
        try:
            await connection.run()
        finally:
            self._connections.discard(connection)
            self._log.info("client %s disconnected", peer)
            self.events.emit("client_disconnect", f"client {peer} disconnected")

    def close(self) -> None:
        """Stop serving; tears down live connections and joins the loop thread."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None and self._loop is not None:
            if not self._started.is_set():  # pragma: no cover - defensive
                self._started.wait(timeout=5.0)
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # loop already gone
                pass
            self._thread.join(timeout=30.0)
        if self._owns_catalog:
            self.catalog.close()
        for tail in self.tails.values():
            tail.close()  # idempotent; a replicated database's close stops it too
        self.events.emit("stopped", f"{self.node or 'server'} stopped")
        self._log.info("server stopped")

    def __enter__(self) -> "GraphServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("serving" if self.address else "new")
        return f"GraphServer(address={self.address}, graphs={len(self.catalog)}, {state})"
