"""GraphServer: asyncio TCP serving of a multi-tenant graph catalog.

The server puts the :class:`~repro.api.GraphDB` facade on the wire: every
facade capability — ``ingest`` / ``apply`` / ``apply_async`` / ``query`` /
``stream`` / ``count`` / ``explain`` / ``histogram`` / ``run_batch`` /
``pin`` / ``stats`` / ``save`` — plus the tenant lifecycle of a
:class:`~repro.server.catalog.GraphCatalog` (``create_graph`` /
``drop_graph`` / ``graphs``) is one request frame away (see
:mod:`repro.server.protocol` for the frame format).

Execution model
---------------
The event loop only ever parses frames and routes; every blocking call —
ticket waits, folds, catalog builds, stream pumps — runs on a thread-pool
executor, so one slow query never stalls another connection's frames.
Per-request errors answer with a typed error frame and the connection
lives on; *framing* errors (truncation, non-JSON bodies) are
unrecoverable and close the connection.

Streaming
---------
``stream_open`` starts a server-side :class:`StreamingResult` and a pump
thread that forwards its pages as ``{"stream": s, "seq": k, "page": ...}``
frames under **credit-based flow control**: the pump may run at most
``window`` pages ahead of the client's ``credit`` grants (mirroring the
service's ``stream_buffer_pages`` backpressure), so the client's first
page arrives while the query is still enumerating and a slow client
throttles the producer instead of growing the socket buffer.  A client
that cancels (``stream_cancel``) or disconnects mid-stream closes the
server-side result, which cancels the executing worker cooperatively and
releases its snapshot pin — abandoned streams leak nothing.

Disconnects
-----------
Connection teardown closes every live stream, cancels every in-flight
ticket (through the service's cooperative cancel hooks), and releases
every pin the client still held.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Set, Tuple

from repro.api import GraphDB, encode_apply_report, encode_batch_report
from repro.dynamic.delta import GraphDelta
from repro.exceptions import (
    ProtocolError,
    ReadOnlyReplicaError,
    ReplicationError,
    ReproError,
    ServiceOverloadedError,
    StoreError,
    UnknownGraphError,
)
from repro.matching.result import Budget, jsonable
from repro.matching.stream import encode_page
from repro.obs import context as trace_context
from repro.obs import health as health_states
from repro.obs.events import EventLog
from repro.obs.log import configure as configure_logging, get_logger
from repro.query.parser import parse_query
from repro.query.pattern import PatternQuery
from repro.server.catalog import GraphCatalog
from repro.server.protocol import OPS, encode_error, error_code, encode_frame, read_frame
from repro.service.service import ServiceConfig, StreamingResult


def _decode_query(payload, name: Optional[str] = None) -> PatternQuery:
    """A request's query: either a :meth:`PatternQuery.to_dict` object or DSL text."""
    if isinstance(payload, str):
        return parse_query(payload, name=name or "query")
    if isinstance(payload, dict):
        return PatternQuery.from_dict(payload)
    raise ProtocolError(
        f"query must be DSL text or a query object, got {type(payload).__name__}"
    )


def _decode_budget(payload) -> Optional[Budget]:
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise ProtocolError(f"budget must be an object, got {type(payload).__name__}")
    return Budget.from_wire(payload)


class _ServerStream:
    """One streaming query being pumped to one connection, credit-gated."""

    def __init__(
        self,
        connection: "_Connection",
        stream_id: int,
        result: StreamingResult,
        window: int,
        page_timeout: Optional[float],
        database: Optional[GraphDB] = None,
    ) -> None:
        self.connection = connection
        self.stream_id = stream_id
        self.result = result
        self.database = database
        self._credits = threading.Semaphore(max(1, window))
        self._closed = threading.Event()
        self._page_timeout = page_timeout
        #: Accumulated page-encoding time, surfaced as the trace's
        #: ``wire_encode`` span on the end frame.
        self._encode_seconds = 0.0

    def grant(self, credits: int) -> None:
        """Replenish the send window (a validated client ``credit`` frame)."""
        self._credits.release(credits)

    def close(self) -> None:
        """Stop pumping: cancel the producer and release the snapshot pin.

        Safe from the event loop: the blocking teardown
        (:meth:`StreamingResult.close`) only flips flags and drains a
        bounded queue; the pump thread observes the abandonment sentinel
        and exits without sending an end frame.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        self._credits.release()  # wake a pump blocked on the window
        self.result.close()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def _acquire_credit(self) -> bool:
        while not self._closed.is_set():
            if self._credits.acquire(timeout=0.05):
                if self._closed.is_set():
                    return False
                return True
        return False

    def pump(self) -> None:
        """Forward pages to the client (runs on an executor thread).

        Each page waits for one credit before it is sent; exhaustion sends
        the terminal frame carrying the finalised (count-only) report, and
        failures send the terminal frame carrying the mapped error.  Every
        exit path closes the result — the producer is cancelled and the
        pin released no matter how the stream ends.
        """
        error: Optional[BaseException] = None
        try:
            sequence = 0
            for page in self.result.pages(timeout=self._page_timeout):
                if not self._acquire_credit():
                    return
                encode_started = time.perf_counter()
                frame = {
                    "stream": self.stream_id,
                    "seq": sequence,
                    "page": encode_page(page),
                }
                self._encode_seconds += time.perf_counter() - encode_started
                self.connection.send_from_thread(frame, self.database)
                sequence += 1
            if self._closed.is_set():
                return
            report = self.result.report(timeout=30.0)
            encode_started = time.perf_counter()
            wire = report.to_wire(include_occurrences=False)
            self._encode_seconds += time.perf_counter() - encode_started
            trace = self.result.ticket.trace
            if trace:
                # Extend the service-side span tree with the server's
                # encoding cost and re-finish: the root now covers the
                # whole stream drain including wire encoding.  The wall
                # time the pump spent forwarding pages — credit waits,
                # event-loop round trips — is accounted as ``stream_flush``
                # (the remainder over the already-attributed stages), so
                # the children keep summing to the root.
                trace.add_span("wire_encode", self._encode_seconds)
                trace.finish()
                flush = trace.seconds - trace.span_seconds()
                if flush > 0:
                    trace.add_span("stream_flush", flush)
                wire["extra"]["trace"] = trace.to_dict()
            self.connection.send_from_thread(
                {"stream": self.stream_id, "end": True, "report": wire},
                self.database,
            )
        except Exception as exc:
            error = exc
        finally:
            self.result.close()
            self.connection.discard_stream(self.stream_id)
        if error is not None and not self._closed.is_set():
            trace = self.result.ticket.trace
            if trace and getattr(error, "trace_id", None) is None:
                try:
                    error.trace_id = trace.trace_id
                except Exception:  # pragma: no cover - exotic exception types
                    pass
            try:
                self.connection.send_from_thread(
                    {
                        "stream": self.stream_id,
                        "end": True,
                        "error": encode_error(error),
                    },
                    self.database,
                )
            except Exception:  # connection already gone
                pass


#: Most pages one ``credit`` frame may add to a stream's send window; a
#: larger grant is clamped (no honest client runs this far ahead).
MAX_CREDIT_GRANT = 1 << 16

#: Delta frames batched into one ``log_frames`` wire frame.
LOG_SHIP_BATCH = 64

#: Idle heartbeat period: an empty batch carrying the primary's head, so
#: a caught-up replica keeps its lag gauges current without traffic.
LOG_SHIP_HEARTBEAT_SECONDS = 1.0


class _LogShipper:
    """One replication subscription being pumped to one connection.

    Ships the catch-up entries computed at subscribe time, then tails the
    hub subscription's live queue, batching up to :data:`LOG_SHIP_BATCH`
    delta frames per wire frame::

        {"sub": s, "frames": [...], "head": primary-head-version}

    A subscription whose buffer overflowed (the replica fell too far
    behind) ends with ``{"sub": s, "end": true, "error": {...}}`` — the
    replica's cue to resubscribe from wherever it actually got to.  While
    idle the shipper heartbeats the current head about once a second.
    """

    def __init__(
        self,
        connection: "_Connection",
        ident: int,
        database: GraphDB,
        subscription,
        entries,
    ) -> None:
        self.connection = connection
        self.ident = ident
        self.database = database
        self.subscription = subscription
        self._entries = list(entries)
        self._stopped = threading.Event()

    def stop(self) -> None:
        """Stop pumping and drop the hub subscription (idempotent)."""
        self._stopped.set()
        self.subscription.close()

    def _send(self, frames) -> None:
        self.connection.send_from_thread(
            {
                "sub": self.ident,
                "frames": frames,
                "head": int(self.database.head_version),
            },
            self.database,
        )

    def pump(self) -> None:
        """Forward catch-up + live delta frames (runs on its own thread)."""
        try:
            for start in range(0, len(self._entries), LOG_SHIP_BATCH):
                if self._stopped.is_set():
                    return
                self._send(self._entries[start : start + LOG_SHIP_BATCH])
            self._entries = []
            last_sent = time.monotonic()
            while not self._stopped.is_set():
                try:
                    frame = self.subscription.next(timeout=0.25)
                except ReplicationError as exc:
                    self.connection.send_from_thread(
                        {"sub": self.ident, "end": True, "error": encode_error(exc)},
                        self.database,
                    )
                    return
                if frame is None:
                    if time.monotonic() - last_sent >= LOG_SHIP_HEARTBEAT_SECONDS:
                        self._send([])
                        last_sent = time.monotonic()
                    continue
                batch = [frame]
                lag_error = None
                while len(batch) < LOG_SHIP_BATCH:
                    try:
                        extra = self.subscription.next(timeout=0.0)
                    except ReplicationError as exc:
                        lag_error = exc
                        break
                    if extra is None:
                        break
                    batch.append(extra)
                self._send(batch)
                last_sent = time.monotonic()
                if lag_error is not None:
                    self.connection.send_from_thread(
                        {"sub": self.ident, "end": True, "error": encode_error(lag_error)},
                        self.database,
                    )
                    return
        except Exception:
            pass  # connection gone (or shutting down); teardown cleans up
        finally:
            self.subscription.close()
            self.connection.discard_shipper(self.ident)


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
        self._shippers: Dict[int, _LogShipper] = {}
        self._tickets: Set[object] = set()
        self._pins: Dict[str, Tuple[str, object]] = {}
        self._apply_futures: Dict[str, object] = {}
        self._pin_ids = itertools.count(1)
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
                        stream.grant(min(credits, MAX_CREDIT_GRANT))
                    continue
                if op == "stream_cancel":
                    self.discard_stream(frame.get("stream"), close=True)
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
            handler = self._HANDLERS.get(op)
            if handler is None:
                raise ProtocolError(f"unknown op {op!r}")
            flags = OPS[op]
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
            result = await handler(self, frame, *tenant)
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
            if trace_id is not None and getattr(exc, "trace_id", None) is None:
                try:
                    exc.trace_id = trace_id
                except Exception:  # pragma: no cover - exotic exception types
                    pass
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

    async def _send(
        self, payload: Dict[str, object], database: Optional[GraphDB] = None
    ) -> None:
        """Write one frame; its bytes count against ``database``'s registry.

        The count is taken under the send lock before the frame reaches
        the transport (``write`` may put it on the socket at once), so
        whoever has read this frame — a client about to ask for
        ``server_metrics()``, a thread reading the registry — sees it
        counted.
        """
        if self._closing:
            raise ConnectionError("connection is closing")
        data = encode_frame(payload)
        async with self._send_lock:
            self._count(
                database,
                "server_bytes_sent_total",
                "Bytes of response and stream frames sent for this tenant",
                amount=len(data),
            )
            self._writer.write(data)
            await self._writer.drain()

    async def _safe_send(
        self, payload: Dict[str, object], database: Optional[GraphDB] = None
    ) -> None:
        try:
            await self._send(payload, database)
        except (ConnectionError, RuntimeError, OSError):
            pass  # client went away mid-reply; teardown will follow

    def send_from_thread(
        self, payload: Dict[str, object], database: Optional[GraphDB]
    ) -> None:
        """Send one frame from a pump thread (raises once the connection dies).

        ``database`` is the tenant whose ``server_bytes_sent_total`` the
        frame counts against — required, so no pump frame goes uncounted.
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

    def _trace_scope(self, frame: Dict[str, object], database: GraphDB):
        """Decode the frame's trace context and find the tenant's span ring."""
        context = trace_context.TraceContext.from_wire(frame.get("trace"))
        if context is None:
            return None, None
        return context, database.telemetry.spans

    def _pin_for(self, frame: Dict[str, object], graph_name: str):
        token = frame.get("pin")
        if token is None:
            return None
        entry = self._pins.get(token)
        if entry is None:
            raise StoreError(f"unknown pin token {token!r}")
        pinned_graph, snapshot = entry
        if pinned_graph != graph_name:
            raise StoreError(
                f"pin {token!r} belongs to graph {pinned_graph!r}, not {graph_name!r}"
            )
        return snapshot

    def discard_stream(self, stream_id, close: bool = False) -> None:
        """Forget (and optionally close) one stream; thread-safe enough.

        Called from pump threads on normal exhaustion and from the event
        loop on cancel frames / teardown.
        """
        stream = self._streams.pop(stream_id, None)
        if stream is not None and close:
            stream.close()

    def discard_shipper(self, ident) -> None:
        """Forget (and stop) one log shipper; thread-safe enough."""
        shipper = self._shippers.pop(ident, None)
        if shipper is not None:
            shipper.stop()

    def _track_ticket(self, ticket) -> None:
        self._tickets.add(ticket)
        ticket.add_done_callback(self._tickets.discard)

    def _info(self, name: str, database: GraphDB) -> Dict[str, object]:
        graph = database.graph
        return {
            "name": name,
            "head_version": database.head_version,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
        }

    # ------------------------------------------------------------------ #
    # op handlers
    # ------------------------------------------------------------------ #

    async def _op_ping(self, frame):
        return {"pong": True, "graphs": len(self.server.catalog)}

    async def _op_graphs(self, frame):
        catalog = self.server.catalog
        infos = []
        for name in catalog.names():
            try:
                infos.append(self._info(name, catalog.get(name)))
            except UnknownGraphError:
                continue  # dropped by a concurrent client between list and get
        return {"graphs": infos}

    async def _op_create_graph(self, frame):
        name = frame.get("name")
        labels = frame.get("labels") or ()
        edges = [tuple(edge) for edge in frame.get("edges") or ()]

        def build():
            return self.server.catalog.create(
                name,
                labels=labels,
                edges=edges,
                exist_ok=bool(frame.get("exist_ok", False)),
            )

        database = await self._run(build)
        self.server._log.info(
            "created graph %r (%d node(s))", name, database.num_nodes
        )
        self.server.events.emit(
            "create_graph", f"created graph {name!r}", graph=name
        )
        return self._info(name, database)

    async def _op_drop_graph(self, frame):
        name = frame.get("name")

        def drop():
            self.server.catalog.drop(
                name,
                force=bool(frame.get("force", False)),
                delete_storage=bool(frame.get("delete_storage", False)),
            )

        await self._run(drop)
        self.server._log.info("dropped graph %r", name)
        self.server.events.emit("drop_graph", f"dropped graph {name!r}", graph=name)
        return {"dropped": name}

    async def _op_checkpoint(self, frame, name, database):
        return await self._run(database.checkpoint)

    async def _op_info(self, frame, name, database):
        return self._info(name, database)

    async def _op_ingest(self, frame, name, database):
        context, recorder = self._trace_scope(frame, database)

        def run():
            # The context activates on the executor thread that performs
            # the fold, so the store's fold/journal/publish spans — and the
            # replication frames the publish listeners ship — all hang
            # under this server-side op span.
            with trace_context.activate(
                context, recorder=recorder, node=self.server.node
            ):
                with trace_context.trace_span("ingest", graph=name):
                    return database.ingest(
                        labels=frame.get("labels") or (),
                        edges=[tuple(edge) for edge in frame.get("edges") or ()],
                        remove_edges=[
                            tuple(edge) for edge in frame.get("remove_edges") or ()
                        ],
                    )

        return encode_apply_report(await self._run(run))

    async def _op_apply(self, frame, name, database):
        delta = GraphDelta.from_dict(frame.get("delta") or {})
        context, recorder = self._trace_scope(frame, database)

        def run():
            with trace_context.activate(
                context, recorder=recorder, node=self.server.node
            ):
                with trace_context.trace_span("apply", graph=name):
                    return database.apply(delta)

        report = await self._run(run)
        return encode_apply_report(report)

    async def _op_apply_async(self, frame, name, database):
        delta = GraphDelta.from_dict(frame.get("delta") or {})
        future = database.apply_async(delta)
        token = f"a{next(self._pin_ids)}"
        self._apply_futures[token] = future
        return {"token": token}

    async def _op_apply_wait(self, frame):
        token = frame.get("token")
        future = self._apply_futures.get(token)
        if future is None:
            raise StoreError(f"unknown apply token {token!r}")
        report = await self._run(future.result, frame.get("timeout"))
        self._apply_futures.pop(token, None)
        return encode_apply_report(report)

    async def _op_query(self, frame, name, database):
        query = _decode_query(frame.get("query"), frame.get("name"))
        snapshot = self._pin_for(frame, name)
        context, recorder = self._trace_scope(frame, database)
        # A propagated read context also lands one op span in the tenant's
        # cross-node ring, so routed reads show up on whichever node
        # served them when the trace is assembled fleet-wide.
        span = None
        if context is not None and context.sampled and recorder is not None:
            span = trace_context.Span(
                "query",
                context.trace_id,
                parent_id=context.span_id,
                node=self.server.node,
                graph=name,
            )
        ticket = database.service.submit(
            query,
            engine=frame.get("engine"),
            budget=_decode_budget(frame.get("budget")),
            deadline_seconds=frame.get("deadline_seconds"),
            snapshot=snapshot,
            name=frame.get("name"),
            trace_id=context.trace_id if context is not None else None,
        )
        self._track_ticket(ticket)
        try:
            report = await self._run(ticket.result, frame.get("timeout"))
        finally:
            if span is not None:
                recorder.record(span.finish())
        encode_started = time.perf_counter()
        wire = report.to_wire()
        trace = ticket.trace
        if trace:
            # The service already finished the root over queue/pin/run;
            # append the server's encoding cost and re-finish so the tree
            # the client sees covers the full server-side wall clock.
            trace.add_span("wire_encode", time.perf_counter() - encode_started)
            trace.finish()
            wire["extra"]["trace"] = trace.to_dict()
        return wire

    async def _op_count(self, frame, name, database):
        query = _decode_query(frame.get("query"), frame.get("name"))
        budget = _decode_budget(frame.get("budget"))
        engine = frame.get("engine") or "GM"
        snapshot = self._pin_for(frame, name)

        def run():
            if snapshot is not None:
                return snapshot.count(query, engine=engine, budget=budget)
            with database.store.pin() as snap:
                return snap.count(query, engine=engine, budget=budget)

        return {"count": await self._run(run)}

    async def _op_explain(self, frame, name, database):
        query = _decode_query(frame.get("query"), frame.get("name"))
        budget = _decode_budget(frame.get("budget"))
        engine = frame.get("engine") or "GM"
        analyze = bool(frame.get("analyze", False))
        snapshot = self._pin_for(frame, name)

        def run():
            if snapshot is not None:
                return snapshot.explain(
                    query, engine=engine, analyze=analyze, budget=budget
                )
            with database.store.pin() as snap:
                return snap.explain(query, engine=engine, analyze=analyze, budget=budget)

        plan = await self._run(run)
        return {"plan": plan.to_wire()}

    async def _op_histogram(self, frame, name, database):
        query = _decode_query(frame.get("query"), frame.get("name"))
        budget = _decode_budget(frame.get("budget"))
        engine = frame.get("engine") or "GM"
        node = frame.get("node")
        snapshot = self._pin_for(frame, name)

        def run():
            if snapshot is not None:
                return snapshot.histogram(query, node=node, engine=engine, budget=budget)
            with database.store.pin() as snap:
                return snap.histogram(query, node=node, engine=engine, budget=budget)

        return {"histogram": await self._run(run)}

    async def _op_run_batch(self, frame, name, database):
        raw_queries = frame.get("queries")
        if not isinstance(raw_queries, list):
            raise ProtocolError("run_batch needs a 'queries' list")
        queries = {}
        for index, entry in enumerate(raw_queries):
            if not isinstance(entry, dict):
                raise ProtocolError(f"batch entry {index} is not an object")
            query = _decode_query(entry.get("query"), entry.get("name"))
            queries[entry.get("name") or query.name or f"q{index}"] = query
        budget = _decode_budget(frame.get("budget"))
        snapshot = self._pin_for(frame, name)

        def run():
            return database.service.run_batch(
                queries,
                engine=frame.get("engine"),
                budget=budget,
                workers=frame.get("workers"),
                keep_occurrences=bool(frame.get("keep_occurrences", True)),
                snapshot=snapshot,
            )

        return encode_batch_report(await self._run(run))

    async def _op_pin(self, frame, name, database):
        snapshot = database.store.pin(frame.get("version"))
        token = f"p{next(self._pin_ids)}"
        self._pins[token] = (name, snapshot)
        return {"pin": token, "version": snapshot.version}

    async def _op_release(self, frame):
        token = frame.get("pin")
        entry = self._pins.pop(token, None)
        if entry is None:
            raise StoreError(f"unknown pin token {token!r}")
        entry[1].release()
        return {"released": token}

    async def _op_stats(self, frame, name, database):
        stats = await self._run(database.stats)
        return {key: jsonable(value) for key, value in stats.items()}

    async def _op_save(self, frame, name, database):
        path = frame.get("path")
        if not isinstance(path, str) or not path:
            raise ProtocolError("save needs a 'path' string")
        return {"path": await self._run(database.save, path)}

    async def _op_metrics(self, frame, name, database):
        format = frame.get("format") or "json"

        def run():
            return database.metrics(format=format)

        payload = await self._run(run)
        if format == "prometheus":
            return {"format": "prometheus", "text": payload}
        return {"format": "json", "metrics": payload}

    async def _op_slow_queries(self, frame, name, database):
        limit = frame.get("limit")
        entries = await self._run(database.slow_queries, limit)
        return {"slow_queries": [jsonable(entry) for entry in entries]}

    async def _op_stream_open(self, frame, name, database):
        query = _decode_query(frame.get("query"), frame.get("name"))
        budget = _decode_budget(frame.get("budget"))
        page_size = int(frame.get("page_size", 256))
        window = int(frame.get("window") or self.server.stream_window)
        pinned = self._pin_for(frame, name)
        ident = frame["id"]
        context, _ = self._trace_scope(frame, database)
        stream_trace_id = context.trace_id if context is not None else None
        self._count(
            database,
            "server_streams_opened_total",
            "Streaming queries opened for this tenant",
        )

        def open_stream() -> StreamingResult:
            # Pages never accumulate server-side (keep_occurrences=False):
            # the stream's memory bound is the service's page buffer plus
            # this connection's credit window.
            if pinned is not None:
                snapshot = database.store.pin(pinned.version)
                try:
                    ticket = database.service.submit(
                        query,
                        engine=frame.get("engine"),
                        budget=budget,
                        deadline_seconds=frame.get("deadline_seconds"),
                        snapshot=snapshot,
                        page_size=page_size,
                        keep_occurrences=False,
                        trace_id=stream_trace_id,
                    )
                except Exception:
                    snapshot.release()
                    raise
                return StreamingResult(ticket, snapshot, page_size)
            return database.service.stream(
                query,
                engine=frame.get("engine"),
                budget=budget,
                page_size=page_size,
                deadline_seconds=frame.get("deadline_seconds"),
                keep_occurrences=False,
                trace_id=stream_trace_id,
            )

        result = await self._run(open_stream)
        stream = _ServerStream(
            self,
            ident,
            result,
            window,
            self.server.stream_page_timeout,
            database=database,
        )
        self._streams[ident] = stream
        self._track_ticket(result.ticket)
        # The reply goes out before the pump starts, so the client always
        # sees the stream id before its first page frame.
        reply = {
            "stream": ident,
            "version": result.version,
            "window": window,
            "page_size": page_size,
        }
        self._loop.run_in_executor(self.server._executor, stream.pump)
        return reply

    async def _op_subscribe_log(self, frame, name, database):
        # Lazy import: repro.replication imports the api/server layers,
        # so the hub cannot be a module-level dependency of the server.
        from repro.replication.hub import get_hub

        from_version = frame.get("from_version")
        if from_version is not None:
            from_version = int(from_version)

        def subscribe():
            return get_hub(database).subscribe(from_version=from_version)

        subscription, catchup = await self._run(subscribe)
        ident = frame["id"]
        shipper = _LogShipper(
            self, ident, database, subscription, catchup["entries"]
        )
        self._shippers[ident] = shipper
        snapshot = catchup["snapshot"]
        reply = {
            "subscription": ident,
            "graph": name,
            "mode": catchup["mode"],
            "snapshot": snapshot,
            "snapshot_version": int(snapshot["version"]) if snapshot else None,
            "head_version": catchup["head_version"],
        }
        # Long-lived pump: a dedicated thread, not an executor slot — a
        # fleet of replicas must not starve the query pool.
        threading.Thread(
            target=shipper.pump, name=f"log-shipper-{ident}", daemon=True
        ).start()
        return reply

    async def _op_replica_status(self, frame, name, database):
        status = {
            "graph": name,
            "replica": False,
            "read_only": bool(getattr(database, "read_only", False)),
            "head_version": int(database.head_version),
        }
        reporter = getattr(database, "replication_status", None)
        if reporter is not None:
            status.update(await self._run(reporter))
            status["replica"] = True
        return status

    async def _op_health(self, frame):
        """Cheap, graph-less readiness probe: role, uptime, per-tenant state.

        Routers poll this with short timeouts instead of per-graph
        ``info`` probes — one frame answers for every tenant, and a node
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
                    tail_status = reporter()
                    entry["replication"] = {
                        "connected": tail_status.get("connected"),
                        "lag_versions": tail_status.get("lag_versions"),
                        "lag_seconds": tail_status.get("lag_seconds"),
                    }
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

    async def _op_events(self, frame):
        """Recent server lifecycle events from the bounded ring, oldest first."""
        limit = frame.get("limit")
        kinds = frame.get("kinds")
        after_seq = frame.get("after_seq")
        events = self.server.events.recent(
            limit=int(limit) if limit is not None else None,
            kinds=kinds,
            after_seq=int(after_seq) if after_seq is not None else None,
        )
        return {"events": events, "last_seq": self.server.events.last_seq}

    async def _op_spans(self, frame, name, database):
        """Finished distributed-trace spans from one tenant's span ring."""
        recorder = database.telemetry.spans
        trace_id = frame.get("trace_id")
        if trace_id is not None:
            spans = recorder.for_trace(str(trace_id))
        else:
            limit = frame.get("limit")
            spans = recorder.recent(int(limit) if limit is not None else None)
        return {"spans": [dict(span) for span in spans]}

    _HANDLERS = {
        "ping": _op_ping,
        "graphs": _op_graphs,
        "create_graph": _op_create_graph,
        "drop_graph": _op_drop_graph,
        "info": _op_info,
        "ingest": _op_ingest,
        "apply": _op_apply,
        "apply_async": _op_apply_async,
        "apply_wait": _op_apply_wait,
        "query": _op_query,
        "count": _op_count,
        "explain": _op_explain,
        "histogram": _op_histogram,
        "run_batch": _op_run_batch,
        "pin": _op_pin,
        "release": _op_release,
        "stats": _op_stats,
        "metrics": _op_metrics,
        "slow_queries": _op_slow_queries,
        "checkpoint": _op_checkpoint,
        "save": _op_save,
        "stream_open": _op_stream_open,
        "subscribe_log": _op_subscribe_log,
        "replica_status": _op_replica_status,
        "health": _op_health,
        "events": _op_events,
        "spans": _op_spans,
    }

    # ------------------------------------------------------------------ #
    # teardown
    # ------------------------------------------------------------------ #

    async def _teardown(self) -> None:
        """Release everything this client owned (streams, tickets, pins)."""
        self._closing = True
        for stream in list(self._streams.values()):
            stream.close()
        self._streams.clear()
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
        empty, or recovered from ``data_dir`` when that is given; a
        caller-supplied catalog keeps its owner (it is *not* closed with
        the server), which is how an existing in-process :class:`GraphDB`
        is put on the network: ``catalog.attach("main", db)``.
    data_dir:
        Durable storage root (only with ``catalog=None``).  The server
        opens :meth:`GraphCatalog.open` over it: tenants present on disk
        are recovered to their exact pre-crash head versions before the
        socket binds, and tenants created over the wire journal every
        fold ahead of publish, so a killed-and-restarted server loses
        nothing that was acknowledged.  ``checkpoint_every`` sets the
        tenants' auto-checkpoint policy.
    host / port:
        Bind address; port 0 picks a free port (read it from
        :attr:`address` after :meth:`start`).
    stream_window:
        Default credit window per stream: how many pages the server pumps
        ahead of the client's grants (clients may ask for their own window
        at ``stream_open``).
    stream_page_timeout:
        Upper bound on the pump's wait for one page from the executing
        worker (``None`` — the default — trusts budgets/deadlines to
        terminate the query).
    service_config:
        Default :class:`ServiceConfig` for catalogs the server creates.
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
        stream_window: int = 4,
        stream_page_timeout: Optional[float] = None,
        service_config: Optional[ServiceConfig] = None,
        data_dir: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        log_level=None,
        node: Optional[str] = None,
        role: str = "primary",
        event_capacity: int = 256,
        degraded_lag_versions: int = health_states.DEFAULT_DEGRADED_LAG_VERSIONS,
        unhealthy_lag_versions: int = health_states.DEFAULT_UNHEALTHY_LAG_VERSIONS,
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
        self.role = role
        self.events = EventLog(event_capacity)
        self.started_at = time.time()
        self.degraded_lag_versions = degraded_lag_versions
        self.unhealthy_lag_versions = unhealthy_lag_versions
        if catalog is not None:
            if data_dir is not None:
                raise StoreError(
                    "pass data_dir only with catalog=None — a supplied catalog "
                    "carries its own durability configuration"
                )
            self.catalog = catalog
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
        self.stream_window = max(1, stream_window)
        self.stream_page_timeout = stream_page_timeout
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

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> Tuple[str, int]:
        """Bind and serve on a background thread; returns ``(host, port)``."""
        if self._thread is not None:
            raise StoreError("server was already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="graph-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):  # pragma: no cover - defensive
            raise StoreError("server failed to start within 30s")
        if self._startup_error is not None:
            raise self._startup_error
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
