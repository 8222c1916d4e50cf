"""The wire protocol: length-prefixed frames + error mapping.

Framing
-------
Every message — request, response, stream page, credit grant — is one
*frame*: a 4-byte big-endian length and a body of that many bytes, in
one of the two kinds :mod:`repro.framing` defines::

    JSON kind   { ... }                      a compact UTF-8 JSON object
    rows kind   0x01 | >I n | header | tail  n bytes of JSON, then packed
                                             blocks of match rows

Either way the body decodes to one JSON **object**; in the rows kind the
fields that hold match rows (``page``, ``occurrences``) arrive as tuples
of int tuples, unpacked and validated by the codec.  Three frame shapes
flow:

* requests ``{"id": n, "op": "query", ...}`` (client -> server);
* responses ``{"id": n, "ok": true, "result": ...}`` or
  ``{"id": n, "ok": false, "error": {...}}`` (server -> client; rows
  kind when the result carries occurrences);
* stream frames ``{"stream": s, "seq": k, "page": <rows>}`` (rows kind)
  and the terminal ``{"stream": s, "end": true, "report"|"error": ...}``
  (server -> client, interleaved with responses — the ``stream`` key is
  what lets a client demultiplex them).

Truncated, oversized or undecodable frames — including a rows-kind body
whose header or blocks do not add up to its length — raise
:class:`~repro.exceptions.ProtocolError`; the connection is not
recoverable past one (the stream position is lost), so both endpoints
close on it.

Ops
---
:data:`OPS` declares every request op once — whether it addresses one
tenant or the node, whether it writes, whether a client may resend it —
and the server's dispatch and the client's reconnect logic both read it.

Error mapping
-------------
:func:`encode_error` flattens the library's exception hierarchy into a
typed payload; :func:`decode_error` rebuilds the *same* exception class
client-side, so remote callers keep their ``except`` clauses: a shed
request raises :class:`~repro.exceptions.ServiceOverloadedError` with its
``reason`` (``queue_full`` / ``deadline``) intact, a stale injected index
raises :class:`~repro.exceptions.StaleIndexError` naming both versions,
an unknown tenant raises :class:`~repro.exceptions.UnknownGraphError`.
(Cancellation is *not* an error: a cancelled query answers with a normal
report whose status is ``cancelled``, on the wire as in-process.)
"""

from __future__ import annotations

import socket
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, NamedTuple, Optional

from repro.framing import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    check_length,
    decode_body,
    decode_length,
    encode_frame,
)
from repro.exceptions import (
    CatalogError,
    EngineError,
    GraphError,
    PrimaryUnavailableError,
    ProtocolError,
    QueryCancelled,
    QueryError,
    QueryParseError,
    ReadOnlyReplicaError,
    ReplicaDivergedError,
    ReplicationError,
    ReproError,
    ServiceOverloadedError,
    StaleIndexError,
    StoreError,
    UnknownGraphError,
    WalError,
)

# ---------------------------------------------------------------------- #
# framing
# ---------------------------------------------------------------------- #

# The codec itself lives in :mod:`repro.framing` (shared with the
# write-ahead log, which journals one frame per delta in this exact
# format); this module re-exports it and adds the socket readers.
__all__ = [
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "OPS",
    "check_length",
    "decode_body",
    "decode_error",
    "decode_length",
    "encode_error",
    "encode_frame",
    "error_code",
    "read_frame",
    "read_frame_sync",
]


class OpFlags(NamedTuple):
    """What dispatch and clients need to know about one wire op."""

    #: ``"graph"`` — the frame's ``graph`` field names the tenant the op runs
    #: on: dispatch resolves it, refuses the op without it, and counts it in
    #: the tenant's ``server_requests_total{op}``.  ``"node"`` — the op
    #: addresses the server (or a connection-scoped token).
    scope: str
    #: Mutates a tenant or the catalog: refused with
    #: :class:`~repro.exceptions.ReadOnlyReplicaError` on a read-only tenant
    #: and on every tenant of a ``role="replica"`` server.
    write: bool = False
    #: Safe to resend after a reconnect (never true of a write, a stream —
    #: its pages are connection-scoped — or anything naming a pin token).
    idempotent: bool = False


#: The request ops of the wire protocol (``credit`` / ``stream_cancel``
#: are reply-less flow-control frames, not requests).
OPS: Dict[str, OpFlags] = {
    "ping": OpFlags("node", idempotent=True),
    "graphs": OpFlags("node", idempotent=True),
    "create_graph": OpFlags("node", write=True),
    "drop_graph": OpFlags("node", write=True),
    "info": OpFlags("graph", idempotent=True),
    "ingest": OpFlags("graph", write=True),
    "apply": OpFlags("graph", write=True),
    "apply_async": OpFlags("graph", write=True),
    "apply_wait": OpFlags("node"),
    "query": OpFlags("graph", idempotent=True),
    "count": OpFlags("graph", idempotent=True),
    "explain": OpFlags("graph", idempotent=True),
    "histogram": OpFlags("graph", idempotent=True),
    "run_batch": OpFlags("graph", idempotent=True),
    "pin": OpFlags("graph"),
    "release": OpFlags("node"),
    "stats": OpFlags("graph", idempotent=True),
    "metrics": OpFlags("graph", idempotent=True),
    "slow_queries": OpFlags("graph", idempotent=True),
    "checkpoint": OpFlags("graph", write=True),
    "save": OpFlags("graph"),
    "stream_open": OpFlags("graph"),
    "subscribe_log": OpFlags("graph"),
    "replica_status": OpFlags("graph", idempotent=True),
    "health": OpFlags("node", idempotent=True),
    "events": OpFlags("node", idempotent=True),
    "spans": OpFlags("graph", idempotent=True),
}


def connect(host: str, port: int, timeout: Optional[float]) -> socket.socket:
    """A client-side connection to a graph server, with ``TCP_NODELAY`` set.

    The protocol is small request frames answered by small reply frames;
    with Nagle's algorithm on, a request written right after another small
    write (a stream's last ``credit`` frame) waits for the peer's delayed
    ACK — about 40 ms per occurrence.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def read_frame_sync(sock: socket.socket) -> Optional[Dict[str, object]]:
    """Blocking frame read from a plain socket (the sync client's reader).

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`~repro.exceptions.ProtocolError` on a mid-frame EOF
    (truncation) or a malformed body.  ``socket.timeout`` propagates so
    callers can poll.
    """
    header = _recv_exactly(sock, HEADER_BYTES, allow_eof=True)
    if header is None:
        return None
    body = _recv_exactly(sock, decode_length(header), allow_eof=False)
    return decode_body(body)


def _recv_exactly(sock: socket.socket, count: int, allow_eof: bool) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining} of {count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


async def read_frame(reader) -> Optional[Dict[str, object]]:
    """Async frame read from an :class:`asyncio.StreamReader` (the server side).

    Same contract as :func:`read_frame_sync`: ``None`` on clean EOF,
    :class:`~repro.exceptions.ProtocolError` on truncation or malformed
    bodies.
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-header ({len(exc.partial)} of {HEADER_BYTES} bytes)"
        ) from exc
    length = decode_length(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} of {length} bytes)"
        ) from exc
    return decode_body(body)


# ---------------------------------------------------------------------- #
# error mapping
# ---------------------------------------------------------------------- #

#: Errors that rebuild from a message alone, most-derived class first (so
#: e.g. a QueryParseError encodes to its own code, not its QueryError base).
#: One table drives both directions: :func:`encode_error` scans it in
#: order, :func:`decode_error` looks the code up in the derived dict.
_CODED_CLASSES = (
    ("query_parse", QueryParseError),
    ("query", QueryError),
    ("graph", GraphError),
    ("catalog", CatalogError),
    ("wal", WalError),
    ("read_only_replica", ReadOnlyReplicaError),
    ("primary_unavailable", PrimaryUnavailableError),
    ("replication", ReplicationError),
    ("store", StoreError),
    ("engine", EngineError),
    ("protocol", ProtocolError),
)

_SIMPLE_CODES = {code: klass for code, klass in _CODED_CLASSES}

def encode_error(exc: BaseException) -> Dict[str, object]:
    """Flatten ``exc`` into the typed error payload of an error response.

    A ``trace_id`` attribute stuck onto any exception by the dispatch
    layer rides along, so a traced request that *fails* still correlates
    with its client-side trace.
    """
    payload = _encode_error_payload(exc)
    trace_id = getattr(exc, "trace_id", None)
    if trace_id is not None:
        payload["trace_id"] = trace_id
    return payload


def _encode_error_payload(exc: BaseException) -> Dict[str, object]:
    if isinstance(exc, ServiceOverloadedError):
        payload: Dict[str, object] = {
            "code": "overloaded",
            "reason": exc.reason,
            "detail": exc.detail,
        }
        # Rejection-time load context (PR 7): absent on errors raised by
        # paths that never captured it, and omitted from the wire then —
        # the decoder restores them as None either way.
        if exc.queue_depth is not None:
            payload["queue_depth"] = exc.queue_depth
        if exc.workers_busy is not None:
            payload["workers_busy"] = exc.workers_busy
        if exc.workers_total is not None:
            payload["workers_total"] = exc.workers_total
        return payload
    if isinstance(exc, StaleIndexError):
        return {
            "code": "stale_index",
            "engine": exc.engine,
            "artifact": exc.artifact,
            "expected_version": exc.expected_version,
            "found_version": exc.found_version,
        }
    if isinstance(exc, UnknownGraphError):
        return {"code": "unknown_graph", "name": exc.name, "message": str(exc)}
    if isinstance(exc, ReplicaDivergedError):
        return {
            "code": "replica_diverged",
            "expected_version": exc.expected_version,
            "found_version": exc.found_version,
        }
    if isinstance(exc, QueryCancelled):
        return {"code": "cancelled", "message": str(exc)}
    if isinstance(exc, (TimeoutError, FutureTimeoutError)):
        # FutureTimeoutError is a distinct class before Python 3.11; both
        # shapes (ticket waits, writer-future waits) map to one code.
        return {"code": "timeout", "message": str(exc)}
    for code, klass in _CODED_CLASSES:
        if isinstance(exc, klass):
            return {"code": code, "message": str(exc)}
    return {"code": "internal", "type": type(exc).__name__, "message": str(exc)}


def error_code(exc: BaseException) -> str:
    """The wire code ``exc`` encodes to — the ``kind`` label of
    ``server_errors_total{op,kind}``, so metrics and error payloads speak
    the same vocabulary."""
    return str(_encode_error_payload(exc).get("code", "internal"))


def decode_error(payload: Optional[Dict[str, object]]) -> Exception:
    """Rebuild the server-side exception from an error payload.

    Unknown or missing codes come back as a plain
    :class:`~repro.exceptions.ReproError` carrying the message — a client
    must never crash on a code added by a newer server.
    """
    if not isinstance(payload, dict):
        return ProtocolError(f"malformed error payload: {payload!r}")
    code = payload.get("code")
    message = str(payload.get("message", ""))
    exc = _decode_error_payload(payload, code, message)
    trace_id = payload.get("trace_id")
    if trace_id is not None:
        exc.trace_id = trace_id
    return exc


def _decode_error_payload(
    payload: Dict[str, object], code, message: str
) -> Exception:
    if code == "overloaded":
        def _load_field(key):
            value = payload.get(key)
            return int(value) if value is not None else None

        return ServiceOverloadedError(
            str(payload.get("reason", "unknown")),
            str(payload.get("detail", "")),
            queue_depth=_load_field("queue_depth"),
            workers_busy=_load_field("workers_busy"),
            workers_total=_load_field("workers_total"),
        )
    if code == "stale_index":
        return StaleIndexError(
            str(payload.get("engine", "?")),
            str(payload.get("artifact", "?")),
            int(payload.get("expected_version", -1)),
            int(payload.get("found_version", -1)),
        )
    if code == "unknown_graph":
        return UnknownGraphError(str(payload.get("name", "?")))
    if code == "replica_diverged":
        return ReplicaDivergedError(
            int(payload.get("expected_version", -1)),
            int(payload.get("found_version", -1)),
        )
    if code == "cancelled":
        return QueryCancelled(message)
    if code == "timeout":
        return TimeoutError(message)
    klass = _SIMPLE_CODES.get(code)
    if klass is not None:
        return klass(message)
    detail = payload.get("type")
    prefix = f"remote {detail}: " if detail else "remote error: "
    return ReproError(prefix + message)
