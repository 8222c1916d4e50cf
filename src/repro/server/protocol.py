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
tenant or the node, whether it writes, whether a client may resend it,
whether it reads at a ``pin``, which request fields it takes, and, for a
read, the shape of its answer — and :data:`FIELDS` gives each field name
its one codec.  The client encodes every request through
:func:`encode_request` (a field the op does not declare is a
:class:`TypeError` there); the server decodes and type-checks every
request through :func:`decode_request` before any handler runs, so an
ill-typed field answers a ``protocol`` error naming the op and the field.
A read op's :class:`Reply` is what the server encodes its answer with and
the client decodes it with; the folding ops share :data:`APPLY_REPORT`.

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
from collections.abc import Mapping
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, Dict, FrozenSet, NamedTuple, Optional, Tuple

from repro.dynamic.delta import GraphDelta
from repro.dynamic.maintenance import ApplyReport
from repro.explain.plan import QueryPlan
from repro.framing import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    Rows,
    check_length,
    decode_body,
    decode_length,
    encode_frame,
    rows_from_wire,
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
from repro.matching.result import Budget, MatchReport, jsonable
from repro.obs.context import TraceContext
from repro.query.pattern import PatternQuery
from repro.service.service import ServiceBatchReport
from repro.session.batch import QueryOutcome

__all__ = [
    "APPLY_REPORT",
    "FIELDS",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "OPS",
    "check_length",
    "decode_body",
    "decode_error",
    "decode_length",
    "decode_request",
    "encode_error",
    "encode_frame",
    "encode_request",
    "error_code",
    "read_frame",
    "read_frame_sync",
]


# ---------------------------------------------------------------------- #
# ops
# ---------------------------------------------------------------------- #


class Reply(NamedTuple):
    """The shape of one op's answer: the server encodes, the client decodes."""

    #: Handler's answer -> ``result`` payload.
    encode: Callable[[object], object]
    #: ``result`` payload -> the caller's answer.
    decode: Callable[[object], object]


class OpFlags(NamedTuple):
    """What dispatch and clients need to know about one wire op."""

    #: ``"graph"`` — the frame's ``graph`` field names the tenant the op runs
    #: on: dispatch resolves it, refuses the op without it, and counts it in
    #: the tenant's ``server_requests_total{op}``.  ``"node"`` — the op
    #: addresses the server (or a connection-scoped token).
    scope: str
    #: Mutates a tenant or the catalog: refused with
    #: :class:`~repro.exceptions.ReadOnlyReplicaError` on a read-only tenant
    #: and on every tenant of a replica server.
    write: bool = False
    #: Safe to resend after a reconnect (never true of a write, a stream —
    #: its pages are connection-scoped — or anything naming a pin token).
    idempotent: bool = False
    #: Reads at one version: an optional ``pin`` field names a snapshot this
    #: connection pinned, and dispatch resolves it to the handler's
    #: ``snapshot`` (``None`` reads at the tenant's head).
    pin: bool = False
    #: The request fields the op takes (``pin`` included when it reads at
    #: one), each decoded by its :data:`FIELDS` codec.
    fields: Tuple[str, ...] = ()
    #: The fields a request must carry.
    required: FrozenSet[str] = frozenset()
    #: How a read op's answer (a report, a count, a plan) crosses the wire;
    #: ``None`` for every other op.
    reply: Optional[Reply] = None


def _op(scope: str, fields: str = "", **flags) -> OpFlags:
    """One :data:`OPS` row; ``fields`` is space-separated, ``!`` marks a required one."""
    names = fields.split() + (["pin"] if flags.get("pin") else [])
    return OpFlags(
        scope,
        fields=tuple(name.rstrip("!") for name in names),
        required=frozenset(name[:-1] for name in names if name.endswith("!")),
        **flags,
    )


def _apply_report_to_wire(report: ApplyReport) -> Dict[str, object]:
    return {
        "old_version": report.old_version,
        "new_version": report.new_version,
        "num_ops": report.num_ops,
        "seconds": report.seconds,
        "patched": list(report.patched),
        "invalidated": list(report.invalidated),
    }


def _apply_report_from_wire(payload: Dict[str, object]) -> ApplyReport:
    return ApplyReport(
        old_version=int(payload.get("old_version", 0)),
        new_version=int(payload.get("new_version", 0)),
        num_ops=int(payload.get("num_ops", 0)),
        seconds=float(payload.get("seconds", 0.0)),
        patched=list(payload.get("patched", ())),
        invalidated=list(payload.get("invalidated", ())),
    )


def _batch_report_to_wire(report: ServiceBatchReport) -> Dict[str, object]:
    """Each outcome's occurrences travel as one packed rows block."""
    return {
        "engine": report.engine,
        "wall_seconds": report.wall_seconds,
        "workers": report.workers,
        "cache_hits": dict(report.cache_hits),
        "cache_misses": dict(report.cache_misses),
        "version": report.version,
        "outcomes": [
            {
                "name": outcome.name,
                "seconds": outcome.seconds,
                "num_matches": outcome.num_matches,
                "status": outcome.status,
                "occurrences": Rows(outcome.occurrences),
                "extra": {key: jsonable(value) for key, value in outcome.extra.items()},
            }
            for outcome in report.outcomes
        ],
    }


def _batch_report_from_wire(payload: Dict[str, object]) -> ServiceBatchReport:
    outcomes = [
        QueryOutcome(
            name=str(raw.get("name", "query")),
            seconds=float(raw.get("seconds", 0.0)),
            num_matches=int(raw.get("num_matches", 0)),
            status=str(raw.get("status", "ok")),
            occurrences=rows_from_wire(raw.get("occurrences", ()), "occurrences"),
            extra=dict(raw.get("extra", ())),
        )
        for raw in payload.get("outcomes", ())
    ]
    return ServiceBatchReport(
        engine=str(payload.get("engine", "GM")),
        outcomes=outcomes,
        wall_seconds=float(payload.get("wall_seconds", 0.0)),
        workers=int(payload.get("workers", 1)),
        cache_hits=dict(payload.get("cache_hits", ())),
        cache_misses=dict(payload.get("cache_misses", ())),
        version=int(payload.get("version", -1)),
    )


#: The answer of the folding ops (``ingest``, ``apply``, ``apply_wait``).
APPLY_REPORT = Reply(_apply_report_to_wire, _apply_report_from_wire)


#: The request ops of the wire protocol (``credit`` / ``stream_cancel``
#: are reply-less flow-control frames, not requests).
OPS: Dict[str, OpFlags] = {
    "ping": _op("node", idempotent=True),
    "graphs": _op("node", idempotent=True),
    "create_graph": _op("node", "name! labels edges exist_ok", write=True),
    "drop_graph": _op("node", "name! force delete_storage", write=True),
    "ingest": _op("graph", "labels edges remove_edges trace", write=True),
    "apply": _op("graph", "delta! trace", write=True),
    "apply_async": _op("graph", "delta!", write=True),
    "apply_wait": _op("node", "token! timeout"),
    "query": _op(
        "graph", "query! engine budget deadline_seconds timeout name trace",
        idempotent=True, pin=True,
        reply=Reply(MatchReport.to_wire, MatchReport.from_wire),
    ),
    "count": _op(
        "graph", "query! engine budget name", idempotent=True, pin=True,
        reply=Reply(lambda count: {"count": count}, lambda payload: int(payload["count"])),
    ),
    "explain": _op(
        "graph", "query! engine analyze budget timeout", idempotent=True, pin=True,
        reply=Reply(
            lambda plan: {"plan": plan.to_wire()},
            lambda payload: QueryPlan.from_wire(payload["plan"]),
        ),
    ),
    "histogram": _op(
        "graph", "query! node engine budget name", idempotent=True, pin=True,
        reply=Reply(
            lambda histogram: {"histogram": histogram},
            lambda payload: dict(payload["histogram"]),
        ),
    ),
    "run_batch": _op(
        "graph", "queries! engine budget workers keep_occurrences timeout",
        idempotent=True, pin=True,
        reply=Reply(_batch_report_to_wire, _batch_report_from_wire),
    ),
    "pin": _op("graph", "version"),
    "release": _op("node", "pin!"),
    "stats": _op("graph", idempotent=True),
    "metrics": _op("graph", "format", idempotent=True),
    "checkpoint": _op("graph", write=True),
    "save": _op("graph", "path!"),
    "stream_open": _op(
        "graph", "query! engine budget page_size deadline_seconds name trace", pin=True
    ),
    "subscribe_log": _op("graph", "from_version"),
    "health": _op("node", idempotent=True),
    "events": _op("node", "limit kinds after_seq", idempotent=True),
    "trace": _op("graph", "trace_id limit", idempotent=True),
}


# ---------------------------------------------------------------------- #
# field codecs
# ---------------------------------------------------------------------- #


def _same(value):
    return value


class Codec(NamedTuple):
    """How one request field crosses the wire (``None`` never reaches either side)."""

    #: What a wire value must be (the error message says so).
    expected: str
    #: Whether a wire value is well-typed.
    accepts: Callable[[object], bool]
    #: Well-typed wire value -> handler argument.
    decode: Callable[[object], object] = _same
    #: Caller's argument -> wire value.
    encode: Callable[[object], object] = _same


def _is_int(value) -> bool:
    return type(value) is int  # a JSON true is not a count


def _is_count(value) -> bool:
    return _is_int(value) and value >= 1


def _is_text(value) -> bool:
    return isinstance(value, str) and value != ""


def _is_pair(edge) -> bool:
    return isinstance(edge, list) and len(edge) == 2 and all(map(_is_int, edge))


def _is_query(value) -> bool:
    return isinstance(value, (str, dict))


def _query_from_wire(value):
    """DSL text stays text (the server parses it); an object is a pattern."""
    return value if isinstance(value, str) else PatternQuery.from_dict(value)


def _query_to_wire(query):
    if isinstance(query, PatternQuery):
        return query.to_dict()
    if isinstance(query, str):
        return query
    raise ProtocolError(
        f"query must be a PatternQuery or DSL text, got {type(query).__name__}"
    )


def _is_batch(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(entry, dict)
        and _is_query(entry.get("query"))
        and (entry.get("name") is None or _is_text(entry["name"]))
        for entry in value
    )


def _batch_from_wire(value):
    """``[{"name": ..., "query": ...}, ...]`` -> ``[(name, query), ...]``."""
    return [(entry.get("name"), _query_from_wire(entry["query"])) for entry in value]


def _batch_to_wire(queries):
    if isinstance(queries, Mapping):
        pairs = queries.items()
    else:
        pairs = ((getattr(query, "name", None), query) for query in queries)
    return [{"name": name, "query": _query_to_wire(query)} for name, query in pairs]


#: The budget limits a request may set, and what each must be.
_BUDGET_LIMITS = {
    "max_matches": _is_int,
    "time_limit_seconds": lambda value: type(value) in (int, float),
    "max_intermediate_results": _is_int,
}


def _is_budget(value) -> bool:
    return isinstance(value, dict) and all(
        value.get(key) is None or accepts(value[key])
        for key, accepts in _BUDGET_LIMITS.items()
    )


def _trace_to_wire(trace):
    """A :class:`TraceContext` travels structured; a plain id as its string."""
    return trace.to_wire() if isinstance(trace, TraceContext) else str(trace)


#: One codec per request field name, whichever op carries it.
FIELDS: Dict[str, Codec] = {
    **dict.fromkeys(
        ("graph", "name", "engine", "pin", "token", "path", "format", "trace_id"),
        Codec("a non-empty string", _is_text),
    ),
    **dict.fromkeys(
        ("labels", "kinds"),
        Codec(
            "a list of strings",
            lambda value: isinstance(value, list) and all(isinstance(item, str) for item in value),
            encode=list,
        ),
    ),
    **dict.fromkeys(
        ("edges", "remove_edges"),
        Codec(
            "a list of [source, target] integer pairs",
            lambda value: isinstance(value, list) and all(map(_is_pair, value)),
            lambda value: [tuple(edge) for edge in value],
            lambda edges: [list(edge) for edge in edges],
        ),
    ),
    **dict.fromkeys(
        ("version", "from_version", "node", "limit", "after_seq"), Codec("an integer", _is_int)
    ),
    **dict.fromkeys(("page_size", "workers"), Codec("an integer >= 1", _is_count)),
    **dict.fromkeys(
        ("deadline_seconds", "timeout"),
        Codec("a number", lambda value: type(value) in (int, float)),
    ),
    **dict.fromkeys(
        ("analyze", "delete_storage", "exist_ok", "force", "keep_occurrences"),
        Codec("a boolean", lambda value: type(value) is bool),
    ),
    "query": Codec("DSL text or a query object", _is_query, _query_from_wire, _query_to_wire),
    "queries": Codec(
        "a list of {name, query} objects", _is_batch, _batch_from_wire, _batch_to_wire
    ),
    "budget": Codec(
        "an object of integer (seconds: number) or null limits",
        _is_budget,
        Budget.from_wire,
        Budget.to_wire,
    ),
    "delta": Codec(
        "a delta object",
        lambda value: isinstance(value, dict),
        GraphDelta.from_dict,
        GraphDelta.to_dict,
    ),
    "trace": Codec(
        "a trace id or a trace context object",
        lambda value: isinstance(value, (str, dict)),
        TraceContext.from_wire,
        _trace_to_wire,
    ),
}


def encode_request(op: str, **fields) -> Dict[str, object]:
    """A request frame for ``op`` (the caller adds the ``id``): every
    non-``None`` field through its :data:`FIELDS` codec.

    A field ``op`` does not declare raises :class:`TypeError` before any
    frame exists — except ``graph``, which any frame may carry (a
    node-scoped op's reply bytes then count against that tenant).
    """
    declared = OPS[op].fields
    frame: Dict[str, object] = {"op": op}
    for field, value in fields.items():
        if field not in declared and field != "graph":
            raise TypeError(f"{op} takes no {field!r} option")
        if value is not None:
            frame[field] = FIELDS[field].encode(value)
    return frame


def decode_request(op: str, frame: Mapping) -> Dict[str, object]:
    """The typed arguments of one request: each field ``op`` declares that
    the frame carries (``null`` counts as absent), through its codec.

    A missing required field, a mistyped one, or an object field whose
    nested values are mistyped raises
    :class:`~repro.exceptions.ProtocolError` naming the op and the field;
    fields the op does not declare are ignored.
    """
    flags = OPS[op]
    args: Dict[str, object] = {}
    for field in flags.fields:
        value = frame.get(field)
        if value is None:
            if field in flags.required:
                raise ProtocolError(f"{op} needs a {field!r} field")
            continue
        codec = FIELDS[field]
        if not codec.accepts(value):
            raise ProtocolError(
                f"{op} field {field!r} must be {codec.expected}, got {value!r:.40}"
            )
        try:
            args[field] = codec.decode(value)
        except (TypeError, ValueError, KeyError) as exc:
            raise ProtocolError(f"{op} field {field!r} is malformed: {exc}") from exc
    return args


# ---------------------------------------------------------------------- #
# framing
# ---------------------------------------------------------------------- #

# The codec itself lives in :mod:`repro.framing` (shared with the
# write-ahead log, which journals one frame per delta in this exact
# format); this module re-exports it and adds the socket readers.


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
