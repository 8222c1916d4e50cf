"""Traces: contexts, spans, recorders, assembly.

:class:`Span` is the one span record: a traced query's stages (its
``query`` root with ``queue_wait``, ``pin``, ``plan``, ... children, see
:meth:`repro.service.QueryService.submit`) and a write's fold, journal and
publish are all spans, linked by ids.  A :class:`TraceContext` —
``(trace_id, parent span_id, sampling bit)`` — rides every wire frame,
every replication frame and (via a thread-local) every fold, so one trace
id names a tree of spans scattered across the client, the primary and
every replica.  Each node keeps its part of the tree in a bounded
:class:`SpanRecorder` (one per :class:`~repro.obs.Telemetry`, queryable
over the wire with the ``trace`` op); :func:`assemble_trace` stitches
the parts back into one tree.

Wire form
---------
``TraceContext.to_wire()`` is ``{"id": ..., "span": ..., "sampled":
...}``; :meth:`TraceContext.from_wire` also accepts a **plain string**
trace id in the frame's ``trace`` field (what ``GraphClient.query(q,
trace_id="...")`` sends): a sampled context with no parent span.

Propagation inside a process
----------------------------
The server activates the decoded context on the handling thread
(:func:`activate`); anything downstream — the store's fold, the WAL
journal, the replication hub's fan-out — opens child spans with
:func:`trace_span` or reads :func:`current` to stamp outgoing frames.
Both are no-ops (one thread-local read) when nothing is active, so the
untraced hot path stays untouched.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional

from repro.obs.events import tail

__all__ = [
    "Span",
    "SpanRecorder",
    "TraceContext",
    "activate",
    "assemble_trace",
    "current",
    "new_span_id",
    "new_trace_id",
    "trace_span",
]


def new_trace_id() -> str:
    """A fresh 16-hex-character trace id."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh 16-hex-character span id."""
    return uuid.uuid4().hex[:16]


class TraceContext:
    """What one hop tells the next about the trace it belongs to.

    ``trace_id`` names the whole distributed trace, ``span_id`` is the
    *parent* span the receiver should hang its work under (``None`` at
    the root), and ``sampled`` tells downstream hops whether to record
    at all — an unsampled context still correlates error payloads but
    costs no span storage.
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(
        self,
        trace_id: str,
        span_id: Optional[str] = None,
        sampled: bool = True,
    ) -> None:
        self.trace_id = str(trace_id)
        self.span_id = str(span_id) if span_id is not None else None
        self.sampled = bool(sampled)

    @classmethod
    def new(cls) -> "TraceContext":
        """A fresh sampled root context (no parent span yet)."""
        return cls(new_trace_id(), None, True)

    def child(self, span_id: str) -> "TraceContext":
        """The context a child hop receives: same trace, new parent span."""
        return TraceContext(self.trace_id, span_id, self.sampled)

    def to_wire(self) -> Dict[str, object]:
        """The frame field: ``{"id", "span", "sampled"}``."""
        return {"id": self.trace_id, "span": self.span_id, "sampled": self.sampled}

    @classmethod
    def from_wire(cls, value) -> Optional["TraceContext"]:
        """Decode a frame's ``trace`` field.

        Accepts the structured dict, the legacy plain-string trace id
        (implicitly sampled, no parent span), or ``None``; anything else
        is ignored rather than failing the request.
        """
        if value is None:
            return None
        if isinstance(value, str):
            return cls(value, None, True) if value else None
        if isinstance(value, dict):
            trace_id = value.get("id") or value.get("trace_id")
            if not trace_id:
                return None
            return cls(
                str(trace_id),
                value.get("span"),
                bool(value.get("sampled", True)),
            )
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceContext(id={self.trace_id}, span={self.span_id}, "
            f"sampled={self.sampled})"
        )


class Span:
    """One timed unit of work on one node, linked by ids into a tree."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "node",
        "started_at",
        "_start",
        "seconds",
        "meta",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: Optional[str] = None,
        node: Optional[str] = None,
        span_id: Optional[str] = None,
        **meta,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id or new_span_id()
        self.parent_id = parent_id
        self.node = node
        self.started_at = time.time()
        self._start = time.perf_counter()
        self.seconds: Optional[float] = None
        self.meta: Dict[str, object] = dict(meta)

    def finish(self, seconds: Optional[float] = None) -> "Span":
        """Stamp the duration (idempotent: the first finish wins)."""
        if self.seconds is None:
            self.seconds = (
                max(0.0, float(seconds))
                if seconds is not None
                else time.perf_counter() - self._start
            )
        return self

    def to_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "node": self.node,
            "started_at": self.started_at,
            "seconds": (
                self.seconds
                if self.seconds is not None
                else time.perf_counter() - self._start
            ),
        }
        if self.meta:
            document["meta"] = dict(self.meta)
        return document

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id}, "
            f"parent={self.parent_id}, node={self.node})"
        )


class SpanRecorder:
    """A node's bounded ring of finished span documents.

    One per :class:`~repro.obs.Telemetry` bundle; the ``trace`` wire op
    reads it, cross-node assembly (:func:`assemble_trace`) merges several
    of them.  Thread-safe; overflow drops the oldest spans.
    """

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = max(1, int(capacity))
        self._lock = threading.Lock()
        self._spans: List[Dict[str, object]] = []
        self.recorded = 0

    def record(self, span) -> None:
        """Append one finished :class:`Span` (or prepared span dict)."""
        document = span.to_dict() if isinstance(span, Span) else dict(span)
        with self._lock:
            self._spans.append(document)
            self.recorded += 1
            if len(self._spans) > self.capacity:
                del self._spans[: len(self._spans) - self.capacity]

    def recent(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """The newest spans, oldest first (copies: the ring stays intact)."""
        with self._lock:
            return [dict(span) for span in tail(self._spans, limit)]

    def for_trace(self, trace_id: str) -> List[Dict[str, object]]:
        """Every retained span of one trace, oldest first."""
        with self._lock:
            return [
                dict(span) for span in self._spans if span.get("trace_id") == trace_id
            ]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpanRecorder({len(self)}/{self.capacity} spans)"


class _ActiveTrace:
    """The thread's live trace scope: context + where its spans land."""

    __slots__ = ("context", "recorder", "node")

    def __init__(
        self,
        context: TraceContext,
        recorder: Optional[SpanRecorder],
        node: Optional[str],
    ) -> None:
        self.context = context
        self.recorder = recorder
        self.node = node


_STATE = threading.local()


def current() -> Optional[_ActiveTrace]:
    """The thread's active trace scope, or ``None`` (the common case)."""
    return getattr(_STATE, "active", None)


@contextmanager
def activate(
    context: Optional[TraceContext],
    recorder: Optional[SpanRecorder] = None,
    node: Optional[str] = None,
) -> Iterator[Optional[_ActiveTrace]]:
    """Make ``context`` the thread's active trace for the ``with`` block.

    Everything called inside — including the store's fold, the WAL
    journal and the replication hub's publish listener, which all run on
    the activating thread — can open :func:`trace_span` children and
    stamp outgoing frames from :func:`current`.  ``context=None`` is a
    no-op so call sites need no branching.
    """
    if context is None:
        yield None
        return
    previous = getattr(_STATE, "active", None)
    active = _ActiveTrace(context, recorder, node)
    _STATE.active = active
    try:
        yield active
    finally:
        _STATE.active = previous


@contextmanager
def trace_span(name: str, **meta) -> Iterator[Optional[Span]]:
    """Measure the ``with`` block as one child span of the active context.

    Yields the live :class:`Span` (add metadata via ``span.meta``) or
    ``None`` when no sampled context is active — the disabled cost is a
    single thread-local read.  While the block runs, the active context's
    parent span is swapped to this span, so nested ``trace_span`` calls
    build a proper tree and frames stamped inside carry this span as
    their parent.
    """
    active = current()
    if active is None or not active.context.sampled:
        yield None
        return
    previous = active.context
    span = Span(
        name, previous.trace_id, parent_id=previous.span_id, node=active.node, **meta
    )
    active.context = previous.child(span.span_id)
    try:
        yield span
    finally:
        active.context = previous
        span.finish()
        if active.recorder is not None:
            active.recorder.record(span)


def assemble_trace(
    spans: Iterable[Dict[str, object]], trace_id: Optional[str] = None
) -> Dict[str, object]:
    """Stitch span documents from any number of nodes into one tree.

    Returns ``{"trace_id", "root", "spans", "orphans"}`` where ``root``
    is the parentless span's tree node (``{"span": ..., "children":
    [...], "child_seconds": ...}``) and ``orphans`` are spans whose
    parent is not in the collected set (e.g. a node that was not
    scraped).  Duplicate span ids (the same span fetched from two
    scrapes) are deduplicated, first occurrence wins.
    """
    selected: Dict[str, Dict[str, object]] = {}
    for span in spans:
        if trace_id is not None and span.get("trace_id") != trace_id:
            continue
        ident = span.get("span_id")
        if isinstance(ident, str) and ident not in selected:
            selected[ident] = dict(span)
    if trace_id is None:
        ids = {span.get("trace_id") for span in selected.values()}
        trace_id = next(iter(ids)) if len(ids) == 1 else None

    nodes = {
        ident: {"span": span, "children": [], "child_seconds": 0.0}
        for ident, span in selected.items()
    }
    roots: List[Dict[str, object]] = []
    orphans: List[Dict[str, object]] = []
    for ident, node in sorted(
        nodes.items(), key=lambda item: item[1]["span"].get("started_at", 0.0)
    ):
        parent_id = node["span"].get("parent_id")
        if parent_id is None:
            roots.append(node)
        elif parent_id in nodes:
            parent = nodes[parent_id]
            parent["children"].append(node)
            parent["child_seconds"] += float(node["span"].get("seconds") or 0.0)
        else:
            orphans.append(node)
    return {
        "trace_id": trace_id,
        "root": roots[0] if roots else None,
        "roots": roots,
        "spans": [node["span"] for node in nodes.values()],
        "orphans": orphans,
    }
