"""Query tracing: sampled span trees across client, server, service, engine.

A :class:`Trace` answers "where did this query's time go?".  The serving
stack records one child span per pipeline stage under a single root:

    queue_wait -> pin -> plan -> index_build -> first_match
               -> stream_drain -> stream_flush -> wire_encode

The span taxonomy is documented in ``docs/architecture.md``; the service
layer synthesises the engine-side stages from the phase timings every
:class:`~repro.matching.result.MatchReport` already measures, so the engine
hot loops are never touched by tracing.

Sampling is decided once per query by the :class:`Tracer`: unsampled
queries get the shared :data:`NULL_TRACE` singleton whose every method is a
no-op, so the disabled cost is one attribute call.  A caller-supplied trace
id (the ``trace`` field of a wire request, ultimately a ``GraphClient``
argument) **forces** sampling — "trace this specific query" always works no
matter the server's sample rate.
"""

from __future__ import annotations

import random
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


def new_trace_id() -> str:
    """A fresh 16-hex-character trace id."""
    return uuid.uuid4().hex[:16]


class Trace:
    """One sampled query: a root span plus one level of stage spans.

    Thread-safe: the server's event loop and a service worker may both add
    spans to the same trace.  :meth:`finish` stamps the root duration and
    may be called again later to *extend* it (the server finishes the trace
    a second time when it encodes the reply or a stream's end frame, so the
    root covers wire encoding too); :meth:`to_dict` renders the tree at
    whatever moment it is called.
    """

    def __init__(self, name: str, trace_id: Optional[str] = None) -> None:
        self.name = name
        self.trace_id = trace_id or new_trace_id()
        self.started_at = time.time()
        self._start = time.perf_counter()
        self._end: Optional[float] = None
        self._lock = threading.Lock()
        self._spans: List[Dict[str, object]] = []
        self._meta: Dict[str, object] = {}

    def __bool__(self) -> bool:
        return True

    def add_span(self, name: str, seconds: float, **meta) -> None:
        """Record one stage span of ``seconds`` duration."""
        entry: Dict[str, object] = {"name": name, "seconds": max(0.0, float(seconds))}
        if meta:
            entry.update(meta)
        with self._lock:
            self._spans.append(entry)

    @contextmanager
    def span(self, name: str, **meta) -> Iterator["Trace"]:
        """Measure a ``with`` block as one stage span."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add_span(name, time.perf_counter() - start, **meta)

    def annotate(self, **meta) -> None:
        """Attach key/value metadata to the root span."""
        with self._lock:
            self._meta.update(meta)

    def finish(self) -> None:
        """Stamp (or extend) the root duration to now."""
        with self._lock:
            self._end = time.perf_counter()

    @property
    def seconds(self) -> float:
        """Root duration: start to finish (or to now while still live)."""
        with self._lock:
            end = self._end
        return (end if end is not None else time.perf_counter()) - self._start

    def span_seconds(self) -> float:
        """Sum of the recorded stage spans' durations."""
        with self._lock:
            return sum(entry["seconds"] for entry in self._spans)  # type: ignore[misc]

    def to_dict(self) -> Dict[str, object]:
        """The JSON-able span tree (what travels in ``report.extra['trace']``)."""
        with self._lock:
            document: Dict[str, object] = {
                "trace_id": self.trace_id,
                "name": self.name,
                "started_at": self.started_at,
                "seconds": (
                    (self._end if self._end is not None else time.perf_counter())
                    - self._start
                ),
                "spans": [dict(entry) for entry in self._spans],
            }
            if self._meta:
                document["meta"] = dict(self._meta)
        return document

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace({self.name!r}, id={self.trace_id}, {len(self._spans)} spans)"


class _NullTrace:
    """The unsampled query's trace: every operation is a no-op."""

    __slots__ = ()

    trace_id = None
    name = None
    started_at = 0.0
    seconds = 0.0

    def __bool__(self) -> bool:
        return False

    def add_span(self, name: str, seconds: float, **meta) -> None:
        pass

    @contextmanager
    def span(self, name: str, **meta) -> Iterator["_NullTrace"]:
        yield self

    def annotate(self, **meta) -> None:
        pass

    def finish(self) -> None:
        pass

    def span_seconds(self) -> float:
        return 0.0

    def to_dict(self) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTrace()"


#: The shared no-op trace handed to every unsampled query.
NULL_TRACE = _NullTrace()


class Tracer:
    """Decides, once per query, whether to produce a real :class:`Trace`.

    ``sample_rate`` is the probability an *unforced* query is traced
    (``0.0`` never, ``1.0`` always).  A caller-supplied ``trace_id`` always
    produces a real trace regardless of the rate.
    """

    def __init__(self, sample_rate: float = 0.0, seed: Optional[int] = None) -> None:
        self.sample_rate = max(0.0, min(1.0, float(sample_rate)))
        self._random = random.Random(seed)

    def trace(self, name: str, trace_id: Optional[str] = None):
        """A :class:`Trace` (sampled or forced) or :data:`NULL_TRACE`."""
        if trace_id is not None:
            return Trace(name, str(trace_id))
        rate = self.sample_rate
        if rate <= 0.0:
            return NULL_TRACE
        if rate >= 1.0 or self._random.random() < rate:
            return Trace(name)
        return NULL_TRACE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(sample_rate={self.sample_rate})"
