"""Per-layer tracing from outside the program: one patch table, spans, self time.

A traced repetition wraps the callables named in ``PATCHES`` — the boundaries
between ``repro``'s modules — so each call records a span ``(name, start,
end)`` into an in-memory list.  Nothing inside the program changes; spans
inside ``gm.py`` / ``mjoin.py`` are a later issue.  Counts come from small
hooks that read the *public* reports flowing through those boundaries
(``RIGBuildReport``, ``ApplyReport``, the ``mjoin_iter`` stats channel).

**Self time.**  The benchmark has one closed-loop caller, so at any instant
one chain of calls is in flight even though it hops threads (caller -> event
loop -> executor -> service worker).  Each instant of an op is attributed to
the *most recently started span still open* — the innermost layer — and an
instant with no patched span open to the driver itself (``uncovered``).  A
layer's self time is therefore its spans' duration minus the time covered by
spans started inside them, on any thread, and the parts sum to the op's wall
clock by construction.  ``wait`` spans (blocking socket reads, ticket waits)
keep whatever nobody else claims: time the op spent in the OS, the scheduler
or a thread hand-off.

A patch point that no longer resolves is skipped with a warning and its
metrics report ``null`` — a traced run never fails because the program moved.
"""

from __future__ import annotations

import bisect
import heapq
import importlib
import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

Span = Tuple[str, float, float]

#: ``(span name, module, attribute path, kind)``; kind is ``call``, ``gen``
#: (generator function: open from first ``next()`` to exhaustion) or ``async``.
#: The module is the one whose *reference* the program calls through, which
#: for ``from x import f`` imports is the importing module.
PATCHES: Sequence[Tuple[str, str, str, str]] = (
    ("graph.build", "repro.graph.digraph", "DataGraph.__init__", "call"),
    ("reachability.build", "repro.simulation.context", "build_reachability_index", "call"),
    ("reachability.probe", "repro.reachability.bfl", "BloomFilterLabeling.reaches", "call"),
    ("context.summaries", "repro.simulation.context", "MatchContext._compute_label_summaries", "call"),
    ("context.bfs", "repro.simulation.context", "MatchContext.forward_reachable_set", "call"),
    ("context.bfs", "repro.simulation.context", "MatchContext.backward_reachable_set", "call"),
    ("query.parse", "repro.server.server", "parse_query", "call"),
    ("query.parse", "repro.api", "parse_query", "call"),
    ("query.reduce", "repro.rig.build", "transitive_reduction", "call"),
    ("simulation.prefilter", "repro.rig.build", "node_prefilter", "call"),
    ("simulation.fbsim", "repro.rig.build", "fbsim", "call"),
    ("rig.build", "repro.matching.gm", "build_rig", "call"),
    ("ordering", "repro.matching.gm", "search_order", "call"),
    ("mjoin", "repro.matching.gm", "mjoin_iter", "gen"),
    ("gm", "repro.matching.gm", "GraphMatcher.iter_matches", "gen"),
    ("session.query", "repro.session.session", "QuerySession.query", "call"),
    ("session.stream", "repro.session.session", "QuerySession.stream", "call"),
    ("session.fork", "repro.session.session", "QuerySession.fork", "call"),
    ("session.apply", "repro.session.session", "QuerySession.apply", "call"),
    ("dynamic.patch", "repro.reachability.bfl", "BloomFilterLabeling.apply_delta", "call"),
    ("dynamic.overlay", "repro.dynamic.overlay", "MutableDataGraph.delta_since_base", "call"),
    ("dynamic.overlay", "repro.dynamic.overlay", "MutableDataGraph.materialize", "call"),
    ("store.pin", "repro.store.versioned", "VersionedGraphStore.pin", "call"),
    ("store.apply", "repro.store.versioned", "VersionedGraphStore.apply", "call"),
    ("service.submit", "repro.service.service", "QueryService.submit", "call"),
    ("service.stream", "repro.service.service", "QueryService.stream", "call"),
    ("service.execute", "repro.service.service", "QueryService._execute", "call"),
    ("service.wait", "repro.service.service", "QueryTicket.result", "call"),
    ("server.dispatch", "repro.server.server", "_Connection._dispatch", "async"),
    ("server.send", "repro.server.server", "_Connection._send", "async"),
    ("server.pump", "repro.server.server", "_ServerStream.pump", "call"),
    ("framing.encode", "repro.server.server", "encode_frame", "call"),
    ("framing.encode", "repro.client.client", "encode_frame", "call"),
    ("framing.encode", "repro.wal.log", "encode_frame", "call"),
    ("framing.encode", "repro.server.server", "encode_page", "call"),
    ("framing.decode", "repro.server.protocol", "decode_body", "call"),
    ("framing.decode", "repro.client.client", "decode_page", "call"),
    ("client.query", "repro.client.client", "GraphClient.query", "call"),
    ("client.stream", "repro.client.client", "GraphClient.stream", "call"),
    ("client.stream", "repro.client.client", "RemoteStream._next_page", "call"),
    ("client.apply", "repro.client.client", "GraphClient.apply", "call"),
    ("client.checkpoint", "repro.client.client", "GraphClient.checkpoint", "call"),
    ("client.send", "repro.client.client", "GraphClient._send", "call"),
    ("client.wait", "repro.client.client", "GraphClient._read_frame", "call"),
    ("wal.journal", "repro.wal.durability", "WalDurability.journal", "call"),
    ("wal.append", "repro.wal.log", "DeltaLog.append", "call"),
    ("wal.fsync", "repro.wal.log", "os.fsync", "call"),
    ("wal.checkpoint", "repro.wal.durability", "WalDurability.checkpoint", "call"),
    ("wal.recover", "repro.wal.durability", "WalDurability.recover", "call"),
)


# ---------------------------------------------------------------------- #
# count hooks: (emit, args, kwargs, result) -> None, run after the span closed
# ---------------------------------------------------------------------- #


def _after_build_rig(emit, args, kwargs, report) -> None:
    context, rig = args[0], report.rig
    emit("rig.builds", 1)
    emit("rig.size_nodes", rig.num_rig_nodes())
    emit("rig.size_edges", rig.num_rig_edges())
    emit("rig.empty", int(rig.is_empty()))
    emit("simulation.passes", report.simulation.passes if report.simulation else 0)
    emit("simulation.kept", report.candidates_after_selection)
    emit(
        "simulation.match_set",
        sum(len(context.match_set(report.query, node)) for node in report.query.nodes()),
    )


def _after_session_apply(emit, args, kwargs, report) -> None:
    # "rig" and "matcher" are stranded by every version bump; the others
    # are indexes that a patch could have kept and that now rebuild lazily.
    emit("dynamic.rebuilds", len(set(report.invalidated) - {"rig", "matcher"}))


def _after_encode_frame(emit, args, kwargs, data) -> None:
    emit("framing.frames", 1)
    emit("framing.bytes", len(data))


def _after_encode_page(emit, args, kwargs, page) -> None:
    emit("server.stream_pages", 1)


#: Attribute path -> hook, for the rows of ``PATCHES`` that carry counts.
HOOKS: Dict[str, Callable] = {
    "build_rig": _after_build_rig,
    "QuerySession.apply": _after_session_apply,
    "encode_frame": _after_encode_frame,
    "encode_page": _after_encode_page,
}


class Tracer:
    """Installs the patch table, collects spans and hook counts."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Hook counts as ``(key, value, time)``.
        self.events: List[Tuple[str, float, float]] = []
        #: Span names whose patch point did not resolve (reported as null).
        self.missing: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------- #

    def _wrap(self, name: str, attribute: str, kind: str, original):
        spans, clock = self.spans, time.perf_counter
        events = self.events

        def emit(key: str, value: float) -> None:
            events.append((key, value, clock()))

        hook = HOOKS.get(attribute)

        if kind == "gen":
            mjoin = name == "mjoin"

            def traced_gen(*args, **kwargs):
                if mjoin and kwargs.get("stats") is None:
                    kwargs["stats"] = {}  # the enumerator's own work counters
                start = clock()
                try:
                    yield from original(*args, **kwargs)
                finally:
                    spans.append((name, start, clock()))
                    if mjoin:
                        emit("mjoin.candidates", kwargs["stats"].get("candidates", 0))
                        emit("mjoin.intersections", kwargs["stats"].get("intersections", 0))

            return traced_gen
        if kind == "async":

            async def traced_async(*args, **kwargs):
                start = clock()
                try:
                    return await original(*args, **kwargs)
                finally:
                    spans.append((name, start, clock()))

            return traced_async

        def traced(*args, **kwargs):
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans.append((name, start, clock()))
            if hook is not None:
                hook(emit, args, kwargs, result)
            return result

        return traced

    # -- install / uninstall -------------------------------------------- #

    def install(self) -> None:
        """Patch every resolvable row of ``PATCHES`` (idempotent per install)."""
        self.missing = []
        for name, module_name, path, kind in PATCHES:
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            except (ImportError, AttributeError, KeyError):
                print(f"perf.trace: patch point {module_name}:{path} is gone; "
                      f"{name} will report null", file=sys.stderr)
                self.missing.append(name)
                continue
            function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrapped = self._wrap(name, path, kind, function)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            self._undo.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attribute, raw = self._undo.pop()
            setattr(owner, attribute, raw)

    def take(self) -> Tuple[List[Span], List[Tuple[str, float, float]]]:
        """Hand over (and forget) everything recorded so far."""
        spans, events = self.spans[:], self.events[:]
        del self.spans[:], self.events[:]
        return spans, events


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #

UNCOVERED = "uncovered"


def self_times(spans: Iterable[Span], windows: Sequence[Tuple[float, float]]) -> Dict[str, float]:
    """Attribute every instant inside ``windows`` to the innermost open span.

    ``windows`` are disjoint, sorted ``(start, end)`` intervals (the ops of a
    pass); time outside them is ignored, time inside them with no span open
    goes to ``UNCOVERED``.  Innermost = latest start among the open spans.
    """
    totals: Dict[str, float] = {}
    ordered = sorted(spans, key=lambda span: span[1])
    boundaries = sorted(
        {t for span in ordered for t in span[1:]} | {t for window in windows for t in window}
    )
    heap: List[Tuple[float, float, str]] = []  # (-start, end, name)
    next_span = 0
    window_index = 0
    for left, right in zip(boundaries, boundaries[1:]):
        while next_span < len(ordered) and ordered[next_span][1] <= left:
            name, start, end = ordered[next_span]
            heapq.heappush(heap, (-start, end, name))
            next_span += 1
        while window_index < len(windows) and windows[window_index][1] <= left:
            window_index += 1
        if window_index == len(windows):
            break
        if windows[window_index][0] > left:
            continue  # between ops
        # The heap top is the latest-started span seen so far; once the ended
        # ones are popped off it, the top is open over [left, right).  Ended
        # spans deeper down are harmless and go when they surface.
        while heap and heap[0][1] <= left:
            heapq.heappop(heap)
        name = heap[0][2] if heap else UNCOVERED
        totals[name] = totals.get(name, 0.0) + (right - left)
    return totals


def window_of(windows: Sequence[Tuple[float, float]], starts: Sequence[float], at: float) -> int:
    """Index of the window containing time ``at`` (``starts`` = their starts), or -1."""
    index = bisect.bisect_right(starts, at) - 1
    return index if index >= 0 and at <= windows[index][1] else -1


def totals_by_name(spans: Iterable[Span], windows: Sequence[Tuple[float, float]]):
    """``(calls, summed duration)`` per span name, for spans starting inside ``windows``."""
    calls: Dict[str, int] = {}
    seconds: Dict[str, float] = {}
    starts = [w[0] for w in windows]
    for name, start, end in spans:
        if window_of(windows, starts, start) < 0:
            continue
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + (end - start)
    return calls, seconds


def write_jsonl(path: str, spans: Iterable[Span], ops: Sequence[Tuple[int, str, float, float]]) -> None:
    """Dump one traced pass: op roots first, then every span, one JSON per line.

    Spans carry the op they fall in and the span that caused them (the
    innermost span open when they started), so the file is a span tree.
    """
    windows = [(start, end) for _, _, start, end in ops]
    starts = [window[0] for window in windows]
    open_stack: List[Tuple[float, int]] = []  # (end, id) of spans seen so far
    with open(path, "w", encoding="utf-8") as handle:
        for position, kind, start, end in ops:
            handle.write(json.dumps({"id": f"op{position}", "name": f"op.{kind}", "start": start,
                                     "end": end, "parent": None, "op": position}) + "\n")
        for ident, (name, start, end) in enumerate(sorted(spans, key=lambda span: span[1])):
            index = window_of(windows, starts, start)
            op = ops[index][0] if index >= 0 else None
            while open_stack and open_stack[-1][0] <= start:
                open_stack.pop()
            parent = open_stack[-1][1] if open_stack else (f"op{op}" if op is not None else None)
            open_stack.append((end, ident))
            handle.write(json.dumps({"id": ident, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
