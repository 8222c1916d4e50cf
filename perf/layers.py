"""Per-layer metrics: from one traced pass's spans and counts to named numbers.

A layer is a ``repro`` module.  ``LAYER_METRICS`` is the whole list — name,
unit, direction, and how the value is derived from a :class:`PassView` — and
``BENCHMARK.json``'s ``per_layer`` section mirrors its names and units.  The
README says which end-to-end metric each one should move, on which workload.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from perf import trace

if TYPE_CHECKING:  # keeps perf.compare importable without the program on the path
    from perf.workloads import Repetition


@dataclass
class PassView:
    """What one traced repetition exposes to the metric derivations."""

    #: Innermost-span self time per span name inside the op windows, and the
    #: same split by op kind (query / stream / apply / checkpoint).
    self_s: Dict[str, float]
    self_by_kind: Dict[str, Dict[str, float]]
    #: Calls / summed duration per span name inside the op windows.
    calls: Dict[str, int]
    duration: Dict[str, float]
    #: Summed duration per span name during set-up / during recovery.
    setup: Dict[str, float]
    recovery: Dict[str, float]
    #: Hook counts emitted inside the op windows, summed per key.
    events: Dict[str, float]
    #: Registry deltas and store/WAL stats read after the pass.
    counts: Dict[str, float]
    #: Rows delivered by read ops; total op wall clock.
    rows: int
    op_wall_s: float
    missing: Sequence[str] = field(default_factory=tuple)


def view_of(repetition: Repetition, spans, events, missing) -> PassView:
    """Digest one traced repetition."""
    windows = [(s.start, s.end) for s in repetition.samples]
    calls, duration = trace.totals_by_name(spans, windows)
    _, setup = trace.totals_by_name(spans, [repetition.setup_window])
    recovery: Dict[str, float] = {}
    if repetition.recover_window is not None:
        _, recovery = trace.totals_by_name(spans, [repetition.recover_window])
    summed: Dict[str, float] = {}
    starts = [w[0] for w in windows]
    for key, value, at in events:
        # A hook fires right after its span closes, so an event belongs to
        # the op whose window holds it (set-up and teardown events drop out).
        if trace.window_of(windows, starts, at) >= 0:
            summed[key] = summed.get(key, 0.0) + value
    self_by_kind = {
        kind: trace.self_times(
            spans, [(s.start, s.end) for s in repetition.samples if s.kind == kind]
        )
        for kind in sorted({s.kind for s in repetition.samples})
    }
    self_s: Dict[str, float] = {}
    for per_kind in self_by_kind.values():
        for name, seconds in per_kind.items():
            self_s[name] = self_s.get(name, 0.0) + seconds
    return PassView(
        self_s=self_s,
        self_by_kind=self_by_kind,
        calls=calls,
        duration=duration,
        setup=setup,
        recovery=recovery,
        events=summed,
        counts=repetition.counts,
        rows=sum(s.rows for s in repetition.samples if s.kind in ("query", "stream")),
        op_wall_s=sum(s.seconds for s in repetition.samples),
        missing=tuple(missing),
    )


def _self(*names: str) -> Callable[[PassView], Optional[float]]:
    def value(view: PassView) -> Optional[float]:
        if any(name in view.missing for name in names):
            return None
        return sum(view.self_s.get(name, 0.0) for name in names)

    return value


def _of(table: str, *names: str) -> Callable[[PassView], Optional[float]]:
    """Sum of ``names`` in one of the view's tables; span tables (keyed by span
    name) read null when a span's patch point is gone."""
    by_span = table in ("calls", "duration", "setup", "recovery")

    def value(view: PassView) -> Optional[float]:
        if by_span and any(name in view.missing for name in names):
            return None
        return float(sum(getattr(view, table).get(name, 0) for name in names))

    return value


def _ratio(top: Callable, bottom: Callable) -> Callable[[PassView], Optional[float]]:
    def value(view: PassView) -> Optional[float]:
        numerator, denominator = top(view), bottom(view)
        if numerator is None or denominator is None:
            return None
        return numerator / denominator if denominator else 0.0

    return value


def _pruned_frac(view: PassView) -> float:
    """Candidates double simulation removed, as a share of the match sets."""
    match_sets = view.events.get("simulation.match_set", 0.0)
    return 1.0 - view.events.get("simulation.kept", 0.0) / match_sets if match_sets else 0.0


_RIG_HITS = _of("counts", "session_cache_hits_total/rig")
_RIG_LOOKUPS = _of("counts", "session_cache_hits_total/rig", "session_cache_misses_total/rig")
_SERVER = ("server.dispatch", "server.send", "server.pump")
_CLIENT = ("client.query", "client.stream", "client.apply", "client.checkpoint", "client.send")

#: ``(name, unit, better, derivation)``.  Times are seconds per pass (median
#: over the run's traced passes); counts are per pass and repeat exactly.
LAYER_METRICS: List[Tuple[str, str, str, Callable[[PassView], Optional[float]]]] = [
    ("graph.build_s", "s", "lower", _of("setup", "graph.build")),
    ("reachability.build_s", "s", "lower", _of("setup", "reachability.build")),
    ("query.parse_self_s", "s", "lower", _self("query.parse")),
    ("query.reduce_self_s", "s", "lower", _self("query.reduce")),
    ("context.bfs_calls", "count", "lower", _of("calls", "context.bfs")),
    ("context.bfs_self_s", "s", "lower", _self("context.bfs")),
    ("reachability.probe_calls", "count", "lower", _of("calls", "reachability.probe")),
    ("reachability.probe_self_s", "s", "lower", _self("reachability.probe")),
    ("simulation.prefilter_self_s", "s", "lower", _self("simulation.prefilter")),
    ("simulation.fbsim_self_s", "s", "lower", _self("simulation.fbsim")),
    ("simulation.passes", "count", "lower", _of("events", "simulation.passes")),
    ("simulation.pruned_frac", "ratio", "higher", _pruned_frac),
    ("rig.build_self_s", "s", "lower", _self("rig.build")),
    ("rig.builds", "count", "lower", _of("events", "rig.builds")),
    ("rig.size_nodes", "count", "lower", _of("events", "rig.size_nodes")),
    ("rig.size_edges", "count", "lower", _of("events", "rig.size_edges")),
    ("rig.empty_frac", "ratio", "lower",
     _ratio(_of("events", "rig.empty"), _of("events", "rig.builds"))),
    ("ordering.self_s", "s", "lower", _self("ordering")),
    ("mjoin.self_s", "s", "lower", _self("mjoin")),
    ("mjoin.rows", "count", "higher", lambda view: float(view.rows)),
    ("mjoin.candidates", "count", "lower", _of("events", "mjoin.candidates")),
    ("mjoin.intersections", "count", "lower", _of("events", "mjoin.intersections")),
    ("mjoin.rows_per_candidate", "ratio", "higher",
     _ratio(lambda view: float(view.rows), _of("events", "mjoin.candidates"))),
    ("gm.self_s", "s", "lower", _self("gm")),
    ("session.cache_hits", "count", "higher", _of("counts", "session_cache_hits_total")),
    ("session.cache_misses", "count", "lower", _of("counts", "session_cache_misses_total")),
    ("session.cache_invalidations", "count", "lower",
     _of("counts", "session_cache_invalidations_total")),
    ("session.cache_patches", "count", "higher", _of("counts", "session_cache_patches_total")),
    ("session.rig_hit_frac", "ratio", "higher", _ratio(_RIG_HITS, _RIG_LOOKUPS)),
    ("session.query_self_s", "s", "lower", _self("session.query", "session.stream")),
    ("session.apply_self_s", "s", "lower", _self("session.apply", "session.fork")),
    ("dynamic.patch_self_s", "s", "lower", _self("dynamic.patch", "dynamic.overlay")),
    ("dynamic.rebuilds", "count", "lower", _of("events", "dynamic.rebuilds")),
    ("graph.rebuild_self_s", "s", "lower", _self("graph.build")),
    ("store.pin_self_s", "s", "lower", _self("store.pin")),
    ("store.apply_self_s", "s", "lower", _self("store.apply")),
    ("store.versions_retained_max", "count", "lower",
     _of("counts", "store_versions_retained_max")),
    ("service.self_s", "s", "lower",
     _self("service.submit", "service.stream", "service.execute")),
    ("service.queue_wait_s", "s", "lower", _self("service.wait")),
    ("service.busy_s", "s", "lower", _of("duration", "service.execute")),
    ("service.completed", "count", "higher", _of("counts", "service_completed_total")),
    ("service.shed", "count", "lower", _of("counts", "service_shed_total")),
    ("server.dispatch_self_s", "s", "lower", _self(*_SERVER)),
    ("server.requests", "count", "lower", _of("counts", "server_requests_total")),
    ("server.stream_pages", "count", "lower", _of("events", "server.stream_pages")),
    ("server.bytes_sent", "B", "lower", _of("counts", "server_bytes_sent_total")),
    ("framing.encode_self_s", "s", "lower", _self("framing.encode")),
    ("framing.decode_self_s", "s", "lower", _self("framing.decode")),
    ("framing.frames", "count", "lower", _of("events", "framing.frames")),
    ("framing.bytes", "B", "lower", _of("events", "framing.bytes")),
    ("framing.bytes_per_row", "B", "lower",
     _ratio(_of("counts", "server_bytes_sent_total"), lambda view: float(view.rows))),
    ("client.self_s", "s", "lower", _self(*_CLIENT)),
    ("client.wait_self_s", "s", "lower", _self("client.wait")),
    ("client.round_trips", "count", "lower", _of("calls", "client.send")),
    ("client.post_stream_stall_s", "s", "lower", _of("counts", "post_stream_stall_s")),
    ("wal.append_self_s", "s", "lower", _self("wal.journal", "wal.append")),
    ("wal.fsync_s", "s", "lower", _of("duration", "wal.fsync")),
    ("wal.fsyncs", "count", "lower", _of("calls", "wal.fsync")),
    ("wal.bytes", "B", "lower", _of("counts", "wal_journal_bytes_total")),
    ("wal.checkpoint_s", "s", "lower", _of("duration", "wal.checkpoint")),
    ("wal.replay_s", "s", "lower", _of("recovery", "wal.recover")),
    ("trace.coverage_frac", "ratio", "higher",
     lambda view: 1.0 - view.self_s.get(trace.UNCOVERED, 0.0) / view.op_wall_s),
]

#: Metrics that are counts of the program's work: with a fixed seed they must
#: repeat exactly from run to run (``--aa`` asserts it).  Wire byte counts
#: are not among them — replies carry timings, whose digits vary — but the
#: WAL's are: a journal frame holds nothing but the delta.
EXACT = tuple(name for name, unit, _, _ in LAYER_METRICS if unit == "count") + (
    "wal.bytes", "simulation.pruned_frac", "rig.empty_frac", "mjoin.rows_per_candidate",
    "session.rig_hit_frac",
)


def layer_values(views: Sequence[PassView]) -> Dict[str, Optional[float]]:
    """Per-layer metrics of a run: exact counts from the last traced pass,
    times as the median over the traced passes."""
    values: Dict[str, Optional[float]] = {}
    for name, unit, _, derive in LAYER_METRICS:
        per_pass = [derive(view) for view in views]
        if any(value is None for value in per_pass):
            values[name] = None
        elif unit == "s":
            values[name] = statistics.median(per_pass)
        else:
            values[name] = per_pass[-1]
    return values


def time_shares(views: Sequence[PassView]) -> Dict[str, Dict[str, float]]:
    """Per op kind, each span name's share of that kind's op time (median pass).

    This is the table the README states at the seed commit: where an op's
    wall clock goes, layer by layer, summing to one.
    """
    shares: Dict[str, Dict[str, float]] = {}
    for kind in sorted({kind for view in views for kind in view.self_by_kind}):
        per_pass = []
        for view in views:
            seconds = view.self_by_kind.get(kind, {})
            total = sum(seconds.values())
            per_pass.append({name: value / total for name, value in seconds.items()} if total else {})
        names = sorted({name for entry in per_pass for name in entry})
        shares[kind] = {
            name: statistics.median(entry.get(name, 0.0) for entry in per_pass) for name in names
        }
    return shares
