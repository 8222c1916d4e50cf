"""Metric definitions: from timed samples to named numbers.

``BENCHMARK.json`` at the repository root is the declared contract — metric
names, units, directions and regression bounds.  This module reads it (so the
declaration exists once) and computes every declared end-to-end metric from a
run's repetitions, plus the workload-specific ones (write path, recovery,
p99) that cannot be end-to-end metrics under the contract because they do not
exist on every workload; those are listed in ``WORKLOAD_SPECIFIC`` with their
own bounds and are reported alongside the per-layer metrics.

Rules (choosing-metrics guide): a timing is reported with its sample count; a
percentile only if at least ten samples lie beyond it; failures count against
the number attempted.  Percentiles and rates are taken over *ops*, each op's
time being the minimum of its repetitions (see :class:`Op`).
"""

from __future__ import annotations

import json
import os
import resource
import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # keeps perf.compare importable without the program on the path
    from perf.workloads import Repetition, Sample

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")

#: Metrics that exist on some workloads only: name -> (unit, better, bound).
#: Bounds are the A/A tolerance ``--aa`` and ``perf.compare`` apply to them.
WORKLOAD_SPECIFIC = {
    "query_p99_ms": ("ms", "lower", 0.25),
    "writes_per_s": ("1/s", "higher", 0.25),
    "write_p50_ms": ("ms", "lower", 0.25),
    "write_p95_ms": ("ms", "lower", 0.25),
    "recover_s": ("s", "lower", 0.25),
    "wal_bytes_per_edge": ("B", "lower", 0.0),
}


def load_spec() -> Dict[str, object]:
    """The parsed ``BENCHMARK.json``."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: Sequence[float], fraction: float, timings: int = 1) -> Optional[float]:
    """Linear-interpolated percentile, or ``None`` with fewer than 10 timings
    beyond it (``timings`` per value: each op is timed once per repetition)."""
    if not values or (fraction > 0.5 and len(values) * timings * (1.0 - fraction) < 10):
        return None
    ordered = sorted(values)
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ms(value: Optional[float]) -> Optional[float]:
    return None if value is None else value * 1000.0


@dataclass
class Op:
    """One schedule position, measured once per repetition.

    Every repetition does identical work (the counts repeat exactly), so
    the repetitions of an op differ only by what the machine added — steal
    time, scheduling, a noisy neighbour — and that is never negative.  An
    op's time is therefore the *minimum* over its repetitions; work the
    program itself causes (a GC pass, a delayed ACK) is in every repetition
    and stays in.  Set-up and recovery, measured once per repetition, are
    reported as medians.
    """

    kind: str
    seconds: float
    first_s: Optional[float]
    rows: int


def collapse_ops(repetitions: List[Repetition]) -> List[Op]:
    """Collapse the repetitions into one op per schedule position (errors dropped)."""
    ops: List[Op] = []
    for samples in zip(*(r.samples for r in repetitions)):
        good = [s for s in samples if s.error is None]
        if not good:
            continue
        firsts = [s.first - s.start for s in good if s.first is not None]
        ops.append(Op(
            kind=good[0].kind,
            seconds=min(s.seconds for s in good),
            first_s=min(firsts) if firsts else None,
            rows=good[0].rows,
        ))
    return ops


def summarise(
    workload: str, repetitions: List[Repetition], rss_mb: float, edges_written: int
) -> Dict[str, Dict[str, object]]:
    """Every end-to-end and workload-specific metric of one run.

    ``edges_written`` is the number of user edges one pass inserts.  Returns
    ``name -> {"value", "unit", "n"}``; ``value`` is ``None`` where
    the workload has no such ops or too few samples for the percentile.
    ``n`` counts timings: distinct ops times repetitions.
    """
    ops = collapse_ops(repetitions)
    times = len(repetitions)
    by_kind: Dict[str, List[Op]] = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op)
    queries = by_kind.get("query", [])
    writes = by_kind.get("apply", [])
    # "First row" and shipped rows are properties of ops that deliver
    # incrementally: every kernel op (a drained iterator), and stream ops on
    # the wire (a whole-answer ``query`` reply has no first row to time).
    incremental = queries if workload.startswith("kernel") else by_kind.get("stream", [])

    def seconds(group: List[Op]) -> List[float]:
        return [op.seconds for op in group]

    def rate(count: float, group: List[Op]) -> Optional[float]:
        busy = sum(seconds(group))
        return count / busy if busy > 0 else None

    out: Dict[str, Dict[str, object]] = {}

    def put(name: str, value: Optional[float], n: int) -> None:
        out[name] = {"value": value, "n": n}

    def latency(group: List[Op], fraction: float) -> Optional[float]:
        return _ms(percentile(seconds(group), fraction, times))

    put("setup_s", statistics.median(r.setup_s for r in repetitions), times)
    put("queries_per_s", rate(len(queries), queries), len(queries) * times)
    put("query_p50_ms", latency(queries, 0.50), len(queries) * times)
    put("query_p95_ms", latency(queries, 0.95), len(queries) * times)
    put("query_p99_ms", latency(queries, 0.99), len(queries) * times)
    put(
        "first_row_p50_ms",
        _ms(percentile([op.first_s for op in incremental], 0.50)),
        len(incremental) * times,
    )
    put("rows_per_s", rate(sum(op.rows for op in incremental), incremental),
        len(incremental) * times)
    put("ops_per_s", rate(len(ops), ops), len(ops) * times)
    put("writes_per_s", rate(len(writes), writes), len(writes) * times)
    put("write_p50_ms", latency(writes, 0.50), len(writes) * times)
    put("write_p95_ms", latency(writes, 0.95), len(writes) * times)
    recoveries = [r.recover_s for r in repetitions if r.recover_s is not None]
    put("recover_s", statistics.median(recoveries) if recoveries else None, len(recoveries))
    journalled = repetitions[-1].counts.get("wal_journal_bytes_total")
    put(
        "wal_bytes_per_edge",
        journalled / edges_written if journalled and edges_written else None,
        edges_written,
    )
    put("peak_rss_mb", rss_mb, 1)

    units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}
    units.update({name: spec[0] for name, spec in WORKLOAD_SPECIFIC.items()})
    for name, entry in out.items():
        entry["unit"] = units[name]
    return out
