"""The four workloads: set-up, one timed pass over the op schedule, tear-down.

One *repetition* is ``setup -> gc.collect() -> timed pass -> teardown`` from
a cold process state (fresh graph, fresh server, fresh durable directory), so
every repetition of a run does identical work: timings pool across
repetitions, counts repeat exactly, and ``setup_s`` / ``recover_s`` get one
sample per repetition.  Load is one closed-loop caller: the next op is issued
when the previous one returns.

The program is driven only through its public entry points — ``DataGraph``,
``MatchContext``, ``GraphMatcher.iter_matches``, ``GraphDB.open_durable`` /
``from_edges``, ``GraphServer`` and ``GraphClient.query/stream/apply`` — with
telemetry at the library default (metrics registry on, tracing off).
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import (
    Budget,
    DataGraph,
    GraphCatalog,
    GraphClient,
    GraphDB,
    GraphDelta,
    GraphMatcher,
    GraphServer,
    MatchContext,
    parse_query,
)

from perf.inputs import Inputs

Row = Tuple[int, ...]

#: Name of the one tenant the serve workloads create.
TENANT = "g"


@dataclass
class Sample:
    """One timed op: what it was, when it ran, what came back."""

    position: int
    kind: str
    start: float
    end: float
    #: Time of the first row (kernel) or first page (stream); ``None`` for
    #: ops that deliver their answer whole.
    first: Optional[float] = None
    rows: int = 0
    error: Optional[str] = None
    #: The answer itself, kept only for positions the checker sampled.
    answer: Optional[List[Row]] = None
    #: Graph version the op observed (reads) or produced (writes).
    version: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Repetition:
    """Everything one repetition measured."""

    #: ``(start, end)`` of set-up on the ``perf_counter`` clock; ``setup_s``
    #: is its length.  Trace spans are assigned to phases by these windows.
    setup_window: Tuple[float, float]
    samples: List[Sample]
    wall_s: float
    #: ``serve_mixed_rw`` only: reopen-from-disk to first answered query.
    recover_window: Optional[Tuple[float, float]] = None
    #: Exact counts read from the program's public reports after the pass.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Post-recovery durability verdicts (``serve_mixed_rw`` only).
    durability_errors: List[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.setup_window[1] - self.setup_window[0]

    @property
    def recover_s(self) -> Optional[float]:
        if self.recover_window is None:
            return None
        return self.recover_window[1] - self.recover_window[0]


def _budget(max_matches: int) -> Budget:
    return Budget(max_matches=max_matches, time_limit_seconds=None)


# ---------------------------------------------------------------------- #
# kernel workloads (in-process)
# ---------------------------------------------------------------------- #


def kernel_repetition(inputs: Inputs, keep: frozenset) -> Repetition:
    """The paper's own setting: one shared BFL context, one RIG per query."""
    started = time.perf_counter()
    graph = DataGraph(inputs.labels, inputs.edges, name=inputs.workload)
    context = MatchContext(graph)
    # The ancestor/descendant label summaries are built lazily by the first
    # pre-filter; an analyst pays that once per graph, so it is set-up.
    context.descendant_label_bits(0)
    queries = [parse_query(query.text, name=query.name) for query in inputs.queries]
    budgets = [_budget(query.max_matches) for query in inputs.queries]
    setup_window = (started, time.perf_counter())

    samples: List[Sample] = []
    gc.collect()
    wall_started = time.perf_counter()
    for position, (kind, index) in enumerate(inputs.schedule):
        sample = Sample(position, kind, time.perf_counter(), 0.0)
        rows: List[Row] = []
        try:
            matcher = GraphMatcher(graph, context=context)
            for occurrence in matcher.iter_matches(queries[index], budget=budgets[index]):
                if not rows:
                    sample.first = time.perf_counter()
                rows.append(occurrence)
        except Exception as exc:  # a failed op is a counted outcome, not a crash
            sample.error = repr(exc)
        sample.end = time.perf_counter()
        if sample.first is None:
            sample.first = sample.end  # an empty answer is known when the scan ends
        sample.rows = len(rows)
        if position in keep:
            sample.answer = rows
        samples.append(sample)
    wall_s = time.perf_counter() - wall_started
    return Repetition(setup_window, samples, wall_s)


# ---------------------------------------------------------------------- #
# serve workloads (one server, one client connection, same process)
# ---------------------------------------------------------------------- #


def _registry_totals(database: GraphDB) -> Dict[str, float]:
    """The tenant's metric registry, flattened to ``family`` (summed over
    labels) and ``family/labelvalue`` (one series); histograms contribute
    their ``sum`` under the family name and their ``count`` under ``:count``."""
    totals: Dict[str, float] = {}
    for name, family in database.metrics().items():
        if family["type"] == "gauge":
            continue
        for series in family["values"]:
            keys = [name] + [f"{name}/{label}" for label in series["labels"].values()]
            for key in keys:
                if family["type"] == "histogram":
                    totals[key] = totals.get(key, 0.0) + series["sum"]
                    totals[key + ":count"] = totals.get(key + ":count", 0.0) + series["count"]
                else:
                    totals[key] = totals.get(key, 0.0) + series["value"]
    return totals


def serve_repetition(inputs: Inputs, keep: frozenset, scratch: str) -> Repetition:
    """Wire path: client -> framing -> server -> service -> store -> session."""
    durable = inputs.workload == "serve_mixed_rw"
    directory = os.path.join(scratch, f"tenant-{os.getpid()}")
    shutil.rmtree(directory, ignore_errors=True)

    started = time.perf_counter()
    if durable:
        database = GraphDB.open_durable(
            directory, labels=inputs.labels, edges=inputs.edges, name=TENANT
        )
    else:
        database = GraphDB.from_edges(inputs.labels, inputs.edges, name=TENANT)
    catalog = GraphCatalog()
    catalog.attach(TENANT, database)
    server = GraphServer(catalog)
    client = None
    try:
        host, port = server.start()
        client = GraphClient(host, port, graph=TENANT)
        budgets = [_budget(query.max_matches) for query in inputs.queries]
        stream_budget = _budget(inputs.stream_max)
        # Warm-up: one pass over the working set fills the head session's RIG
        # cache (and builds BFL + label summaries), as a long-lived server has.
        for query, budget in zip(inputs.queries, budgets):
            client.query(query.text, budget=budget)
        setup_window = (started, time.perf_counter())

        before = _registry_totals(database)
        samples: List[Sample] = []
        version = 0
        stall_s = 0.0
        num_nodes = len(inputs.labels)
        gc.collect()
        wall_started = time.perf_counter()
        for position, (kind, index) in enumerate(inputs.schedule):
            sample = Sample(position, kind, time.perf_counter(), 0.0, version=version)
            rows: List[Row] = []
            try:
                if kind == "query":
                    rows = client.query(
                        inputs.queries[index].text, budget=budgets[index]
                    ).occurrences
                elif kind == "stream":
                    stream = client.stream(
                        inputs.queries[index].text,
                        budget=stream_budget,
                        page_size=inputs.page_size,
                    )
                    for page in stream.pages():
                        if sample.first is None:
                            sample.first = time.perf_counter()
                        rows.extend(page)
                elif kind == "apply":
                    delta = GraphDelta(num_nodes)
                    for source, target in inputs.inserts[index]:
                        delta.add_edge(source, target)
                    version = sample.version = client.apply(delta).new_version
                else:
                    client.checkpoint()
            except Exception as exc:  # a failed op is a counted outcome, not a crash
                sample.error = repr(exc)
            sample.end = time.perf_counter()
            if kind == "stream" and sample.first is None:
                sample.first = sample.end
            sample.rows = len(rows)
            if position in keep:
                sample.answer = rows
            samples.append(sample)
            if kind == "stream":
                # At the seed commit the request that follows a stream's last
                # credit frame is held ~40 ms by Nagle + delayed ACK — but only
                # when the kernel is not in quick-ack mode, so the same op is
                # stalled in one repetition and not in the next.  An untimed
                # ping takes that hit instead of the next op, and its time is
                # reported on its own (``client.post_stream_stall_s``), so the
                # stall stays visible without making every percentile bimodal.
                stall_started = time.perf_counter()
                client.ping()
                stall_s += time.perf_counter() - stall_started
        wall_s = time.perf_counter() - wall_started

        # One more round trip, so the server has finished accounting the
        # last reply before the counters are read.
        client.ping()
        after = _registry_totals(database)
        counts = {name: after[name] - before.get(name, 0.0) for name in after}
        counts["post_stream_stall_s"] = stall_s
        counts["store_versions_retained_max"] = float(
            database.stats().get("store", {}).get("peak_versions", 0)
        )
        durability = database.stats().get("durability")
        if durability:
            counts["wal_log_bytes"] = float(durability["journal_bytes"])
    finally:
        if client is not None:
            client.close()
        server.close()
        database.close()

    repetition = Repetition(setup_window, samples, wall_s, counts=counts)
    if durable:
        try:
            _recover(inputs, directory, repetition)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return repetition


def _recover(inputs: Inputs, directory: str, repetition: Repetition) -> None:
    """Reopen from disk, time it to the first answer, check nothing was lost."""
    started = time.perf_counter()
    database = GraphDB.open_durable(directory)
    try:
        query = inputs.queries[0]
        database.query(query.text, budget=_budget(query.max_matches))
        repetition.recover_window = (started, time.perf_counter())
        writes = [s for s in repetition.samples if s.kind == "apply" and s.error is None]
        acknowledged = max((s.version for s in writes), default=0)
        if database.head_version != acknowledged:
            repetition.durability_errors.append(
                f"head version {database.head_version} after reopen, "
                f"{acknowledged} writes acknowledged"
            )
        graph = database.graph
        for sample in writes:
            for source, target in inputs.inserts[inputs.schedule[sample.position][1]]:
                if not graph.has_edge(source, target):
                    repetition.durability_errors.append(
                        f"acknowledged edge ({source}, {target}) lost"
                    )
        for source, target in inputs.edges:
            if not graph.has_edge(source, target):
                repetition.durability_errors.append(f"base edge ({source}, {target}) lost")
    finally:
        database.close()


def run_repetition(inputs: Inputs, keep: frozenset, scratch: str) -> Repetition:
    """One repetition of ``inputs.workload``."""
    if inputs.workload.startswith("kernel"):
        return kernel_repetition(inputs, keep)
    return serve_repetition(inputs, keep, scratch)
