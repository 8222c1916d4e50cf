"""Unit and integration tests for the unified telemetry subsystem.

Covers the dependency-free ``repro.obs`` primitives — metric families,
concurrent registry mutation, nearest-rank quantiles and the bounded
reservoir, the tracer's sampling/forcing contract, and the structured
slow-query log — plus the in-process :class:`GraphDB` wiring: every layer
mirrors into one registry, the legacy stats accessors keep their exact
semantics (including reset-on-clear), and the registry counters stay
monotone across store GC.
"""

from __future__ import annotations

import json
import threading
from contextlib import ExitStack

import pytest

from repro.api import GraphDB
from repro.exceptions import ServiceOverloadedError
from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NULL_TRACE,
    Reservoir,
    SlowQueryLog,
    Telemetry,
    Trace,
    Tracer,
    new_trace_id,
    percentile,
)
from repro.server import GraphCatalog, GraphServer

pytestmark = pytest.mark.timeout(120)


# ---------------------------------------------------------------------- #
# quantiles (satellite: one shared implementation)
# ---------------------------------------------------------------------- #


class TestQuantiles:
    def test_percentile_nearest_rank(self):
        samples = [0.1, 0.2, 0.3, 0.4, 0.5]
        assert percentile(samples, 0.50) == 0.3
        assert percentile(samples, 0.95) == 0.5
        assert percentile(samples, 0.0) == 0.1
        assert percentile(samples, 1.0) == 0.5

    def test_percentile_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_percentile_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0

    def test_reservoir_below_capacity_keeps_everything(self):
        reservoir = Reservoir(capacity=16)
        for value in range(10):
            reservoir.add(float(value))
        assert len(reservoir) == 10
        assert reservoir.seen == 10
        assert sorted(reservoir.samples()) == [float(v) for v in range(10)]

    def test_reservoir_bounded_and_seen_counts(self):
        reservoir = Reservoir(capacity=32, seed=7)
        for value in range(1000):
            reservoir.add(float(value))
        assert len(reservoir) == 32
        assert reservoir.seen == 1000
        assert all(0.0 <= sample < 1000.0 for sample in reservoir.samples())

    def test_reservoir_percentile_and_clear(self):
        reservoir = Reservoir(capacity=8)
        for value in [1.0, 2.0, 3.0, 4.0]:
            reservoir.add(value)
        assert reservoir.percentile(0.5) == 2.0
        reservoir.clear()
        assert len(reservoir) == 0
        assert reservoir.percentile(0.5) == 0.0


# ---------------------------------------------------------------------- #
# metrics registry
# ---------------------------------------------------------------------- #


class TestMetricsRegistry:
    def test_counter_basics(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "requests")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labelled_counter_children(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", "ops", labelnames=("op",))
        counter.labels("query").inc()
        counter.labels("query").inc()
        counter.labels(op="ingest").inc()
        snapshot = registry.snapshot()["ops_total"]
        values = {
            value["labels"]["op"]: value["value"] for value in snapshot["values"]
        }
        assert values == {"query": 2.0, "ingest": 1.0}

    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("hits_total", "hits")
        second = registry.counter("hits_total", "hits")
        assert first is second

    def test_registration_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("thing_total", "thing")
        with pytest.raises(ValueError):
            registry.gauge("thing_total", "now a gauge")
        registry.counter("by_op_total", "t", labelnames=("op",))
        with pytest.raises(ValueError):
            registry.counter("by_op_total", "t", labelnames=("other",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("9starts_with_digit")
        with pytest.raises(ValueError):
            registry.counter("ok_total", labelnames=("bad-label",))

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "queue depth")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 3.0

    def test_callback_gauge_evaluated_at_read(self):
        registry = MetricsRegistry()
        state = {"v": 1.0}
        registry.gauge("live", "live value", fn=lambda: state["v"])
        assert registry.get("live").value == 1.0
        state["v"] = 9.0
        assert registry.get("live").value == 9.0

    def test_callback_gauge_exception_reads_zero(self):
        registry = MetricsRegistry()

        def boom():
            raise RuntimeError("gone")

        registry.gauge("flaky", fn=boom)
        assert registry.get("flaky").value == 0.0

    def test_labelled_callback_gauge_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.gauge("bad", labelnames=("x",), fn=lambda: 1.0)

    def test_histogram_buckets_and_sum(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "latency_seconds", "latency", buckets=(0.01, 0.1, 1.0)
        )
        for value in [0.005, 0.05, 0.5, 5.0]:
            histogram.observe(value)
        snapshot = registry.snapshot()["latency_seconds"]["values"][0]
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(5.555)
        assert snapshot["buckets"]["0.01"] == 1
        assert snapshot["buckets"]["0.1"] == 2
        assert snapshot["buckets"]["1"] == 3
        assert snapshot["buckets"]["+Inf"] == 4

    def test_histogram_rejects_explicit_inf(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, float("inf")))

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.gauge("b").set(2)
        registry.histogram("c_seconds").observe(0.2)
        json.dumps(registry.snapshot())

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        counter = registry.counter("req_total", "requests", labelnames=("op",))
        counter.labels("query").inc(3)
        registry.histogram("lat_seconds", "latency", buckets=(0.1,)).observe(0.05)
        text = registry.to_prometheus()
        assert "# TYPE req_total counter" in text
        assert 'req_total{op="query"} 3' in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_prometheus_escaping_golden(self):
        # Hostile label values and help text: backslashes, quotes, and
        # newlines must round-trip through the exposition format exactly
        # as the spec requires (help escapes \ and newline only; label
        # values additionally escape the quote).
        registry = MetricsRegistry()
        counter = registry.counter(
            "evil_total", 'a "quoted"\nmulti\\line help', labelnames=("q",)
        )
        counter.labels('va\\l"ue\nwith everything').inc()
        assert registry.to_prometheus() == (
            '# HELP evil_total a "quoted"\\nmulti\\\\line help\n'
            "# TYPE evil_total counter\n"
            'evil_total{q="va\\\\l\\"ue\\nwith everything"} 1\n'
        )


class TestRegistryConcurrency:
    """Satellite: concurrent mutation with a live snapshot reader."""

    def test_concurrent_counter_and_histogram_mutation(self):
        registry = MetricsRegistry()
        counter = registry.counter("work_total", "work", labelnames=("worker",))
        histogram = registry.histogram("work_seconds", "work", buckets=(0.5,))
        threads, increments = 8, 2000
        start = threading.Barrier(threads + 1)
        stop_reading = threading.Event()
        snapshot_errors = []

        def writer(index: int) -> None:
            child = counter.labels(f"w{index % 4}")
            start.wait()
            for _ in range(increments):
                child.inc()
                histogram.observe(0.25)

        def reader() -> None:
            # Snapshots taken mid-mutation must always be well-formed
            # (each child read atomically; totals never decrease).
            last_total = 0.0
            while not stop_reading.is_set():
                try:
                    document = registry.snapshot()
                    total = sum(
                        value["value"]
                        for value in document["work_total"]["values"]
                    )
                    if total < last_total:
                        snapshot_errors.append((last_total, total))
                    last_total = total
                except Exception as exc:  # pragma: no cover - the failure mode
                    snapshot_errors.append(exc)
                    return

        workers = [
            threading.Thread(target=writer, args=(index,)) for index in range(threads)
        ]
        observer = threading.Thread(target=reader)
        observer.start()
        for worker in workers:
            worker.start()
        start.wait()
        for worker in workers:
            worker.join()
        stop_reading.set()
        observer.join()

        assert snapshot_errors == []
        document = registry.snapshot()
        total = sum(value["value"] for value in document["work_total"]["values"])
        assert total == threads * increments
        histogram_value = document["work_seconds"]["values"][0]
        assert histogram_value["count"] == threads * increments
        assert histogram_value["buckets"]["+Inf"] == threads * increments

    def test_concurrent_registration_yields_one_family(self):
        registry = MetricsRegistry()
        families = []
        barrier = threading.Barrier(8)

        def register():
            barrier.wait()
            families.append(registry.counter("shared_total", "shared"))

        threads = [threading.Thread(target=register) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(family is families[0] for family in families)


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #


class TestTracer:
    def test_zero_sample_rate_returns_null_trace(self):
        tracer = Tracer(sample_rate=0.0)
        trace = tracer.trace("query")
        assert trace is NULL_TRACE
        assert not trace
        assert trace.to_dict() is None

    def test_full_sample_rate_returns_real_trace(self):
        tracer = Tracer(sample_rate=1.0)
        trace = tracer.trace("query")
        assert trace
        assert trace.trace_id

    def test_explicit_trace_id_forces_tracing(self):
        tracer = Tracer(sample_rate=0.0)
        trace = tracer.trace("query", trace_id="forced01")
        assert trace
        assert trace.trace_id == "forced01"

    def test_partial_sampling_is_deterministic_with_seed(self):
        tracer = Tracer(sample_rate=0.5, seed=42)
        sampled = [bool(tracer.trace("q")) for _ in range(200)]
        assert any(sampled) and not all(sampled)

    def test_null_trace_operations_are_noops(self):
        NULL_TRACE.add_span("x", 1.0)
        NULL_TRACE.annotate(a=1)
        NULL_TRACE.finish()
        with NULL_TRACE.span("y"):
            pass
        assert NULL_TRACE.trace_id is None

    def test_trace_spans_and_meta(self):
        trace = Trace("query", trace_id="t1")
        trace.add_span("plan", 0.25, engine="GM")
        trace.add_span("negative_clamped", -1.0)
        trace.annotate(status="ok")
        trace.finish()
        document = trace.to_dict()
        assert document["trace_id"] == "t1"
        assert [span["name"] for span in document["spans"]] == [
            "plan",
            "negative_clamped",
        ]
        assert document["spans"][0]["engine"] == "GM"
        assert document["spans"][1]["seconds"] == 0.0
        assert document["meta"]["status"] == "ok"
        assert document["seconds"] >= 0.0

    def test_finish_latest_wins(self):
        trace = Trace("query")
        trace.finish()
        first = trace.seconds
        trace.finish()
        assert trace.seconds >= first

    def test_span_context_manager_measures(self):
        trace = Trace("query")
        with trace.span("work"):
            pass
        assert trace.span_seconds() >= 0.0
        assert trace.to_dict()["spans"][0]["name"] == "work"

    def test_new_trace_ids_are_unique(self):
        identifiers = {new_trace_id() for _ in range(64)}
        assert len(identifiers) == 64


# ---------------------------------------------------------------------- #
# slow-query log
# ---------------------------------------------------------------------- #


class TestSlowQueryLog:
    def test_disabled_without_threshold(self):
        log = SlowQueryLog()
        assert not log.enabled
        assert log.record(10.0, query="q") is False
        assert log.recent() == []

    def test_threshold_zero_records_everything(self):
        log = SlowQueryLog(threshold_seconds=0.0)
        assert log.enabled
        assert log.record(0.001, query="fast") is True
        assert log.record(5.0, query="slow") is True
        entries = log.recent()
        assert [entry["query"] for entry in entries] == ["fast", "slow"]
        assert all("ts" in entry and "seconds" in entry for entry in entries)

    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_seconds=1.0)
        assert log.record(0.5, query="fast") is False
        assert log.record(1.5, query="slow") is True
        assert len(log) == 1

    def test_capacity_ring(self):
        log = SlowQueryLog(threshold_seconds=0.0, capacity=3)
        for index in range(6):
            log.record(1.0, query=f"q{index}")
        assert [entry["query"] for entry in log.recent()] == ["q3", "q4", "q5"]
        assert log.recorded == 6

    def test_recent_limit(self):
        log = SlowQueryLog(threshold_seconds=0.0)
        for index in range(5):
            log.record(1.0, query=f"q{index}")
        assert [entry["query"] for entry in log.recent(2)] == ["q3", "q4"]

    def test_jsonl_file_sink(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(threshold_seconds=0.0, path=str(path))
        log.record(2.0, query="q", trace={"trace_id": "abc"})
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["query"] == "q"
        assert entry["trace"]["trace_id"] == "abc"


# ---------------------------------------------------------------------- #
# telemetry context + GraphDB wiring
# ---------------------------------------------------------------------- #


class TestTelemetryWiring:
    def test_telemetry_builds_parts_from_knobs(self):
        telemetry = Telemetry(sample_rate=1.0, slow_query_seconds=0.5)
        assert telemetry.tracer.sample_rate == 1.0
        assert telemetry.slow_log.enabled
        assert telemetry.registry.names() == []

    def test_graphdb_default_telemetry_covers_every_layer(self):
        with GraphDB.from_edges(
            ["Person", "Person", "Project"], [(0, 2), (1, 2)]
        ) as db:
            db.query("node p Person\nnode j Project\nedge p -> j")
            db.ingest(labels=["Person"], edges=[(3, 2)])
            db.query("node p Person\nnode j Project\nedge p -> j")
            names = set(db.metrics())
        for family in [
            "session_cache_hits_total",
            "session_cache_misses_total",
            "store_applies_total",
            "store_pins_total",
            "store_head_version",
            "service_submitted_total",
            "service_completed_total",
            "service_queue_depth",
            "service_workers_busy",
            "engine_queries_total",
            "engine_candidates_total",
            "engine_intersections_total",
        ]:
            assert family in names, family

    def test_engine_counters_count_real_work(self):
        with GraphDB.from_edges(
            ["Person", "Person", "Project"], [(0, 2), (1, 2)]
        ) as db:
            report = db.query("node p Person\nnode j Project\nedge p -> j")
            assert report.num_matches == 2
            snapshot = db.metrics()
        mjoin = report.extra.get("mjoin")
        assert mjoin and mjoin["candidates"] > 0
        candidates = snapshot["engine_candidates_total"]["values"][0]["value"]
        assert candidates == mjoin["candidates"]

    def test_registry_counters_survive_store_gc(self):
        # Store GC clears retired sessions; the shared registry is monotone
        # and must keep the pre-GC counts.
        with GraphDB.from_edges(["A", "B"], [(0, 1)]) as db:
            db.query("node a A\nnode b B\nedge a -> b")
            before = db.metrics()["service_completed_total"]["values"]
            for _ in range(3):
                db.ingest(labels=["B"])
                db.query("node a A\nnode b B\nedge a -> b")
            after = db.metrics()["service_completed_total"]["values"]
        total_before = sum(value["value"] for value in before)
        total_after = sum(value["value"] for value in after)
        assert total_after == total_before + 3

    def test_session_counts_are_the_tenant_registry(self):
        # An epoch session reads its cache counts from the tenant registry:
        # the very numbers db.metrics() reports.
        with GraphDB.from_edges(["A", "B"], [(0, 1)]) as db:
            db.query("node a A\nnode b B\nedge a -> b")
            db.query("node a A\nnode b B\nedge a -> b")
            with db.store.pin() as snapshot:
                counts = snapshot.session.cache_counts()
            assert counts["hits"] > 0  # second query reused artifacts
            hits = db.metrics()["session_cache_hits_total"]["values"]
            assert counts["hits"] == sum(value["value"] for value in hits)
            assert db.stats()["completed"] == 2

    def test_stats_snapshot_document_keys_unchanged(self):
        with GraphDB.from_edges(["A", "B"], [(0, 1)]) as db:
            db.query("node a A\nnode b B\nedge a -> b")
            document = db.stats()
        for key in [
            "submitted",
            "completed",
            "failed",
            "cancelled",
            "shed_queue_full",
            "shed_deadline",
            "shed_count",
            "status_counts",
            "uptime_seconds",
            "throughput_qps",
            "latency_p50_seconds",
            "latency_p95_seconds",
            "latency_p99_seconds",
            "head_version",
            "pinned_epochs",
            "versions_retained",
            "store",
        ]:
            assert key in document, key

    @pytest.mark.parametrize(
        "constructor",
        ["open", "from_edges", "open_durable", "catalog", "durable_catalog", "open_replica"],
    )
    def test_every_database_owns_a_telemetry(self, constructor, tmp_path):
        # A GraphDB always has a live registry: no constructor yields a
        # database whose metrics() / slow_queries() cannot answer.
        labels, edges = ["A", "B"], [(0, 1)]
        with ExitStack() as stack:
            if constructor == "open":
                db = stack.enter_context(GraphDB.open())
            elif constructor == "from_edges":
                db = stack.enter_context(GraphDB.from_edges(labels, edges))
            elif constructor == "open_durable":
                db = stack.enter_context(
                    GraphDB.open_durable(tmp_path / "t", labels=labels, edges=edges)
                )
            elif constructor == "catalog":
                catalog = stack.enter_context(GraphCatalog())
                db = catalog.create("g", labels=labels, edges=edges)
            elif constructor == "durable_catalog":
                catalog = stack.enter_context(GraphCatalog(data_dir=tmp_path / "c"))
                db = catalog.create("g", labels=labels, edges=edges)
            else:
                server = stack.enter_context(GraphServer())
                server.catalog.create("g", labels=labels, edges=edges)
                db = stack.enter_context(GraphDB.open_replica(*server.address, "g"))
            assert isinstance(db.telemetry, Telemetry)
            assert "store_head_version" in db.metrics()
            assert db.slow_queries() == []

    def test_local_slow_query_log_records_trace(self):
        telemetry = Telemetry(slow_query_seconds=0.0)
        with GraphDB.from_edges(
            ["A", "B"], [(0, 1)], telemetry=telemetry
        ) as db:
            db.query("node a A\nnode b B\nedge a -> b", trace_id="deadbeef")
            entries = db.slow_queries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["engine"] == "GM"
        assert entry["status"] == "ok"
        assert entry["trace"]["trace_id"] == "deadbeef"
        assert {span["name"] for span in entry["trace"]["spans"]} >= {
            "queue_wait",
            "pin",
            "plan",
        }

    def test_prometheus_format_from_facade(self):
        with GraphDB.from_edges(["A", "B"], [(0, 1)]) as db:
            db.query("node a A\nnode b B\nedge a -> b")
            text = db.metrics(format="prometheus")
            with pytest.raises(ValueError):
                db.metrics(format="xml")
        assert "# TYPE service_completed_total counter" in text


class TestOverloadedErrorContext:
    """Satellite: rejection-time load context on shed errors."""

    def test_attributes_and_message(self):
        error = ServiceOverloadedError(
            "queue_full", "64 queued", queue_depth=64, workers_busy=4, workers_total=4
        )
        assert error.queue_depth == 64
        assert error.workers_busy == 4
        assert error.workers_total == 4
        assert "queue_depth=64" in str(error)
        assert "workers=4/4 busy" in str(error)

    def test_defaults_are_none(self):
        error = ServiceOverloadedError("deadline")
        assert error.queue_depth is None
        assert error.workers_busy is None
        assert error.workers_total is None
        assert "queue_depth" not in str(error)
