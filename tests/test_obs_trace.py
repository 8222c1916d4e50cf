"""End-to-end telemetry over the wire: traces, metrics, and the slow log.

A real :class:`GraphServer` on a loopback socket, exercised through
:class:`GraphClient`:

* trace-ID propagation — a ``trace_id`` on a remote query forces tracing
  server-side and the full span tree returns in ``extra["trace"]``; on
  failure the same id rides the error payload back;
* the streaming span tree accounts for the whole root wall-clock (the
  acceptance bar: stage sum within 10% of the root);
* ``server_metrics`` exposes every per-tenant family — session cache,
  store, service, server, engine, and (for durable tenants) WAL — in both
  JSON and Prometheus form;
* rejection-time load context (queue depth, worker occupancy) crosses the
  wire on :class:`ServiceOverloadedError`;
* the ``trace`` op returns structured slow-query entries with span
  trees, filtered to one trace on request;
* one span model: a traced query's reply, the tenant's span ring and its
  slow-log entry name the same spans, and an unsampled context leaves
  none of them.
"""

from __future__ import annotations

import time

import pytest

from fixtures_paper import build_paper_graph, build_paper_query
from repro.api import GraphDB
from repro.client import GraphClient
from repro.exceptions import ServiceOverloadedError
from repro.obs import Telemetry, TraceContext, assemble_trace, new_trace_id
from repro.server import GraphCatalog, GraphServer
from repro.server.protocol import decode_error, encode_error

pytestmark = pytest.mark.timeout(120)

PAPER_DSL = (
    "node a A\nnode b B\nnode c C\n"
    "edge a -> b\nedge a -> c\nedge b => c"
)


@pytest.fixture
def server():
    with GraphServer() as srv:
        yield srv


@pytest.fixture
def client(server):
    graph = build_paper_graph()
    with GraphClient(*server.address, timeout=60.0) as cli:
        cli.create_graph(
            "paper", labels=graph.labels, edges=graph.edges(), switch=True
        )
        yield cli


# ---------------------------------------------------------------------- #
# trace propagation
# ---------------------------------------------------------------------- #


class TestTracePropagation:
    def test_unary_query_trace_round_trip(self, client):
        trace_id = new_trace_id()
        report = client.query(build_paper_query(), trace_id=trace_id)
        trace = report.extra.get("trace")
        assert trace is not None
        assert trace["trace_id"] == trace_id
        assert trace["name"] == "query"
        span_names = [span["name"] for span in trace["spans"]]
        # The service synthesises the stage breakdown; the server appends
        # its wire-encoding time.
        for required in ["queue_wait", "pin", "plan", "stream_drain", "wire_encode"]:
            assert required in span_names, required
        assert trace["meta"]["status"] == "ok"
        assert trace["meta"]["num_matches"] == report.num_matches
        assert trace["seconds"] >= 0.0
        assert all(span["seconds"] >= 0.0 for span in trace["spans"])

    def test_untraced_query_carries_no_trace(self, client):
        report = client.query(build_paper_query())
        assert "trace" not in report.extra

    def test_streaming_trace_spans_account_for_root(self, client):
        trace_id = new_trace_id()
        stream = client.stream(
            build_paper_query(), page_size=1, trace_id=trace_id
        )
        occurrences = list(stream)
        report = stream.report()
        assert occurrences  # paper query matches
        trace = report.extra.get("trace")
        assert trace is not None
        assert trace["trace_id"] == trace_id
        span_names = [span["name"] for span in trace["spans"]]
        assert "wire_encode" in span_names
        # Acceptance bar: the stage spans of a traced remote streaming
        # query sum to within 10% of the root wall-clock.
        span_sum = sum(span["seconds"] for span in trace["spans"])
        root = trace["seconds"]
        assert root > 0.0
        assert abs(span_sum - root) <= 0.10 * root

    def test_wire_encode_span_covers_row_packing(self, client, monkeypatch):
        # Rows are packed where they are produced (``MatchReport.to_wire``,
        # ``encode_page``), not inside the frame encoder; the product's own
        # span has to keep covering that work.  Make packing visibly slow
        # and read it back off the span.
        from repro import framing

        pack, delay = framing.Rows.__init__, 0.05

        def slow_pack(self, rows):
            time.sleep(delay)
            pack(self, rows)

        monkeypatch.setattr(framing.Rows, "__init__", slow_pack)

        def wire_encode_seconds(report):
            spans = report.extra["trace"]["spans"]
            return sum(span["seconds"] for span in spans if span["name"] == "wire_encode")

        report = client.query(build_paper_query(), trace_id=new_trace_id())
        assert report.occurrences
        assert wire_encode_seconds(report) >= delay

        stream = client.stream(build_paper_query(), page_size=1, trace_id=new_trace_id())
        pages = len(list(stream.pages(timeout=30.0)))
        assert pages >= 2
        assert wire_encode_seconds(stream.report()) >= pages * delay

    def test_distinct_queries_get_distinct_traces(self, client):
        first = client.query(build_paper_query(), trace_id="trace-aa")
        second = client.query(build_paper_query(), trace_id="trace-bb")
        assert first.extra["trace"]["trace_id"] == "trace-aa"
        assert second.extra["trace"]["trace_id"] == "trace-bb"

    def test_error_path_returns_trace_id(self, client):
        trace_id = new_trace_id()
        with pytest.raises(ServiceOverloadedError) as excinfo:
            client.query(
                build_paper_query(), deadline_seconds=0.0, trace_id=trace_id
            )
        assert excinfo.value.trace_id == trace_id

    def test_parse_error_returns_trace_id(self, client):
        from repro.exceptions import QueryParseError

        with pytest.raises(QueryParseError) as excinfo:
            client.query("node a", trace_id="trace-parse")
        assert getattr(excinfo.value, "trace_id", None) == "trace-parse"


# ---------------------------------------------------------------------- #
# overload context over the wire
# ---------------------------------------------------------------------- #


class TestOverloadContext:
    def test_deadline_shed_ships_load_context(self, client):
        with pytest.raises(ServiceOverloadedError) as excinfo:
            client.query(build_paper_query(), deadline_seconds=0.0)
        error = excinfo.value
        assert error.reason == "deadline"
        assert error.queue_depth is not None and error.queue_depth >= 0
        assert error.workers_busy is not None and error.workers_busy >= 0
        assert error.workers_total is not None and error.workers_total >= 1

    def test_protocol_round_trip_preserves_context(self):
        original = ServiceOverloadedError(
            "queue_full",
            "97 queued",
            queue_depth=97,
            workers_busy=3,
            workers_total=4,
        )
        original.trace_id = "trace-ff"
        decoded = decode_error(encode_error(original))
        assert isinstance(decoded, ServiceOverloadedError)
        assert decoded.reason == "queue_full"
        assert decoded.queue_depth == 97
        assert decoded.workers_busy == 3
        assert decoded.workers_total == 4
        assert decoded.trace_id == "trace-ff"

    def test_protocol_round_trip_without_context(self):
        decoded = decode_error(encode_error(ServiceOverloadedError("deadline")))
        assert isinstance(decoded, ServiceOverloadedError)
        assert decoded.queue_depth is None
        assert decoded.workers_busy is None
        assert decoded.workers_total is None


# ---------------------------------------------------------------------- #
# server metrics
# ---------------------------------------------------------------------- #


class TestServerMetrics:
    def test_families_cover_every_layer(self, client):
        client.query(build_paper_query())
        client.ingest(labels=["A"], edges=[], graph="paper")
        snapshot = client.server_metrics(graph="paper")
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
            "service_workers_total",
            "engine_queries_total",
            "engine_candidates_total",
            "server_requests_total",
            "server_bytes_sent_total",
        ]:
            assert family in snapshot, family

    def test_server_request_counters_attribute_by_op(self, client):
        client.query(build_paper_query())
        client.query(build_paper_query())
        snapshot = client.server_metrics(graph="paper")
        by_op = {
            value["labels"]["op"]: value["value"]
            for value in snapshot["server_requests_total"]["values"]
        }
        assert by_op.get("query", 0) >= 2
        bytes_sent = snapshot["server_bytes_sent_total"]["values"][0]["value"]
        assert bytes_sent > 0

    def test_stream_counter_increments(self, client):
        before = client.server_metrics(graph="paper").get(
            "server_streams_opened_total"
        )
        stream = client.stream(build_paper_query(), page_size=8)
        list(stream)
        stream.report()
        after = client.server_metrics(graph="paper")["server_streams_opened_total"]
        count = after["values"][0]["value"]
        previous = before["values"][0]["value"] if before else 0
        assert count == previous + 1

    def test_prometheus_format_over_wire(self, client):
        client.query(build_paper_query())
        text = client.server_metrics(graph="paper", format="prometheus")
        assert isinstance(text, str)
        assert "# TYPE service_completed_total counter" in text
        assert "service_completed_total" in text

    def test_wal_families_for_durable_tenant(self, tmp_path):
        with GraphServer(data_dir=str(tmp_path / "data")) as srv:
            with GraphClient(*srv.address, timeout=60.0) as cli:
                graph = build_paper_graph()
                cli.create_graph(
                    "durable", labels=graph.labels, edges=graph.edges(), switch=True
                )
                cli.ingest(labels=["A"], edges=[])
                cli.checkpoint()
                snapshot = cli.server_metrics()
        for family in [
            "wal_journal_entries_total",
            "wal_checkpoints_total",
        ]:
            assert family in snapshot, family
        journalled = snapshot["wal_journal_entries_total"]["values"][0]["value"]
        assert journalled >= 1


# ---------------------------------------------------------------------- #
# slow-query log over the wire
# ---------------------------------------------------------------------- #


class TestTraceOpSlowQueries:
    @pytest.fixture
    def slow_client(self, server):
        graph = build_paper_graph()
        db = GraphDB.open(graph, telemetry=Telemetry(slow_query_seconds=0.0))
        server.catalog.attach("slow", db, owned=True)
        with GraphClient(*server.address, timeout=60.0, graph="slow") as cli:
            yield cli

    def test_entries_returned_oldest_first(self, slow_client):
        slow_client.query(build_paper_query(), name="first")
        slow_client.query(build_paper_query(), name="second")
        entries = slow_client.trace()["slow_queries"]
        names = [entry["query"] for entry in entries]
        assert names[-2:] == ["first", "second"]
        for entry in entries:
            assert entry["seconds"] >= 0.0
            assert entry["engine"] == "GM"
            assert entry["status"] == "ok"

    def test_traced_entry_carries_span_tree(self, slow_client):
        trace_id = new_trace_id()
        slow_client.query(build_paper_query(), trace_id=trace_id)
        entries = slow_client.trace(limit=1)["slow_queries"]
        assert len(entries) == 1
        trace = entries[0]["trace"]
        assert trace["trace_id"] == trace_id
        assert any(span["name"] == "plan" for span in trace["spans"])

    def test_limit(self, slow_client):
        for index in range(4):
            slow_client.query(build_paper_query(), name=f"q{index}")
        assert len(slow_client.trace(limit=2)["slow_queries"]) == 2

    def test_trace_id_filters_spans_and_slow_queries(self, slow_client):
        first, second = new_trace_id(), new_trace_id()
        slow_client.query(build_paper_query(), name="first", trace_id=first)
        slow_client.query(build_paper_query(), name="second", trace_id=second)
        slow_client.query(build_paper_query(), name="untraced")
        reply = slow_client.trace(trace_id=first)
        assert [entry["query"] for entry in reply["slow_queries"]] == ["first"]
        assert reply["slow_queries"][0]["trace_id"] == first
        tree = assemble_trace(reply["spans"])
        assert [root["span"]["name"] for root in tree["roots"]] == ["query"]
        assert all(span["trace_id"] == first for span in reply["spans"])

    @pytest.mark.parametrize("mode", ["query", "stream"])
    def test_reply_ring_and_slow_log_name_the_same_spans(self, slow_client, mode):
        trace_id = new_trace_id()
        if mode == "query":
            report = slow_client.query(build_paper_query(), trace_id=trace_id)
        else:
            stream = slow_client.stream(build_paper_query(), page_size=1, trace_id=trace_id)
            assert list(stream)
            report = stream.report()
        reply = slow_client.trace(trace_id=trace_id)
        tree = assemble_trace(reply["spans"])
        assert [root["span"]["name"] for root in tree["roots"]] == ["query"]
        assert tree["orphans"] == []
        trace = report.extra["trace"]
        assert tree["root"]["span"]["span_id"] == trace["span_id"]
        children = [
            (child["span"]["span_id"], child["span"]["seconds"])
            for child in tree["root"]["children"]
        ]
        assert children == [(span["span_id"], span["seconds"]) for span in trace["spans"]]
        (entry,) = reply["slow_queries"]
        logged = entry["trace"]
        assert logged["span_id"] == trace["span_id"]
        assert [span["span_id"] for span in logged["spans"]] == [
            span_id for span_id, _ in children
        ]

    @pytest.mark.parametrize("mode", ["query", "stream"])
    def test_unsampled_context_leaves_no_spans(self, slow_client, mode):
        context = TraceContext(new_trace_id(), None, sampled=False)
        if mode == "query":
            report = slow_client.query(build_paper_query(), trace_id=context)
        else:
            stream = slow_client.stream(build_paper_query(), trace_id=context)
            assert list(stream)
            report = stream.report()
        assert "trace" not in report.extra
        reply = slow_client.trace(trace_id=context.trace_id)
        assert reply["spans"] == []
        (entry,) = reply["slow_queries"]
        assert entry["trace_id"] == context.trace_id
        assert entry["trace"] is None

    @pytest.mark.parametrize("sampled", [True, False])
    def test_shed_query_tags_its_error_and_ends_its_trace(self, slow_client, sampled):
        context = TraceContext(new_trace_id(), None, sampled=sampled)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            slow_client.query(build_paper_query(), deadline_seconds=0.0, trace_id=context)
        assert excinfo.value.trace_id == context.trace_id
        spans = slow_client.trace(trace_id=context.trace_id)["spans"]
        assert [span["name"] for span in spans] == (["query"] if sampled else [])

    def test_abandoned_stream_still_ends_its_trace(self, server, slow_client):
        # 64 matches, one per page: the worker waits on the stream's window
        # when the client walks away, so the stream ends cancelled.
        wide = GraphDB.from_edges(["A"] * 64 + ["B"], [(a, 64) for a in range(64)])
        server.catalog.attach("wide", wide, owned=True)
        trace_id = new_trace_id()
        stream = slow_client.stream(
            "node a A\nnode b B\nedge a -> b", page_size=1, graph="wide",
            trace_id=trace_id,
        )
        next(iter(stream.pages(timeout=30.0)))
        stream.close()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            spans = slow_client.trace(graph="wide", trace_id=trace_id)["spans"]
            if spans:
                break
            time.sleep(0.02)
        tree = assemble_trace(spans)
        assert [root["span"]["name"] for root in tree["roots"]] == ["query"]
        assert tree["orphans"] == []
        assert tree["root"]["span"]["meta"].get("status") != "ok"

    def test_empty_without_threshold(self, client):
        client.query(build_paper_query())
        assert client.trace(graph="paper")["slow_queries"] == []
