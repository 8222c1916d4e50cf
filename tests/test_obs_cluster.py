"""Cluster observability tests: cross-node tracing, health, events, routing.

Four layers, bottom-up:

* the vocabulary — :class:`TraceContext` wire round-trips,
  :class:`SpanRecorder` rings, :func:`assemble_trace` stitching,
  :class:`EventLog` sequencing and the health-state lattice;
* the wire surface — the ``health`` / ``events`` / ``trace`` ops and
  ``server_errors_total`` on a live :class:`GraphServer`;
* the distributed-trace bar — ONE traced write through
  :class:`RoutedClient` must come back as a single stitched tree:
  router root, primary ingest→fold→publish/ship, and a ``replica_apply``
  span from every connected replica hanging off the primary's fold;
* the frozen-node bar — a SIGSTOP'd replica (socket open, nothing
  answering) must be probed as ``unreachable`` within the probe timeout
  and routed around.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.api import GraphDB
from repro.client import GraphClient, RoutedClient
from repro.obs import (
    DEGRADED,
    READY,
    UNHEALTHY,
    UNREACHABLE,
    EventLog,
    SlowQueryLog,
    Span,
    SpanRecorder,
    Telemetry,
    TraceContext,
    assemble_trace,
    classify_tenant,
    is_servable,
    worst,
)
from repro.server import GraphServer

pytestmark = pytest.mark.timeout(120)

PAPER_DSL = "node a A\nnode b B\nedge a -> b"


def wait_until(predicate, timeout=30.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


# ---------------------------------------------------------------------- #
# vocabulary: contexts, spans, assembly
# ---------------------------------------------------------------------- #


class TestTraceContext:
    def test_wire_round_trip(self):
        context = TraceContext("t1", "s1", True)
        decoded = TraceContext.from_wire(context.to_wire())
        assert (decoded.trace_id, decoded.span_id, decoded.sampled) == (
            "t1",
            "s1",
            True,
        )

    def test_unsampled_round_trip(self):
        decoded = TraceContext.from_wire(
            TraceContext("t1", None, False).to_wire()
        )
        assert decoded.span_id is None
        assert decoded.sampled is False

    def test_legacy_plain_string_is_sampled_root(self):
        decoded = TraceContext.from_wire("legacy-id")
        assert decoded.trace_id == "legacy-id"
        assert decoded.span_id is None
        assert decoded.sampled is True

    def test_none_and_garbage_decode_to_none(self):
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire("") is None
        assert TraceContext.from_wire(42) is None
        assert TraceContext.from_wire({"sampled": True}) is None

    def test_child_keeps_trace_and_sampling(self):
        child = TraceContext("t1", "s1", False).child("s2")
        assert (child.trace_id, child.span_id, child.sampled) == (
            "t1",
            "s2",
            False,
        )

    def test_new_contexts_are_unique(self):
        assert TraceContext.new().trace_id != TraceContext.new().trace_id


class TestSpanRecorder:
    def test_ring_keeps_newest_and_counts_all(self):
        recorder = SpanRecorder(capacity=3)
        for i in range(5):
            recorder.record(Span(f"s{i}", "t1").finish(seconds=0.0))
        assert recorder.recorded == 5
        assert [span["name"] for span in recorder.recent()] == ["s2", "s3", "s4"]

    def test_for_trace_filters(self):
        recorder = SpanRecorder()
        recorder.record(Span("a", "t1").finish())
        recorder.record(Span("b", "t2").finish())
        assert [span["name"] for span in recorder.for_trace("t2")] == ["b"]

    def test_reads_hand_out_copies(self):
        # recent() used to return the ring's own documents, so a caller
        # editing one rewrote the span every later reader saw.
        recorder = SpanRecorder()
        recorder.record(Span("a", "t1").finish())
        recorder.recent()[0]["name"] = "edited"
        recorder.for_trace("t1")[0]["name"] = "edited"
        assert recorder.recent()[0]["name"] == "a"

    def test_finish_is_idempotent(self):
        span = Span("a", "t1")
        span.finish(seconds=1.0)
        span.finish(seconds=9.0)
        assert span.to_dict()["seconds"] == 1.0


class TestAssembleTrace:
    def _span(self, name, span_id, parent_id, started_at, seconds):
        return {
            "name": name,
            "trace_id": "t1",
            "span_id": span_id,
            "parent_id": parent_id,
            "started_at": started_at,
            "seconds": seconds,
        }

    def test_tree_shape_children_and_orphans(self):
        spans = [
            self._span("root", "r", None, 0.0, 1.0),
            self._span("late", "c2", "r", 0.5, 0.4),
            self._span("early", "c1", "r", 0.1, 0.5),
            self._span("lost", "o1", "missing-parent", 0.2, 0.1),
        ]
        tree = assemble_trace(spans)
        assert tree["trace_id"] == "t1"
        assert tree["root"]["span"]["name"] == "root"
        assert [child["span"]["name"] for child in tree["root"]["children"]] == [
            "early",
            "late",
        ]
        assert tree["root"]["child_seconds"] == pytest.approx(0.9)
        assert [node["span"]["name"] for node in tree["orphans"]] == ["lost"]

    def test_duplicate_span_ids_deduplicate(self):
        spans = [
            self._span("root", "r", None, 0.0, 1.0),
            self._span("root-dup", "r", None, 0.0, 2.0),
        ]
        tree = assemble_trace(spans)
        assert len(tree["spans"]) == 1
        assert tree["root"]["span"]["name"] == "root"

    def test_trace_id_filter(self):
        spans = [
            self._span("root", "r", None, 0.0, 1.0),
            dict(self._span("other", "x", None, 0.0, 1.0), trace_id="t2"),
        ]
        tree = assemble_trace(spans, trace_id="t2")
        assert [span["name"] for span in tree["spans"]] == ["other"]


class TestEventLog:
    def test_sequence_survives_ring_overflow(self):
        log = EventLog(capacity=3)
        for i in range(10):
            log.emit("tick", f"event {i}")
        events = log.recent()
        assert [event["seq"] for event in events] == [8, 9, 10]
        assert log.last_seq == 10

    def test_kind_and_after_seq_filters(self):
        log = EventLog()
        log.emit("a", "first")
        log.emit("b", "second")
        log.emit("a", "third")
        assert [e["message"] for e in log.recent(kinds=["a"])] == [
            "first",
            "third",
        ]
        assert [e["message"] for e in log.recent(after_seq=2)] == ["third"]

    def test_extra_fields_kept_nones_dropped(self):
        record = EventLog().emit("kind", "msg", tenant="paper", extra=None)
        assert record["tenant"] == "paper"
        assert "extra" not in record


class TestHealthVocabulary:
    def test_worst_ordering(self):
        assert worst([]) == READY
        assert worst([READY, DEGRADED]) == DEGRADED
        assert worst([DEGRADED, UNHEALTHY, READY]) == UNHEALTHY
        assert worst([READY, UNREACHABLE]) == UNREACHABLE
        assert worst(["made-up-state"]) == UNHEALTHY

    def test_servable_states(self):
        assert is_servable(READY) and is_servable(DEGRADED)
        assert not is_servable(UNHEALTHY)
        assert not is_servable(UNREACHABLE)

    def test_classify_primary_always_ready(self):
        assert classify_tenant("primary", None) == READY
        assert classify_tenant("primary", {"lag_versions": 9999}) == READY

    def test_classify_replica_by_tail(self):
        ok = {"connected": True, "lag_versions": 0}
        assert classify_tenant("replica", ok) == READY
        assert (
            classify_tenant("replica", {"connected": False, "lag_versions": 0})
            == DEGRADED
        )
        assert (
            classify_tenant("replica", {"connected": True, "lag_versions": 17})
            == DEGRADED
        )
        assert (
            classify_tenant("replica", {"connected": True, "lag_versions": 2000})
            == UNHEALTHY
        )
        assert (
            classify_tenant(
                "replica",
                {"connected": True, "lag_versions": 5},
                degraded_lag_versions=4,
            )
            == DEGRADED
        )


# ---------------------------------------------------------------------- #
# wire surface: health / events / spans ops, error counters
# ---------------------------------------------------------------------- #


@pytest.fixture()
def primary(tmp_path):
    with GraphServer(
        node="primary-under-test", data_dir=str(tmp_path / "primary")
    ) as server:
        host, port = server.address
        with GraphClient(host, port) as client:
            client.create_graph(
                "paper", labels=["A", "B", "C"], edges=[(0, 1), (0, 2)]
            )
            yield server, client


class TestHealthOp:
    def test_primary_health_document_shape(self, primary):
        server, client = primary
        document = client.health()
        assert document["status"] == READY
        assert document["node"] == "primary-under-test"
        assert document["role"] == "primary"
        assert document["uptime_seconds"] >= 0.0
        tenant = document["tenants"]["paper"]
        assert tenant["status"] == READY
        assert tenant["head_version"] == 0
        assert tenant["read_only"] is False
        # durable server: WAL counters ride the health reply
        assert tenant["wal"]["entries_since_checkpoint"] == 0

    def test_health_tracks_head_version(self, primary):
        _, client = primary
        client.ingest(labels=["D"], edges=[(0, 3)])
        assert client.health()["tenants"]["paper"]["head_version"] == 1


class TestEventsOp:
    def test_lifecycle_events_visible_over_wire(self, primary):
        server, client = primary
        payload = client.events()
        kinds = {event["kind"] for event in payload["events"]}
        assert "listening" in kinds
        assert "client_connect" in kinds
        assert "create_graph" in kinds
        assert payload["last_seq"] >= len(payload["events"])

    def test_after_seq_pagination(self, primary):
        server, client = primary
        first = client.events()
        server.events.emit("custom", "something happened")
        fresh = client.events(after_seq=first["last_seq"])
        assert [e["kind"] for e in fresh["events"]] == ["custom"]


class TestTraceOp:
    def test_traced_ingest_records_server_spans(self, primary):
        _, client = primary
        context = TraceContext.new()
        client.ingest(labels=["D"], edges=[(0, 3)], trace=context)
        spans = client.trace(trace_id=context.trace_id)["spans"]
        names = {span["name"] for span in spans}
        assert {"ingest", "fold", "publish"} <= names
        assert all(span["trace_id"] == context.trace_id for span in spans)

    def test_untraced_writes_record_nothing(self, primary):
        _, client = primary
        client.ingest(labels=["D"], edges=[(0, 3)])
        assert client.trace(limit=100) == {"spans": [], "slow_queries": []}

    def test_query_records_read_span(self, primary):
        server, client = primary
        context = TraceContext.new()
        client.query(PAPER_DSL, trace_id=context)
        spans = client.trace(trace_id=context.trace_id)["spans"]
        *stages, root = spans
        assert root["name"] == "query"
        names = [span["name"] for span in stages]
        assert names[:3] == ["queue_wait", "pin", "plan"] and names[-1] == "wire_encode"
        assert all(span["parent_id"] == root["span_id"] for span in stages)
        assert {span["node"] for span in spans} == {server.node}


class TestOneLimitRule:
    """Every bounded ring, and the wire ops that serve one, cuts by one
    rule: ``limit=None`` keeps everything, otherwise the newest
    ``max(0, limit)`` entries — ``0`` and negative limits keep none."""

    def _reader(self, request, ring):
        """``limit -> [entry lists]`` over a source holding three entries."""
        if ring == "EventLog":
            events = EventLog()
            for index in range(3):
                events.emit("probe", str(index))
            return lambda limit: [events.recent(limit)]
        if ring == "SpanRecorder":
            spans = SpanRecorder()
            for index in range(3):
                spans.record({"name": str(index)})
            return lambda limit: [spans.recent(limit)]
        if ring == "SlowQueryLog":
            slow = SlowQueryLog(threshold_seconds=0.0)
            for index in range(3):
                slow.record(0.0, query=str(index))
            return lambda limit: [slow.recent(limit)]
        server, client = request.getfixturevalue("primary")
        if ring == "events op":
            for index in range(3):
                server.events.emit("probe", str(index))
            return lambda limit: [client.events(limit=limit, kinds=["probe"])["events"]]
        database = GraphDB.from_edges(
            ["A", "B"], [(0, 1)], telemetry=Telemetry(slow_query_seconds=0.0)
        )
        server.catalog.attach("rings", database, owned=True)
        for index in range(3):  # three spans and three slow-log entries
            database.telemetry.spans.record(Span(str(index), "t").finish())
            database.telemetry.slow_log.record(0.0, query=str(index))

        def read(limit):
            reply = client.trace(graph="rings", limit=limit)
            return [reply["spans"], reply["slow_queries"]]

        return read

    @pytest.mark.parametrize("limit, kept", [(None, 3), (5, 3), (2, 2), (0, 0), (-1, 0)])
    @pytest.mark.parametrize(
        "ring", ["EventLog", "SpanRecorder", "SlowQueryLog", "events op", "trace op"]
    )
    def test_limit_keeps_the_newest(self, request, ring, limit, kept):
        read = self._reader(request, ring)
        for cut, everything in zip(read(limit), read(None)):
            assert len(everything) == 3
            assert cut == everything[3 - kept:]


class TestServerErrorCounter:
    def test_errors_labelled_by_op_and_kind(self, primary):
        _, client = primary
        with pytest.raises(Exception):
            client.query("this is { not a query")
        families = client.server_metrics(graph="paper")
        errors = families["server_errors_total"]["values"]
        assert any(
            value["labels"]["op"] == "query" and value["value"] >= 1
            for value in errors
        )
        # the kind label is the wire error code, never empty
        assert all(value["labels"]["kind"] for value in errors)


# ---------------------------------------------------------------------- #
# the distributed-trace bar: one write, one tree, every node
# ---------------------------------------------------------------------- #


class TestClusterTrace:
    def test_single_traced_write_spans_every_node(self):
        with GraphServer(node="primary-a") as server:
            host, port = server.address
            with GraphClient(host, port) as client:
                client.create_graph(
                    "paper", labels=["A", "B", "C"], edges=[(0, 1), (0, 2)]
                )
            replicas = [
                GraphServer(primary=(host, port), node=f"replica-{i}") for i in range(2)
            ]
            for replica in replicas:
                replica.start()
            routed = None
            try:
                routed = RoutedClient(
                    (host, port),
                    replicas=[replica.address for replica in replicas],
                    graph="paper",
                )
                report = routed.ingest(
                    labels=["D"], edges=[(0, 3)], trace=True
                )
                trace_id = routed.last_trace_id
                assert trace_id is not None
                wait_until(
                    lambda: all(
                        replica.status()["paper"]["head_version"]
                        == report.new_version
                        for replica in replicas
                    ),
                    message="replicas to fold the traced write",
                )

                spans = routed.trace_spans()
                assert all(
                    span["trace_id"] == trace_id for span in spans
                ), "one write must produce exactly one trace"
                tree = assemble_trace(spans, trace_id=trace_id)
                assert tree["orphans"] == []
                assert len(tree["roots"]) == 1

                root = tree["root"]
                assert root["span"]["name"] == "write"
                assert root["span"]["node"] == "router"

                by_name = {}
                for span in spans:
                    by_name.setdefault(span["name"], []).append(span)

                # the client root's children account for its duration
                assert root["child_seconds"] == pytest.approx(
                    root["span"]["seconds"], rel=0.10
                )

                # primary-side chain: ingest -> fold -> {publish, ship}
                (ingest,) = by_name["ingest"]
                (fold,) = [
                    span
                    for span in by_name["fold"]
                    if span["node"] == "primary-a"
                ]
                assert ingest["node"] == "primary-a"
                assert fold["parent_id"] == ingest["span_id"]
                primary_children = {
                    span["name"]
                    for span in spans
                    if span["parent_id"] == fold["span_id"]
                    and span["node"] == "primary-a"
                }
                assert {"publish", "ship"} <= primary_children

                # every replica's apply hangs off the primary's fold span
                applies = by_name["replica_apply"]
                assert {span["node"] for span in applies} == {
                    "replica-0",
                    "replica-1",
                }
                assert all(
                    span["parent_id"] == fold["span_id"] for span in applies
                )
                assert all(
                    span["meta"]["version"] == report.new_version
                    for span in applies
                )
            finally:
                if routed is not None:
                    routed.close()
                for replica in replicas:
                    replica.close()

    def test_replica_health_reports_replication(self):
        with GraphServer() as server:
            host, port = server.address
            with GraphClient(host, port) as client:
                client.create_graph("paper", labels=["A"], edges=())
            with GraphServer(primary=(host, port), node="replica-h") as replica:
                rhost, rport = replica.address
                with GraphClient(rhost, rport) as tail_client:
                    wait_until(
                        lambda: tail_client.health()["status"] == READY,
                        message="replica to report ready",
                    )
                    document = tail_client.health()
                    assert document["role"] == "replica"
                    assert document["node"] == "replica-h"
                    replication = document["tenants"]["paper"]["replication"]
                    assert replication["connected"] is True
                    assert replication["lag_versions"] == 0

    def test_replica_health_entry_is_the_tail_status(self):
        # The health reply carries the tail's whole status document, the
        # one source of a replica's lag (there is no separate status op).
        with GraphServer() as server:
            with GraphClient(*server.address) as client:
                client.create_graph("paper", labels=["A", "B"], edges=[(0, 1)])
                client.ingest(labels=["C"], edges=[(0, 2)])
            with GraphServer(primary=server.address) as replica:
                wait_until(
                    lambda: replica.status()["paper"]["head_version"] == 1
                    and replica.status()["paper"]["lag_versions"] == 0,
                    message="replica catch-up",
                )
                with GraphClient(*replica.address) as tail_client:
                    entry = tail_client.health()["tenants"]["paper"]
                assert entry["replication"] == replica.status()["paper"]
                assert entry["head_version"] == entry["replication"]["head_version"] == 1


# ---------------------------------------------------------------------- #
# routed client: lag surface + routing around a frozen node
# ---------------------------------------------------------------------- #


CHILD_REPLICA = """
import sys
from repro.server import GraphServer

replica = GraphServer(primary=(sys.argv[1], int(sys.argv[2])), node=sys.argv[3])
host, port = replica.start()
print(host, port, flush=True)
import signal
signal.pause()
"""


def _child_env():
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src_dir) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


class TestRoutedObservability:
    def test_stats_surface_observed_lag_and_states(self):
        with GraphServer() as server:
            host, port = server.address
            with GraphClient(host, port) as client:
                client.create_graph("paper", labels=["A", "B"], edges=[(0, 1)])
            with GraphServer(primary=(host, port), node="replica-s") as replica:
                routed = RoutedClient(
                    (host, port),
                    replicas=[replica.address],
                    graph="paper",
                )
                try:
                    routed.ingest(labels=["C"], edges=[(0, 2)])
                    wait_until(
                        lambda: replica.status()["paper"]["head_version"] == 1,
                        message="replica catch-up",
                    )
                    # reads force a health probe, which observes the lag
                    assert routed.count(PAPER_DSL) >= 1
                    routed.health()  # probe the primary too
                    stats = routed.stats()
                    assert stats["primary"]["status"] == READY
                    (replica_stats,) = stats["replicas"]
                    assert replica_stats["status"] == READY
                    assert replica_stats["lag_versions"] == {"paper": 0}
                    families = routed.registry.snapshot()
                    lag_values = families["routed_replica_lag_versions"][
                        "values"
                    ]
                    assert [
                        value["labels"]["replica"] for value in lag_values
                    ] == [replica_stats["target"]]
                finally:
                    routed.close()

    def test_sigstop_replica_probed_unreachable_and_routed_around(self):
        with GraphServer() as server:
            host, port = server.address
            with GraphClient(host, port) as client:
                client.create_graph("paper", labels=["A", "B"], edges=[(0, 1)])
            child = subprocess.Popen(
                [sys.executable, "-c", CHILD_REPLICA, host, str(port), "frozen"],
                stdout=subprocess.PIPE,
                env=_child_env(),
                text=True,
            )
            live = GraphServer(primary=(host, port), node="replica-live")
            routed = None
            try:
                line = child.stdout.readline().strip()
                assert line, "child replica never announced its address"
                rhost, rport = line.split()
                live.start()
                routed = RoutedClient(
                    (host, port),
                    replicas=[(rhost, int(rport)), live.address],
                    graph="paper",
                    probe_timeout=0.5,
                    probe_ttl=0.05,
                )
                # both replicas answer while the child is running
                wait_until(
                    lambda: sum(
                        1
                        for entry in routed.health()
                        if entry["status"] == READY
                    )
                    == 3,
                    message="all three nodes ready",
                )

                os.kill(child.pid, signal.SIGSTOP)
                try:
                    time.sleep(0.1)
                    # a direct probe times out fast instead of hanging
                    probe = GraphClient(rhost, int(rport), reconnect=False)
                    with pytest.raises((TimeoutError, ConnectionError, OSError)):
                        probe.health(timeout=0.5)
                    probe.close()

                    # the router marks it unreachable and keeps serving
                    wait_until(
                        lambda: any(
                            entry["status"] == UNREACHABLE
                            for entry in routed.health()
                        ),
                        message="frozen replica to probe unreachable",
                    )
                    for _ in range(4):
                        assert routed.count(PAPER_DSL) >= 1
                    reads = {
                        key[0]: child_metric.value
                        for key, child_metric in routed._m_reads.children()
                    }
                    frozen_label = f"{rhost}:{rport}"
                    assert reads.get(frozen_label, 0) == 0
                finally:
                    os.kill(child.pid, signal.SIGCONT)
            finally:
                if routed is not None:
                    routed.close()
                live.close()
                if child.poll() is None:
                    child.kill()
                    child.wait(timeout=30.0)
