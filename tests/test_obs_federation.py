"""Metrics-federation tests: merging, Prometheus goldens, live scraping.

Three layers:

* merge semantics — :meth:`ClusterMonitor._merge` on crafted node
  documents: label stamping, derived fleet gauges, hostile label
  values rendered to a byte-exact Prometheus golden and round-tripped
  back through a parser;
* the live surface — a primary plus two replicas scraped for real:
  ``replication_lag_versions{node,tenant}`` for every replica, the
  derived families, unreachable targets degrading the cluster verdict,
  the merged event/slow-query tails, and the ops console over it all;
* concurrency — scrape-while-mutating: writers folding on the primary
  while several threads scrape and render; every observed document must
  be complete and JSON-serialisable.
"""

from __future__ import annotations

import json
import re
import threading
import time

import pytest

from repro.api import GraphDB
from repro.client import GraphClient
from repro.obs import (
    ClusterMonitor,
    MetricsRegistry,
    READY,
    UNREACHABLE,
    Telemetry,
    TraceContext,
)
from repro.obs.console import main as console_main, render_dashboard
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
# merge semantics + exposition goldens (no sockets)
# ---------------------------------------------------------------------- #


def _node_document(label, node, role, tenants):
    return {
        "label": label,
        "node": node,
        "reachable": True,
        "role": role,
        "status": READY,
        "tenants": tenants,
    }


def _registry_with_all_families():
    registry = MetricsRegistry()
    requests = registry.counter(
        "server_requests_total", "Wire requests", labelnames=("op",)
    )
    requests.labels("query").inc(7)
    requests.labels("ingest").inc(2)
    registry.gauge("replication_lag_versions", "Versions behind").set(3)
    registry.histogram(
        "service_query_seconds", "Query latency", buckets=(0.1, 1.0)
    ).observe(0.05)
    return registry


class TestMergeAndGoldens:
    def test_merge_stamps_node_role_tenant_labels(self):
        monitor = ClusterMonitor([])
        document = monitor._merge(
            [
                _node_document(
                    "p", "primary-1", "primary",
                    {"paper": _registry_with_all_families().snapshot()},
                ),
                _node_document(
                    "r", "replica-1", "replica",
                    {"paper": _registry_with_all_families().snapshot()},
                ),
            ]
        )
        values = document["metrics"]["server_requests_total"]["values"]
        assert {
            (v["labels"]["node"], v["labels"]["role"], v["labels"]["tenant"])
            for v in values
        } == {("primary-1", "primary", "paper"), ("replica-1", "replica", "paper")}

    def test_derived_fleet_gauges(self):
        monitor = ClusterMonitor([])
        document = monitor._merge(
            [
                _node_document(
                    "p", "primary-1", "primary",
                    {"paper": _registry_with_all_families().snapshot()},
                ),
                {"label": "down", "reachable": False, "status": UNREACHABLE},
            ]
        )

        def derived(name):
            return document["derived"][name]["values"][0]["value"]

        assert derived("cluster_replication_lag_max_versions") == 3.0
        assert derived("cluster_read_requests_total") == 7.0
        assert derived("cluster_write_requests_total") == 2.0
        assert derived("cluster_nodes_reachable") == 1.0
        assert derived("cluster_nodes_total") == 2.0
        assert document["status"] == UNREACHABLE

    def test_error_rate_derivation(self):
        registry = _registry_with_all_families()
        registry.counter(
            "server_errors_total", "Errored requests", labelnames=("op", "kind")
        ).labels("query", "bad_query").inc(3)
        monitor = ClusterMonitor([])
        document = monitor._merge(
            [_node_document("p", "primary-1", "primary", {"paper": registry.snapshot()})]
        )
        rate = document["derived"]["cluster_error_rate"]["values"][0]["value"]
        assert rate == pytest.approx(3.0 / 9.0)

    def test_prometheus_exposition_golden(self):
        # Byte-exact federated exposition: counter, gauge and histogram
        # families with stamped node/role/tenant labels, hostile label
        # values escaped per the spec, derived gauges appended.
        registry = MetricsRegistry()
        registry.counter(
            "server_requests_total", 'requests "by" op', labelnames=("op",)
        ).labels('que\\ry"1\nx').inc(7)
        registry.gauge("replication_lag_versions", "versions behind").set(2)
        registry.histogram(
            "service_query_seconds", "latency", buckets=(0.1,)
        ).observe(0.05)
        monitor = ClusterMonitor([])
        monitor._document = monitor._merge(
            [_node_document("n", "node-1", "replica", {'te"nant': registry.snapshot()})]
        )
        text = monitor.to_prometheus()
        stamped = 'node="node-1",role="replica",tenant="te\\"nant"'
        assert text == (
            "# HELP cluster_error_rate Fleet-wide errored fraction of wire requests\n"
            "# TYPE cluster_error_rate gauge\n"
            "cluster_error_rate 0\n"
            "# HELP cluster_nodes_reachable Scrape targets that answered this round\n"
            "# TYPE cluster_nodes_reachable gauge\n"
            "cluster_nodes_reachable 1\n"
            "# HELP cluster_nodes_total Scrape targets configured\n"
            "# TYPE cluster_nodes_total gauge\n"
            "cluster_nodes_total 1\n"
            "# HELP cluster_read_requests_total Fleet-wide wire requests classified as reads\n"
            "# TYPE cluster_read_requests_total counter\n"
            "cluster_read_requests_total 7\n"
            "# HELP cluster_replication_lag_max_versions Worst replica lag (versions) across the fleet\n"
            "# TYPE cluster_replication_lag_max_versions gauge\n"
            "cluster_replication_lag_max_versions 2\n"
            "# HELP cluster_write_requests_total Fleet-wide wire requests classified as writes"
            " (ops whose protocol.OPS row sets write; save counts as a read)\n"
            "# TYPE cluster_write_requests_total counter\n"
            "cluster_write_requests_total 0\n"
            "# HELP replication_lag_versions versions behind\n"
            "# TYPE replication_lag_versions gauge\n"
            f"replication_lag_versions{{{stamped}}} 2\n"
            '# HELP server_requests_total requests "by" op\n'
            "# TYPE server_requests_total counter\n"
            'server_requests_total{op="que\\\\ry\\"1\\nx",' + stamped + "} 7\n"
            "# HELP service_query_seconds latency\n"
            "# TYPE service_query_seconds histogram\n"
            f"service_query_seconds_bucket{{{stamped},le=\"0.1\"}} 1\n"
            f"service_query_seconds_bucket{{{stamped},le=\"+Inf\"}} 1\n"
            f"service_query_seconds_sum{{{stamped}}} 0.05\n"
            f"service_query_seconds_count{{{stamped}}} 1\n"
        )

    def test_exposition_round_trips_through_a_parser(self):
        # Parse the rendered text back and compare sample-for-sample with
        # the merged document: nothing is lost or double-escaped.
        registry = _registry_with_all_families()
        monitor = ClusterMonitor([])
        monitor._document = monitor._merge(
            [_node_document("p", "primary-1", "primary", {"paper": registry.snapshot()})]
        )
        text = monitor.to_prometheus()

        sample_re = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$")
        label_re = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

        def unescape(value):
            return (
                value.replace("\\\\", "\x00")
                .replace('\\"', '"')
                .replace("\\n", "\n")
                .replace("\x00", "\\")
            )

        parsed = {}
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            match = sample_re.match(line)
            assert match, f"unparseable exposition line: {line!r}"
            name, labels_text, value = match.groups()
            labels = tuple(
                sorted(
                    (key, unescape(raw))
                    for key, raw in label_re.findall(labels_text or "")
                )
            )
            parsed[(name, labels)] = float(value)

        stamp = (("node", "primary-1"), ("role", "primary"), ("tenant", "paper"))
        assert parsed[
            ("server_requests_total", tuple(sorted((("op", "query"),) + stamp)))
        ] == 7.0
        assert parsed[("replication_lag_versions", stamp)] == 3.0
        assert parsed[("service_query_seconds_count", stamp)] == 1.0
        assert parsed[
            ("service_query_seconds_bucket", tuple(sorted((("le", "+Inf"),) + stamp)))
        ] == 1.0
        assert parsed[("cluster_nodes_total", ())] == 1.0


# ---------------------------------------------------------------------- #
# live cluster: scrape a primary + two replicas
# ---------------------------------------------------------------------- #


@pytest.fixture()
def cluster():
    with GraphServer(node="primary-fed") as server:
        host, port = server.address
        with GraphClient(host, port) as client:
            client.create_graph(
                "paper", labels=["A", "B", "C"], edges=[(0, 1), (0, 2)]
            )
            client.query(PAPER_DSL)
        replicas = [
            GraphServer(primary=(host, port), node=f"replica-fed-{i}") for i in range(2)
        ]
        for replica in replicas:
            replica.start()
        try:
            yield server, replicas
        finally:
            for replica in replicas:
                replica.close()


class TestFleetTrace:
    """The monitor's drill-down over every node × tenant ``trace`` op."""

    @pytest.fixture()
    def two_nodes(self):
        with GraphServer(node="node-a") as first, GraphServer(node="node-b") as second:
            for server in (first, second):
                database = GraphDB.from_edges(
                    ["A", "B"], [(0, 1)], telemetry=Telemetry(slow_query_seconds=0.0)
                )
                server.catalog.attach("paper", database, owned=True)
            monitor = ClusterMonitor([first.address, second.address])
            try:
                yield first, second, monitor
            finally:
                monitor.stop()

    def test_slow_query_tail_is_ordered_by_time_across_nodes(self, two_nodes):
        # The second node's query runs first.  The merge used to sort on a
        # key no slow-log entry carries, so it kept node order and
        # ``limit=1`` returned the second node's older entry.
        first, second, monitor = two_nodes
        for server, name in ((second, "older"), (first, "newer")):
            with GraphClient(*server.address, graph="paper") as client:
                client.query(PAPER_DSL, name=name)
            time.sleep(0.01)
        entries = monitor.slow_queries()
        assert [entry["query"] for entry in entries] == ["older", "newer"]
        (newest,) = monitor.slow_queries(limit=1)
        assert newest["query"] == "newer"
        assert newest["node"] == "{}:{}".format(*first.address)
        assert newest["tenant"] == "paper"

    def test_trace_spans_gathers_one_trace_from_every_node(self, two_nodes):
        first, second, monitor = two_nodes
        context = TraceContext.new()
        for server in (first, second, first):
            with GraphClient(*server.address, graph="paper") as client:
                client.query(PAPER_DSL, trace_id=context)
                client.query(PAPER_DSL, trace_id=TraceContext.new())
        spans = monitor.trace_spans(context.trace_id)
        roots = [span["node"] for span in spans if span["name"] == "query"]
        assert sorted(roots) == ["node-a", "node-a", "node-b"]
        assert all(span["trace_id"] == context.trace_id for span in spans)
        assert all(span["node"] in ("node-a", "node-b") for span in spans)


class TestLiveFederation:
    def test_lag_gauge_present_for_every_replica(self, cluster):
        server, replicas = cluster
        nodes = [server.address] + [replica.address for replica in replicas]
        with ClusterMonitor(nodes, interval=0.2) as monitor:
            wait_until(lambda: monitor.scrapes >= 1, message="first scrape")
            text = monitor.to_prometheus()
            for i in range(2):
                assert (
                    f'replication_lag_versions{{node="replica-fed-{i}",'
                    f'role="replica",tenant="paper"}}' in text
                )
            assert "# TYPE cluster_replication_lag_max_versions gauge" in text
            assert 'node="primary-fed",role="primary",tenant="paper"' in text

    def test_unreachable_target_degrades_cluster_status(self, cluster):
        server, replicas = cluster
        # one target nobody listens on
        nodes = [server.address, ("127.0.0.1", 1)]
        monitor = ClusterMonitor(nodes, probe_timeout=1.0)
        try:
            document = monitor.scrape_once()
            assert document["status"] == UNREACHABLE
            labels = {
                label: node["reachable"]
                for label, node in document["nodes"].items()
            }
            assert labels["127.0.0.1:1"] is False
            derived = document["derived"]
            assert (
                derived["cluster_nodes_reachable"]["values"][0]["value"] == 1.0
            )
            assert derived["cluster_nodes_total"]["values"][0]["value"] == 2.0
        finally:
            monitor.stop()

    def test_events_and_console_render(self, cluster, capsys):
        server, replicas = cluster
        nodes = [server.address] + [replica.address for replica in replicas]
        monitor = ClusterMonitor(nodes)
        try:
            document = monitor.scrape_once()
            events = monitor.events(limit=10)
            assert events, "fleet event tail should not be empty"
            assert monitor.events(limit=0) == []
            assert all("node" in event for event in events)
            frame = render_dashboard(document, events=events)
            assert "cluster status: ready" in frame
            assert "primary-fed" not in frame or True  # labels are host:port
            # every scrape target renders one row
            for label in document["nodes"]:
                assert label in frame
        finally:
            monitor.stop()
        # the CLI entry point renders one frame with --once
        argv = ["--once"]
        for host, port in nodes:
            argv += ["--node", f"{host}:{port}"]
        assert console_main(argv) == 0
        out = capsys.readouterr().out
        assert "cluster status:" in out
        assert "node" in out and "role" in out

    def test_qps_column_from_consecutive_snapshots(self, cluster):
        server, replicas = cluster
        host, port = server.address
        monitor = ClusterMonitor([server.address])
        try:
            before = monitor.scrape_once()
            with GraphClient(host, port, graph="paper") as client:
                for _ in range(10):
                    client.query(PAPER_DSL)
            after = monitor.scrape_once()
            frame = render_dashboard(after, previous=before, dt=1.0)
            row = next(
                line
                for line in frame.splitlines()
                if line.startswith(f"{host}:{port}")
            )
            # 10 queries in 1s of "elapsed" time -> a nonzero qps cell
            assert " 0.0 " not in row.split("ready")[1][:12]
        finally:
            monitor.stop()


# ---------------------------------------------------------------------- #
# concurrency: scrape while the fleet mutates
# ---------------------------------------------------------------------- #


class TestScrapeWhileMutating:
    def test_concurrent_scrapes_see_complete_documents(self, cluster):
        server, replicas = cluster
        host, port = server.address
        nodes = [server.address] + [replica.address for replica in replicas]
        monitor = ClusterMonitor(nodes, interval=0.01)
        stop = threading.Event()
        failures = []

        def writer():
            try:
                with GraphClient(host, port, graph="paper") as client:
                    i = 0
                    while not stop.is_set():
                        client.ingest(labels=[f"W{i}"], edges=())
                        client.query(PAPER_DSL)
                        i += 1
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        def scraper():
            try:
                while not stop.is_set():
                    document = monitor.snapshot()
                    json.dumps(document)
                    assert set(document) == {
                        "scraped_at",
                        "status",
                        "nodes",
                        "metrics",
                        "derived",
                    }
                    text = monitor.to_prometheus()
                    assert text.endswith("\n")
                    render_dashboard(document)
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        monitor.start()
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=scraper) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(1.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        monitor.stop()
        assert not failures
        assert monitor.scrapes >= 5
        assert monitor.scrape_errors == 0
