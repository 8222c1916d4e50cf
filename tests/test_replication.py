"""Replication tests: log shipping, replica tailing, routed reads, failover.

Four layers, bottom-up:

* :meth:`GraphDB.open_replica` — snapshot bootstrap, live tailing, and
  element-for-element version identity with the primary on the paper
  fixture;
* ``GraphServer(primary=...)`` — the full read surface over the wire, typed
  rejection of writes, replica status and lag metric families;
* the crash bar — a SIGKILL'd replica process restarted over the same
  ``data_dir`` resubscribes *from its recovered version* (tail mode, no
  re-bootstrap) and converges to the primary's head;
* the failover bar — :class:`RoutedClient` keeps serving bounded-staleness
  reads from surviving replicas after the primary is SIGKILL'd, and
  reports writes unavailable with a typed error.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from fixtures_paper import PAPER_ANSWER, build_paper_graph, one_more_occurrence
from repro.api import GraphDB
from repro.client import GraphClient, RoutedClient
from repro.exceptions import PrimaryUnavailableError, ReadOnlyReplicaError
from repro.server import GraphServer
from repro.server.protocol import OPS

pytestmark = pytest.mark.timeout(120)

PAPER_DSL = (
    "node a A\nnode b B\nnode c C\n"
    "edge a -> b\nedge a -> c\nedge b => c"
)


def wait_until(predicate, timeout=30.0, interval=0.02, message="condition"):
    """Poll ``predicate`` until it holds; replication is asynchronous."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def _child_env():
    src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src_dir) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def _read_address(child):
    line = child.stdout.readline().strip()
    assert line, "child process never announced its address"
    host, port = line.split()
    return host, int(port)


def _terminate(child):
    if child.poll() is None:
        child.kill()
        child.wait(timeout=30.0)


# ---------------------------------------------------------------------- #
# GraphDB.open_replica: bootstrap, tail, version identity
# ---------------------------------------------------------------------- #


class TestReplicaTail:
    def test_bootstrap_tail_and_version_identity(self, tmp_path):
        graph = build_paper_graph()
        with GraphServer(data_dir=str(tmp_path / "primary")) as server:
            host, port = server.address
            with GraphClient(host, port, timeout=60.0) as client:
                client.create_graph(
                    "paper", labels=graph.labels, edges=graph.edges()
                )
                base = client.num_nodes
                client.ingest(labels=["D"], edges=[(0, base)])
                client.ingest(labels=["D"], edges=[(base, base + 1)])
                # checkpoint mid-history: the replica bootstraps from this
                # snapshot and catches up the post-checkpoint tail.
                client.checkpoint()
                client.ingest(labels=["D"], edges=[(base + 1, base + 2)])

            primary_db = server.catalog.get("paper")
            replica_db = GraphDB.open_replica(host, port, "paper")
            try:
                assert replica_db.read_only is True
                wait_until(
                    lambda: replica_db.head_version == primary_db.head_version,
                    message="replica to reach the primary head",
                )
                # element-for-element identity at the shared version
                assert replica_db.head_version == 3
                assert replica_db.graph == primary_db.graph
                assert replica_db.graph.labels == primary_db.graph.labels
                assert sorted(replica_db.graph.edges()) == sorted(
                    primary_db.graph.edges()
                )
                # the replica serves the read surface at that version
                assert (
                    replica_db.query(PAPER_DSL).occurrence_set() == PAPER_ANSWER
                )
                assert replica_db.count(PAPER_DSL) == len(PAPER_ANSWER)

                # live tailing: new primary folds appear without re-subscribe
                with GraphClient(host, port, timeout=60.0) as client:
                    client.ingest(
                        labels=["D"], edges=[(base + 2, base + 3)], graph="paper"
                    )
                wait_until(
                    lambda: replica_db.head_version == primary_db.head_version
                    == 4,
                    message="replica to tail the new fold",
                )
                assert replica_db.graph == primary_db.graph

                status = replica_db.replication_status()
                assert status["connected"] is True
                assert status["head_version"] == 4
                assert status["lag_versions"] == 0
                assert status["bootstraps"] == 1  # the initial snapshot only
            finally:
                replica_db.close()

    def test_replica_is_read_only_in_process(self, tmp_path):
        graph = build_paper_graph()
        with GraphServer(data_dir=str(tmp_path / "primary")) as server:
            host, port = server.address
            with GraphClient(host, port, timeout=60.0) as client:
                client.create_graph(
                    "paper", labels=graph.labels, edges=graph.edges()
                )
            replica_db = GraphDB.open_replica(host, port, "paper")
            try:
                wait_until(
                    lambda: replica_db.head_version == 0,
                    message="replica bootstrap",
                )
                assert replica_db.read_only is True
                with pytest.raises(ReadOnlyReplicaError):
                    replica_db.ingest(labels=["C"], edges=[(0, 1)])
                with pytest.raises(ReadOnlyReplicaError):
                    replica_db.apply(replica_db.delta())
                with pytest.raises(ReadOnlyReplicaError):
                    replica_db.checkpoint()
            finally:
                replica_db.close()


# ---------------------------------------------------------------------- #
# GraphServer(primary=...): the wire surface of a replica
# ---------------------------------------------------------------------- #


class TestReplicaServer:
    def test_reads_served_writes_rejected_metrics_present(self, tmp_path):
        graph = build_paper_graph()
        with GraphServer(data_dir=str(tmp_path / "primary")) as server:
            host, port = server.address
            with GraphClient(host, port, timeout=60.0) as client:
                client.create_graph(
                    "paper", labels=graph.labels, edges=graph.edges()
                )
                base = client.num_nodes
                client.ingest(labels=["D"], edges=[(0, base)])

            with GraphServer(primary=(host, port)) as replica:
                rhost, rport = replica.address
                with GraphClient(rhost, rport, timeout=60.0) as client:
                    client.use("paper")
                    wait_until(
                        lambda: client.info()["head_version"] == 1,
                        message="replica server catch-up",
                    )
                    # the full read surface, served at the replicated version
                    report = client.query(PAPER_DSL)
                    assert report.occurrence_set() == PAPER_ANSWER
                    assert client.count(PAPER_DSL) == len(PAPER_ANSWER)
                    assert client.histogram(PAPER_DSL)
                    assert client.explain(PAPER_DSL) is not None
                    with client.stream(PAPER_DSL) as stream:
                        assert set(stream) == PAPER_ANSWER

                    # writes are rejected with the typed error
                    with pytest.raises(ReadOnlyReplicaError):
                        client.ingest(labels=["D"], edges=())
                    with pytest.raises(ReadOnlyReplicaError):
                        client.checkpoint()
                    # ... catalog writes included: a replica's tenants are
                    # the primary's, not a client's to add or drop
                    with pytest.raises(ReadOnlyReplicaError):
                        client.create_graph("rogue", switch=False)
                    with pytest.raises(ReadOnlyReplicaError):
                        client.drop_graph("paper", force=True)
                    assert [info["name"] for info in client.graphs()] == ["paper"]

                    # replica status over the wire, in the health reply
                    tenant = client.health()["tenants"]["paper"]
                    assert tenant["read_only"] is True
                    assert tenant["head_version"] == 1
                    assert tenant["replication"]["head_version"] == 1
                    assert tenant["replication"]["lag_versions"] == 0

                    # lag metric families are in the replica's server metrics
                    metrics = client.server_metrics()
                    assert "replication_lag_versions" in metrics
                    assert "replication_lag_seconds" in metrics
                    assert "replication_connected" in metrics
                    assert "replication_frames_applied_total" in metrics
                    lag = metrics["replication_lag_versions"]["values"]
                    assert lag and lag[0]["value"] == 0

    def test_a_replica_that_cannot_bind_closes_its_tails(self):
        graph = build_paper_graph()
        with GraphServer() as primary:
            host, port = primary.address
            with GraphClient(host, port, timeout=60.0) as client:
                client.create_graph("paper", labels=graph.labels, edges=graph.edges())
                replica = GraphServer(primary=(host, port), host=host, port=port)
                tails = list(replica.tails.values())
                assert len(tails) == 1
                with pytest.raises(OSError):
                    with replica:
                        pass  # never reached: the primary holds the port
                for tail in tails:
                    assert not tail.connected
                    assert not tail._thread.is_alive()
                assert len(replica.catalog) == 0  # owned catalog closed
                wait_until(
                    lambda: client.health()["tenants"]["paper"]["subscribers"] == 0,
                    message="primary drops the replica's subscription",
                )


# ---------------------------------------------------------------------- #
# the crash bar: SIGKILL a replica mid-tail, restart, converge
# ---------------------------------------------------------------------- #


CHILD_REPLICA = textwrap.dedent(
    """
    import sys, time
    from repro.server import GraphServer

    replica = GraphServer(primary=(sys.argv[1], int(sys.argv[2])), data_dir=sys.argv[3])
    host, port = replica.start()
    print(f"{host} {port}", flush=True)
    time.sleep(600)  # hold the replica until the parent SIGKILLs us
    """
)


CHILD_PRIMARY = textwrap.dedent(
    """
    import sys, time
    from repro.server import GraphServer

    server = GraphServer(data_dir=sys.argv[1])
    host, port = server.start()
    print(f"{host} {port}", flush=True)
    time.sleep(600)  # hold the primary until the parent SIGKILLs us
    """
)


class TestReplicaCrashRecovery:
    def test_sigkill_replica_resubscribes_from_version(self, tmp_path):
        graph = build_paper_graph()
        replica_dir = str(tmp_path / "replica")
        with GraphServer(data_dir=str(tmp_path / "primary")) as server:
            host, port = server.address
            with GraphClient(host, port, timeout=60.0) as client:
                client.create_graph(
                    "paper", labels=graph.labels, edges=graph.edges()
                )
                base = client.num_nodes
                client.ingest(labels=["D"], edges=[(0, base)])

                child = subprocess.Popen(
                    [sys.executable, "-c", CHILD_REPLICA, host, str(port),
                     replica_dir],
                    stdout=subprocess.PIPE,
                    env=_child_env(),
                    text=True,
                )
                try:
                    rhost, rport = _read_address(child)
                    with GraphClient(rhost, rport, timeout=60.0) as rclient:
                        rclient.use("paper")
                        wait_until(
                            lambda: rclient.info()["head_version"] == 1,
                            message="replica catch-up before the kill",
                        )
                    # kill mid-tail, then advance the primary while it is down
                    os.kill(child.pid, signal.SIGKILL)
                    child.wait(timeout=30.0)
                finally:
                    _terminate(child)

                client.ingest(labels=["D"], edges=[(base, base + 1)])
                client.ingest(labels=["D"], edges=[(base + 1, base + 2)])
                head = client.info()["head_version"]
                assert head == 3
                expected = client.query(PAPER_DSL).occurrence_set()

                # restart over the same data_dir: the recovered replica must
                # resubscribe from its pre-crash version and catch up by
                # tailing — not by shipping a fresh snapshot.
                child = subprocess.Popen(
                    [sys.executable, "-c", CHILD_REPLICA, host, str(port),
                     replica_dir],
                    stdout=subprocess.PIPE,
                    env=_child_env(),
                    text=True,
                )
                try:
                    rhost, rport = _read_address(child)
                    with GraphClient(rhost, rport, timeout=60.0) as rclient:
                        rclient.use("paper")
                        wait_until(
                            lambda: rclient.info()["head_version"] == head,
                            message="replica convergence after restart",
                        )
                        status = rclient.health()["tenants"]["paper"]["replication"]
                        assert status["mode"] == "tail"
                        assert status["bootstraps"] == 0
                        assert status["head_version"] == head
                        info = rclient.info()
                        pinfo = client.info()
                        assert info["num_nodes"] == pinfo["num_nodes"]
                        assert info["num_edges"] == pinfo["num_edges"]
                        assert (
                            rclient.query(PAPER_DSL).occurrence_set()
                            == expected == PAPER_ANSWER
                        )
                finally:
                    _terminate(child)


# ---------------------------------------------------------------------- #
# the failover bar: primary dies, routed reads keep flowing
# ---------------------------------------------------------------------- #


class TestRoutedReads:
    def test_writes_go_where_the_op_table_says(self):
        # The router picks _read or _write per method by hand; this holds
        # that choice to OPS: the table's writes, plus save (its path names
        # the primary's disk), and nothing else goes to the primary.
        routed = RoutedClient(("127.0.0.1", 1), graph="paper")
        routes = {}

        class Report(dict):
            new_version = None

        def recorder(path):
            def record(method, *args, **kwargs):
                routes[method] = path
                return Report()

            return record

        routed._read, routed._write = recorder("read"), recorder("write")
        routed.ingest()
        routed.apply(None)
        routed.apply_async(None)
        routed.checkpoint()
        routed.create_graph("g")
        routed.drop_graph("g")
        routed.save("g.json")
        for method in ("query", "count", "explain", "histogram", "stream"):
            getattr(routed, method)(PAPER_DSL)
        routed.run_batch([PAPER_DSL])
        routed.info()
        writes = {method for method, path in routes.items() if path == "write"}
        assert writes == {op for op, flags in OPS.items() if flags.write} | {"save"}
        reads = {method for method, path in routes.items() if path == "read"}
        # A method named apart from the op it sends: stream opens a
        # stream_open, and info reads its tenant's entry of graphs.
        sent = {"stream": "stream_open", "info": "graphs"}
        assert {sent.get(m, m) for m in reads} <= set(OPS)

    def test_read_sees_own_write_and_replicas_take_reads(self):
        # Each routed write adds one occurrence; the routed read issued right
        # after it must already count it (read-your-writes: a replica that
        # has not folded that version may not answer), and once the fleet
        # has caught up the reads really are served by the replicas.
        graph = build_paper_graph()
        with GraphServer() as server:
            host, port = server.address
            with GraphClient(host, port, timeout=60.0) as client:
                client.create_graph("paper", labels=graph.labels, edges=graph.edges())
            with GraphServer(primary=(host, port)) as first, GraphServer(primary=(host, port)) as second:
                routed = RoutedClient(
                    (host, port),
                    replicas=[first.address, second.address],
                    graph="paper",
                    timeout=60.0,
                )
                try:
                    for written in range(1, 6):
                        base = graph.num_nodes + 3 * (written - 1)
                        routed.ingest(**one_more_occurrence(base))
                        assert routed.count(PAPER_DSL) == len(PAPER_ANSWER) + written
                    wait_until(
                        lambda: all(
                            status.get("head_version") == 5
                            for status in routed.replica_status()
                        ),
                        message="both replicas to reach the last write",
                    )
                    routed.health()  # refresh the router's view of replica heads
                    for _ in range(4):
                        assert routed.count(PAPER_DSL) == len(PAPER_ANSWER) + 5
                    reads = routed.registry.snapshot()["routed_reads_total"]["values"]
                    assert sum(
                        sample["value"]
                        for sample in reads
                        if sample["labels"].get("target") != "primary"
                    ) >= 4
                finally:
                    routed.close()


    def test_replica_rows_equal_primary_rows_on_every_read_path(self):
        # Match rows cross the wire as packed blocks, log frames as JSON;
        # a replica is a consumer of the second and a producer of the
        # first.  Rows read through it (eager, streamed, batched) must be
        # the primary's.
        graph = build_paper_graph()
        with GraphServer() as server:
            host, port = server.address
            with GraphClient(host, port, graph="paper", timeout=60.0) as primary:
                primary.create_graph("paper", labels=graph.labels, edges=graph.edges())
                primary.ingest(**one_more_occurrence(graph.num_nodes))
                with GraphServer(primary=(host, port)) as replica:
                    routed = RoutedClient(
                        (host, port), replicas=[replica.address], graph="paper", timeout=60.0
                    )
                    try:
                        wait_until(
                            lambda: routed.replica_status()[0].get("head_version") == 1,
                            message="the replica to fold the write",
                        )
                        routed.health()  # refresh the router's view of replica heads
                        expected = sorted(primary.query(PAPER_DSL).occurrences)
                        assert len(expected) == len(PAPER_ANSWER) + 1
                        assert sorted(routed.query(PAPER_DSL).occurrences) == expected
                        with routed.stream(PAPER_DSL, page_size=2) as stream:
                            assert sorted(stream) == expected
                        batch = routed.run_batch({"q": PAPER_DSL})
                        assert sorted(batch.outcomes[0].occurrences) == expected
                        reads = routed.registry.snapshot()["routed_reads_total"]["values"]
                        assert any(
                            sample["labels"].get("target") != "primary" and sample["value"]
                            for sample in reads
                        ), "no read went through the replica"
                    finally:
                        routed.close()


class TestRoutedFailover:
    def test_primary_sigkill_reads_survive_writes_typed(self, tmp_path):
        graph = build_paper_graph()
        data_dir = str(tmp_path / "primary")
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_PRIMARY, data_dir],
            stdout=subprocess.PIPE,
            env=_child_env(),
            text=True,
        )
        replicas = []
        routed = None
        try:
            host, port = _read_address(child)
            with GraphClient(host, port, timeout=60.0) as client:
                client.create_graph(
                    "paper", labels=graph.labels, edges=graph.edges()
                )
                base = client.num_nodes
            for _ in range(2):
                replica = GraphServer(primary=(host, port))
                replica.start()
                replicas.append(replica)

            routed = RoutedClient(
                (host, port),
                replicas=[replica.address for replica in replicas],
                graph="paper",
                timeout=60.0,
            )
            # a read-your-writes write through the router
            routed.ingest(labels=["D"], edges=[(0, base)])
            assert routed.count(PAPER_DSL) == len(PAPER_ANSWER)
            wait_until(
                lambda: all(
                    status.get("head_version") == 1
                    for status in routed.replica_status()
                    if status.get("reachable")
                ),
                message="both replicas to reach the written version",
            )

            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30.0)

            # reads keep flowing from the surviving replicas, under the
            # read-your-writes floor of the last write
            assert (
                routed.query(PAPER_DSL).occurrence_set() == PAPER_ANSWER
            )
            assert routed.count(PAPER_DSL) == len(PAPER_ANSWER)

            # writes are unavailable, with the typed error
            with pytest.raises(PrimaryUnavailableError):
                routed.ingest(labels=["D"], edges=())

            # reads were actually served by replicas
            reads = routed.registry.snapshot()["routed_reads_total"]["values"]
            replica_reads = sum(
                sample["value"]
                for sample in reads
                if sample["labels"].get("target") != "primary"
            )
            assert replica_reads >= 2
        finally:
            if routed is not None:
                routed.close()
            for replica in replicas:
                replica.close()
            _terminate(child)
