"""End-to-end tests for the wire-protocol graph server.

A real :class:`GraphServer` on a loopback socket, exercised through the
synchronous :class:`GraphClient`:

* facade parity — every remote read answers exactly what the in-process
  session answers;
* the multi-tenant catalog lifecycle (create / list / drop, isolation
  between concurrent clients on distinct tenants);
* pipelined streaming — first page before query completion, credit-based
  backpressure, cancel/disconnect releasing the server-side pin (asserted
  through the store gauges);
* the failure surface — shed/deadline/unknown-graph/parse error mapping,
  malformed and truncated frames, unknown ops.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from fixtures_paper import (
    PAPER_ANSWER,
    build_paper_graph,
    build_paper_query,
    one_more_occurrence,
)
from repro.api import GraphDB
from repro.client import GraphClient
from repro.engines.base import Engine
from repro.exceptions import (
    CatalogError,
    EngineError,
    ProtocolError,
    QueryCancelled,
    QueryParseError,
    ReadOnlyReplicaError,
    ServiceOverloadedError,
    StoreError,
    UnknownGraphError,
)
from repro.framing import Rows
from repro.matching.result import Budget, MatchStatus
from repro.query.pattern import EdgeType, PatternQuery
from repro.server import GraphCatalog, GraphServer
from repro.server.protocol import (
    FIELDS,
    OPS,
    encode_frame,
    read_frame_sync,
)
from repro.server.server import _Connection
from repro.service import ServiceConfig
from repro.session import QuerySession

pytestmark = pytest.mark.timeout(120)

PAPER_DSL = (
    "node a A\nnode b B\nnode c C\n"
    "edge a -> b\nedge a -> c\nedge b => c"
)


def simple_query() -> PatternQuery:
    return PatternQuery(labels=["A", "B"], edges=[(0, 1, EdgeType.CHILD)], name="ab")


class SlowEngine(Engine):
    """Emits one occurrence every ``delay`` seconds, cancel-aware."""

    name = "SLOW-WIRE"
    total = 60
    delay = 0.01

    def _iter_evaluate(self, query, budget, profile=None):
        event = budget.cancel_event
        for index in range(self.total):
            if event is not None and event.is_set():
                raise QueryCancelled()
            time.sleep(self.delay)
            yield tuple(index for _ in query.nodes())


class FirehoseEngine(Engine):
    """Emits occurrences as fast as possible, counting every production."""

    name = "FIREHOSE-WIRE"
    total = 10_000
    produced = 0  # class-level: reset per test

    def _iter_evaluate(self, query, budget, profile=None):
        for index in range(self.total):
            type(self).produced += 1
            yield tuple(index for _ in query.nodes())


class BrokenEngine(Engine):
    """Emits three occurrences, then fails the way a buggy engine would."""

    name = "BROKEN-WIRE"

    def _iter_evaluate(self, query, budget, profile=None):
        for index in range(3):
            yield tuple(index for _ in query.nodes())
        raise EngineError("the engine broke mid-enumeration")


WIRE_ENGINES = (SlowEngine, FirehoseEngine, BrokenEngine)


@pytest.fixture(autouse=True)
def registered_engines():
    for cls in WIRE_ENGINES:
        QuerySession.register_engine(cls.name, cls)
    yield
    for cls in WIRE_ENGINES:
        QuerySession.unregister_engine(cls.name)


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


class CountingSocket:
    """A socket that counts the bytes read off it."""

    def __init__(self, sock):
        self.sock, self.received = sock, 0

    def recv(self, count):
        chunk = self.sock.recv(count)
        self.received += len(chunk)
        return chunk

    def __getattr__(self, name):
        return getattr(self.sock, name)


def rows_body(header: bytes, tail: bytes = b"") -> bytes:
    """A hand-built rows-kind frame body: kind, header length, header, tail."""
    return b"\x01" + struct.pack(">I", len(header)) + header + tail


def bytes_sent(server, graph="paper"):
    family = server.catalog.get(graph).metrics()["server_bytes_sent_total"]
    return int(family["values"][0]["value"])


def wait_for(predicate, timeout=15.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------- #
# facade parity
# ---------------------------------------------------------------------- #


class TestFacadeParity:
    def test_query_matches_in_process(self, client):
        local = QuerySession(build_paper_graph()).query(build_paper_query())
        remote = client.query(build_paper_query())
        assert remote.occurrence_set() == local.occurrence_set() == set(PAPER_ANSWER)
        assert remote.status is MatchStatus.OK
        assert remote.num_matches == local.num_matches

    def test_dsl_text_query(self, client):
        remote = client.query(PAPER_DSL, name="paper-dsl")
        assert remote.occurrence_set() == set(PAPER_ANSWER)
        assert remote.query_name == "paper-dsl"

    def test_count_and_histogram(self, client):
        session = QuerySession(build_paper_graph())
        assert client.count(build_paper_query()) == session.count(build_paper_query())
        assert client.histogram(build_paper_query()) == session.histogram(
            build_paper_query()
        )
        assert client.histogram(build_paper_query(), node=0) == session.histogram(
            build_paper_query(), node=0
        )

    def test_engine_selection(self, client):
        # GM and JM share exact hybrid semantics; the comparator engines
        # (GF/EH) answer the closure-expanded rewriting, so remote must
        # simply agree with the in-process run of the same engine.
        session = QuerySession(build_paper_graph())
        for engine in ("GM", "JM", "GF", "EH"):
            local = session.query(build_paper_query(), engine=engine)
            remote = client.query(build_paper_query(), engine=engine)
            assert remote.occurrence_set() == local.occurrence_set(), engine
        assert client.query(
            build_paper_query(), engine="JM"
        ).occurrence_set() == set(PAPER_ANSWER)

    def test_budget_respected_remotely(self, client):
        report = client.query(build_paper_query(), budget=Budget(max_matches=2))
        assert report.num_matches == 2
        assert report.status is MatchStatus.MATCH_LIMIT

    def test_run_batch_matches_in_process(self, client):
        session = QuerySession(build_paper_graph())
        local = session.run_batch({"q0": build_paper_query(), "q1": simple_query()})
        remote = client.run_batch({"q0": build_paper_query(), "q1": simple_query()})
        assert remote.version == 0
        assert remote.num_queries == local.num_queries == 2
        by_name = {outcome.name: outcome for outcome in remote.outcomes}
        for outcome in local.outcomes:
            assert by_name[outcome.name].occurrence_set() == outcome.occurrence_set()
            assert by_name[outcome.name].status == outcome.status

    def test_stream_pages_equal_query_occurrences(self, client):
        remote_pages = []
        with client.stream(build_paper_query(), page_size=2) as stream:
            for page in stream.pages(timeout=30.0):
                remote_pages.append(page)
            report = stream.report(timeout=30.0)
        occurrences = [occ for page in remote_pages for occ in page]
        assert set(occurrences) == set(PAPER_ANSWER)
        assert all(len(page) <= 2 for page in remote_pages)
        assert report.num_matches == len(PAPER_ANSWER)
        assert report.status is MatchStatus.OK

    def test_info_and_stats(self, client):
        info = client.info()
        graph = build_paper_graph()
        assert info["num_nodes"] == graph.num_nodes
        assert info["num_edges"] == graph.num_edges
        assert info["head_version"] == 0
        stats = client.stats()
        assert stats["completed"] >= 0
        assert "store" in stats

    def test_save(self, client, tmp_path):
        from repro.graph.io import load_graph_json

        path = client.save(str(tmp_path / "paper.json"))
        restored = load_graph_json(path)
        assert restored.num_nodes == build_paper_graph().num_nodes


# ---------------------------------------------------------------------- #
# writes + version pinning
# ---------------------------------------------------------------------- #


class TestWrites:
    def test_ingest_publishes_new_version(self, client):
        before = client.count(simple_query())
        base = client.num_nodes
        report = client.ingest(labels=["A", "B"], edges=[(base, base + 1)])
        assert report.new_version == 1
        assert client.head_version == 1
        assert client.count(simple_query()) == before + 1

    def test_apply_prepared_delta(self, client):
        delta = client.delta()
        node = delta.add_node("B")
        delta.add_edge(0, node)
        report = client.apply(delta)
        assert report.new_version == 1

    def test_apply_async_roundtrip(self, client):
        delta = client.delta()
        delta.add_edge(0, client.num_nodes - 1)
        handle = client.apply_async(delta)
        report = handle.result(timeout=30.0)
        assert report.new_version >= report.old_version

    def test_pin_isolates_from_writes(self, client):
        with client.pin() as snapshot:
            assert snapshot.version == 0
            before = snapshot.count(simple_query())
            base = client.num_nodes
            client.ingest(labels=["A", "B"], edges=[(base, base + 1)])
            assert client.head_version == 1
            # The pinned snapshot still answers from version 0 ...
            assert snapshot.count(simple_query()) == before
            batch = snapshot.run_batch([simple_query()])
            assert batch.version == 0
            # ... while unpinned reads see the new head.
            assert client.count(simple_query()) == before + 1

    def test_release_makes_pin_unusable(self, client):
        snapshot = client.pin()
        snapshot.release()
        with pytest.raises(StoreError):
            client.count(simple_query(), pin=snapshot.token)


# ---------------------------------------------------------------------- #
# the multi-tenant catalog
# ---------------------------------------------------------------------- #


class TestCatalog:
    def test_create_list_drop(self, client):
        client.create_graph("second", labels=["X", "Y"], edges=[(0, 1)], switch=False)
        names = {info["name"] for info in client.graphs()}
        assert names == {"paper", "second"}
        client.drop_graph("second")
        assert {info["name"] for info in client.graphs()} == {"paper"}

    def test_duplicate_create_raises(self, client):
        with pytest.raises(CatalogError):
            client.create_graph("paper", labels=["A"])

    def test_exist_ok(self, client):
        info = client.create_graph("paper", exist_ok=True)
        assert info["name"] == "paper"

    def test_unknown_graph_error(self, client):
        with pytest.raises(UnknownGraphError):
            client.query(simple_query(), graph="nope")
        with pytest.raises(UnknownGraphError):
            client.info(graph="nope")
        with pytest.raises(UnknownGraphError):
            client.drop_graph("nope")

    def test_dropped_tenant_queries_fail(self, client):
        client.create_graph("temp", labels=["A", "B"], edges=[(0, 1)], switch=False)
        assert client.count(simple_query(), graph="temp") == 1
        client.drop_graph("temp")
        with pytest.raises(UnknownGraphError):
            client.count(simple_query(), graph="temp")

    def test_attached_database_is_served(self, server):
        db = GraphDB.open(build_paper_graph())
        try:
            server.catalog.attach("attached", db)
            with GraphClient(*server.address, graph="attached") as cli:
                assert cli.query(build_paper_query()).occurrence_set() == set(
                    PAPER_ANSWER
                )
        finally:
            db.close()

    def test_concurrent_clients_on_distinct_tenants(self, server):
        # Each client creates its own tenant and hammers it; tenants must
        # never observe each other's data or interfere.
        errors = []
        rounds = 10

        def worker(index: int) -> None:
            try:
                width = 2 + index
                labels = ["A"] + ["B"] * width
                edges = [(0, b) for b in range(1, width + 1)]
                with GraphClient(*server.address) as cli:
                    cli.create_graph(f"tenant-{index}", labels=labels, edges=edges)
                    for _ in range(rounds):
                        assert cli.count(simple_query()) == width
                        histogram = cli.histogram(simple_query())
                        assert histogram == {"A": 1, "B": width}
                    report = cli.ingest(labels=["B"], edges=[(0, width + 1)])
                    assert report.new_version == 1
                    assert cli.count(simple_query()) == width + 1
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((index, exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors

    def test_concurrent_pinned_clients_on_one_tenant(self, server, client):
        # Eight connections share ONE tenant while a writer keeps publishing
        # deltas that change the answer.  Each client pins whatever head it
        # finds, and every batch / stream it reads through the pin must
        # equal an in-process run on that same (still retained) version.
        db = server.catalog.get("paper")
        queries = {"paper": build_paper_query(), "ab": simple_query()}
        num_clients, rounds = 8, 2
        verified, errors = [], []
        done = threading.Event()

        def writer() -> None:
            try:
                for _ in range(200):
                    if done.is_set():
                        break
                    db.ingest(**one_more_occurrence(db.num_nodes))
                    time.sleep(0.002)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(("writer", exc))

        def reader(index: int) -> None:
            try:
                with GraphClient(*server.address, graph="paper", timeout=60.0) as cli:
                    for _ in range(rounds):
                        with cli.pin() as remote, db.store.pin(remote.version) as local:
                            batch = remote.run_batch(queries)
                            assert batch.version == remote.version
                            for outcome in batch.outcomes:
                                truth = local.query(queries[outcome.name])
                                assert outcome.occurrence_set() == truth.occurrence_set()
                                assert outcome.num_matches == truth.num_matches
                            with remote.stream(queries["paper"], page_size=2) as stream:
                                assert stream.version == remote.version
                                streamed = [
                                    occurrence
                                    for page in stream.pages(timeout=30.0)
                                    for occurrence in page
                                ]
                            truth = local.query(queries["paper"])
                            assert len(streamed) == truth.num_matches
                            assert set(streamed) == truth.occurrence_set()
                            verified.append(remote.version)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append((index, exc))

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(num_clients)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads[:-1]:
            thread.join(timeout=60.0)
        done.set()
        threads[-1].join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(verified) == num_clients * rounds
        assert db.head_version > 0  # the writer really published behind the pins


# ---------------------------------------------------------------------- #
# pipelined streaming over the wire
# ---------------------------------------------------------------------- #


class TestWireStreaming:
    def test_first_page_arrives_before_query_completes(self, client):
        with client.stream(simple_query(), engine="SLOW-WIRE", page_size=4) as stream:
            pages = stream.pages(timeout=30.0)
            first = next(pages)
            assert len(first) == 4
            # 60 occurrences at 10ms each: the query is still running.
            stats = client.stats()
            assert stats["pinned_epochs"] >= 1
            remaining = sum(len(page) for page in pages)
            assert 4 + remaining == SlowEngine.total

    def test_close_mid_stream_cancels_and_releases_pin(self, client):
        stream = client.stream(simple_query(), engine="SLOW-WIRE", page_size=2)
        pages = stream.pages(timeout=30.0)
        next(pages)
        stream.close()
        assert wait_for(lambda: client.stats()["pinned_epochs"] == 0), (
            "server kept the snapshot pinned after the client cancelled"
        )
        # The worker unwinds cooperatively; wait for its terminal transition.
        assert wait_for(
            lambda: (
                lambda stats: stats["cancelled"] >= 1 or stats["completed"] >= 1
            )(client.stats())
        )

    def test_abandoned_stream_iterator_cancels_remotely(self, client):
        for page in client.stream(simple_query(), engine="SLOW-WIRE", page_size=2).pages(
            timeout=30.0
        ):
            break  # walk away mid-iteration; GC closes the stream
        import gc

        gc.collect()
        assert wait_for(lambda: client.stats()["pinned_epochs"] == 0)

    def test_client_disconnect_mid_stream_releases_server_resources(self, server, client):
        victim = GraphClient(*server.address, graph="paper")
        stream = victim.stream(simple_query(), engine="SLOW-WIRE", page_size=2)
        next(stream.pages(timeout=30.0))
        victim._sock.close()  # abrupt disconnect: no cancel frame, no goodbye
        assert wait_for(lambda: client.stats()["pinned_epochs"] == 0), (
            "a dropped connection leaked its snapshot pin"
        )

    def test_client_disconnect_with_unconsumed_stream(self, server, client):
        victim = GraphClient(*server.address, graph="paper")
        victim.stream(simple_query(), engine="SLOW-WIRE", page_size=2)
        victim._sock.close()  # never consumed a single page
        assert wait_for(lambda: client.stats()["pinned_epochs"] == 0)

    def test_backpressure_bounds_unconsumed_production(self, client):
        FirehoseEngine.produced = 0
        stream = client.stream(simple_query(), engine="FIREHOSE-WIRE", page_size=8)
        try:
            time.sleep(0.5)  # grant nothing: the pump must stall on credits
            produced = FirehoseEngine.produced
            assert produced < FirehoseEngine.total, (
                "producer ran to completion against an unread stream"
            )
            # Bound: the stream's one window + the page being filled.
            assert produced <= 8 * (4 + 1), (
                f"{produced} occurrences produced against a stalled consumer"
            )
        finally:
            stream.close()

    def test_streamed_prefix_respects_match_cap(self, client):
        stream = client.stream(
            build_paper_query(), budget=Budget(max_matches=2), page_size=1
        )
        occurrences = list(stream)
        assert len(occurrences) == 2
        report = stream.report(timeout=30.0)
        assert report.status is MatchStatus.MATCH_LIMIT

    def test_client_sockets_disable_nagle(self, client):
        # A request written right after a stream's last ``credit`` frame
        # must not wait ~40 ms for the server's delayed ACK.
        def nodelay() -> int:
            return client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

        assert nodelay() == 1
        before = client._sock
        client._reopen()
        assert client._sock is not before
        assert nodelay() == 1
        assert client.count(build_paper_query()) == len(PAPER_ANSWER)

    def test_bytes_sent_counts_every_frame_the_client_has_read(self, server, client):
        # The counter is bumped before a frame reaches the socket, so it can
        # never lag what a client has already received: after draining three
        # streams to their end frames, the tenant's byte delta equals the
        # bytes read off the socket — every time, not "usually" (the count
        # used to be taken by the sending thread after the send returned).
        client._sock = counting = CountingSocket(client._sock)
        client.stats()  # the first tenant-scoped reply registers the family
        for repetition in range(50):
            counted, received = bytes_sent(server), counting.received
            for _ in range(3):
                with client.stream(build_paper_query(), page_size=1) as stream:
                    assert sum(len(page) for page in stream.pages(timeout=30.0)) == len(
                        PAPER_ANSWER
                    )
            assert bytes_sent(server) - counted == counting.received - received, repetition

    def test_bytes_sent_counts_the_end_frame_of_a_failed_stream(self, server, client):
        # The error end frame used to go out without the tenant, so it was
        # the one stream frame missing from the counter.
        client._sock = counting = CountingSocket(client._sock)
        client.stats()
        counted, received = bytes_sent(server), counting.received
        stream = client.stream(simple_query(), engine=BrokenEngine.name, page_size=1)
        with pytest.raises(EngineError, match="broke mid-enumeration"):
            for _ in stream.pages(timeout=30.0):
                pass
        assert counting.received > received
        assert bytes_sent(server) - counted == counting.received - received

    def test_bytes_sent_counts_the_end_frame_of_a_lagged_subscription(self, server, client):
        from repro.replication.hub import get_hub

        raw = CountingSocket(socket.create_connection(server.address, timeout=10.0))
        try:
            client.stats()
            counted = bytes_sent(server)
            raw.sendall(encode_frame({"id": 1, "op": "subscribe_log", "graph": "paper"}))
            assert read_frame_sync(raw)["ok"] is True
            # What an overflowed live-frame buffer leaves behind: the next
            # idle poll of the shipper ends the subscription with an error.
            (subscription,) = get_hub(server.catalog.get("paper"))._subscriptions
            subscription._lagged = True
            while True:
                frame = read_frame_sync(raw)
                if frame.get("end"):
                    break
            assert frame["error"]["code"] == "replication"
            assert bytes_sent(server) - counted == raw.received
        finally:
            raw.close()

    def test_pinned_stream(self, client):
        with client.pin() as snapshot:
            base = client.num_nodes
            client.ingest(labels=["A", "B"], edges=[(base, base + 1)])
            with snapshot.stream(simple_query(), page_size=8) as stream:
                assert stream.version == 0
                count = sum(len(page) for page in stream.pages(timeout=30.0))
            # The head moved while the pinned stream answered from v0.
            assert client.count(simple_query()) == count + 1


# ---------------------------------------------------------------------- #
# the failure surface
# ---------------------------------------------------------------------- #


class TestFailureSurface:
    def test_queue_full_shed_maps_to_overloaded(self):
        config = ServiceConfig(workers=1, queue_limit=0)
        with GraphServer(service_config=config) as srv:
            with GraphClient(*srv.address) as cli:
                cli.create_graph("tiny", labels=["A", "B"], edges=[(0, 1)])
                with pytest.raises(ServiceOverloadedError) as excinfo:
                    cli.query(simple_query())
                assert excinfo.value.reason == "queue_full"

    def test_deadline_shed_maps_to_overloaded(self, client):
        with pytest.raises(ServiceOverloadedError) as excinfo:
            client.query(simple_query(), deadline_seconds=-0.001)
        assert excinfo.value.reason == "deadline"

    def test_shed_stream_raises_through_pages(self):
        config = ServiceConfig(workers=1, queue_limit=0)
        with GraphServer(service_config=config) as srv:
            with GraphClient(*srv.address) as cli:
                cli.create_graph("tiny", labels=["A", "B"], edges=[(0, 1)])
                with pytest.raises(ServiceOverloadedError):
                    cli.stream(simple_query())
                assert cli.stats()["pinned_epochs"] == 0

    def test_parse_error_maps(self, client):
        with pytest.raises(QueryParseError):
            client.query("this is not the DSL")

    def test_client_timeout_bounds_the_server_side_wait(self, client):
        # The per-call timeout travels in the frame: the *server* gives up
        # waiting on the ticket and answers a mapped TimeoutError (instead
        # of pinning an executor thread while the client walks away).
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            client.query(simple_query(), engine="SLOW-WIRE", timeout=0.05)
        assert time.monotonic() - started < 10.0
        assert client.ping()  # connection stays usable afterwards

    def test_unknown_engine_is_an_error_not_a_hang(self, client):
        with pytest.raises(Exception):
            client.query(simple_query(), engine="NO-SUCH-ENGINE")
        assert client.ping()  # connection survives op-level failures

    def test_unknown_op_keeps_connection_alive(self, server, client):
        raw = socket.create_connection(server.address, timeout=10.0)
        try:
            raw.sendall(encode_frame({"id": 1, "op": "telepathy"}))
            frame = read_frame_sync(raw)
            assert frame["ok"] is False
            assert frame["error"]["code"] == "protocol"
            raw.sendall(encode_frame({"id": 2, "op": "ping"}))
            frame = read_frame_sync(raw)
            assert frame["ok"] is True
        finally:
            raw.close()

    def test_request_without_id_answers_error(self, server):
        raw = socket.create_connection(server.address, timeout=10.0)
        try:
            raw.sendall(encode_frame({"op": "ping"}))
            frame = read_frame_sync(raw)
            assert frame["ok"] is False
            assert frame["error"]["code"] == "protocol"
        finally:
            raw.close()

    def test_malformed_frame_closes_connection_server_survives(self, server, client):
        raw = socket.create_connection(server.address, timeout=10.0)
        try:
            body = b"this is not json at all {{{"
            raw.sendall(struct.pack(">I", len(body)) + body)
            frame = read_frame_sync(raw)
            assert frame["ok"] is False
            assert frame["error"]["code"] == "protocol"
            # The server closes a connection with broken framing ...
            assert read_frame_sync(raw) is None
        finally:
            raw.close()
        # ... but keeps serving everyone else.
        assert client.ping()

    @pytest.mark.parametrize(
        "body, complaint",
        [
            (b"\x01", "shorter than its own prefix"),
            (b"\x01\x7f\xff\xff\xff{}", "overruns"),  # header length past the body
            (rows_body(b'{"id":1,"x":{"$rows":[9,9,8]}}', b"\x00\x00"), "overruns"),
            (rows_body(b'{"id":1,"x":{"$rows":[0,0,2]}}', b"junk"), "trailing"),
            (rows_body(b'{"id":1,"x":{"$rows":[%d,0,2]}}' % 2**40), "out of range"),
            # Each block plausible alone, together more rows than bytes.
            (rows_body(b'{"id":1,"x":[%s]}' % b",".join([b'{"$rows":[9000,0,2]}'] * 999)),
             "out of range"),
            (rows_body(b'{"id":1,"x":{"$rows":[-1,1,2]}}'), "out of range"),
            (rows_body(b'{"id":1,"x":{"$rows":[true,1,2]}}', b"\x00\x00"), "malformed"),
            (rows_body(b'{"id":1,"x":{"$rows":[1,1,3]}}', b"\x00" * 3), "out of range"),
            (rows_body(b'{"id":1,"x":{"$rows":[1,1,2],"y":0}}', b"\x00\x00"), "malformed"),
            (b"\x02" + rows_body(b'{"id":1}')[1:], "not valid JSON"),  # unknown kind byte
        ],
    )
    def test_hostile_rows_frame_answers_error_and_server_survives(
        self, server, client, body, complaint
    ):
        raw = socket.create_connection(server.address, timeout=10.0)
        try:
            raw.sendall(struct.pack(">I", len(body)) + body)
            frame = read_frame_sync(raw)
            assert frame["ok"] is False
            assert frame["error"]["code"] == "protocol"
            assert complaint in frame["error"]["message"]
            assert read_frame_sync(raw) is None  # framing is lost: closed
        finally:
            raw.close()
        with GraphClient(*server.address, graph="paper", timeout=10.0) as other:
            assert other.query(build_paper_query()).occurrence_set() == PAPER_ANSWER

    def test_a_well_formed_rows_frame_is_just_a_request(self, server):
        # One codec in both directions: rows in a request are decoded (and
        # here ignored), not mistaken for broken framing.
        raw = socket.create_connection(server.address, timeout=10.0)
        try:
            raw.sendall(encode_frame({"id": 1, "op": "ping", "noise": Rows(((1, 2), (3, 4)))}))
            assert read_frame_sync(raw)["result"]["pong"] is True
        finally:
            raw.close()

    def test_truncated_frame_then_disconnect_is_harmless(self, server, client):
        raw = socket.create_connection(server.address, timeout=10.0)
        raw.sendall(struct.pack(">I", 1000) + b"only a little")
        raw.close()
        time.sleep(0.1)
        assert client.ping()

    def test_oversized_length_prefix_rejected(self, server, client):
        from repro.server.protocol import MAX_FRAME_BYTES

        raw = socket.create_connection(server.address, timeout=10.0)
        try:
            raw.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x" * 64)
            frame = read_frame_sync(raw)
            assert frame["ok"] is False
            assert frame["error"]["code"] == "protocol"
        finally:
            raw.close()
        assert client.ping()

    def test_query_needs_a_graph(self, server):
        with GraphClient(*server.address) as cli:  # no default tenant
            with pytest.raises(StoreError):
                cli.query(simple_query())

    def test_unknown_pin_token(self, client):
        with pytest.raises(StoreError):
            client.count(simple_query(), pin="p999")

    def test_pin_is_per_graph(self, client):
        client.create_graph("other", labels=["A", "B"], edges=[(0, 1)], switch=False)
        snapshot = client.pin()
        try:
            with pytest.raises(StoreError):
                client.count(simple_query(), graph="other", pin=snapshot.token)
        finally:
            snapshot.release()


    @pytest.mark.parametrize("bad", ["lots", -3, 0, 2.5, True, None, [4]])
    def test_malformed_credit_answers_error_and_keeps_the_connection(self, server, client, bad):
        raw = socket.create_connection(server.address, timeout=10.0)
        try:
            raw.sendall(
                encode_frame(
                    {
                        "id": 1,
                        "op": "stream_open",
                        "graph": "paper",
                        "query": PAPER_DSL,
                        "engine": SlowEngine.name,
                        "page_size": 1,
                    }
                )
            )
            opened = read_frame_sync(raw)
            assert opened["ok"] is True
            stream_id = opened["result"]["stream"]
            raw.sendall(encode_frame({"op": "credit", "stream": stream_id, "n": bad}))
            raw.sendall(encode_frame({"id": 2, "op": "ping"}))
            replies = {}
            while 2 not in replies:  # page frames interleave; replies carry "ok"
                frame = read_frame_sync(raw)
                assert frame is not None, "the server dropped the connection"
                if "ok" in frame:
                    replies[frame["id"]] = frame
            assert replies[None]["error"]["code"] == "protocol"
            assert replies[2]["result"]["pong"] is True
        finally:
            raw.close()

    def test_huge_credit_does_not_stall_other_connections(self, server, client):
        stream = client.stream(build_paper_query(), engine=SlowEngine.name, page_size=1)
        try:
            next(iter(stream))
            client._send({"op": "credit", "stream": stream.stream_id, "n": 50_000_000})
            with GraphClient(*server.address, timeout=10.0) as other:
                started = time.monotonic()
                assert other.ping()
                assert time.monotonic() - started < 1.0
        finally:
            stream.close()
        assert client.ping()  # and the granting connection is still served


# ---------------------------------------------------------------------- #
# the op-flags table
# ---------------------------------------------------------------------- #


class TestOpTable:
    def test_table_declares_exactly_the_dispatched_ops(self):
        handlers = {name[len("_op_"):] for name in vars(_Connection) if name.startswith("_op_")}
        assert set(OPS) == handlers
        assert {flags.scope for flags in OPS.values()} == {"node", "graph"}
        declared = {field for flags in OPS.values() for field in flags.fields}
        assert declared <= set(FIELDS)
        for op, flags in OPS.items():
            assert flags.required <= set(flags.fields), op
            assert ("pin" in flags.fields) == flags.pin or op == "release", op

    def test_no_write_op_is_idempotent(self):
        writes = {op for op, flags in OPS.items() if flags.write}
        assert writes == {
            "create_graph", "drop_graph", "ingest", "apply", "apply_async", "checkpoint"
        }
        assert not [op for op in writes if OPS[op].idempotent]

    def test_each_client_method_sends_only_the_fields_its_op_declares(
        self, client, tmp_path
    ):
        sent = []
        send = client._send

        def record(frame):
            sent.append(dict(frame))
            send(frame)

        client._send = record
        budget = Budget(max_matches=10)
        query = build_paper_query()

        def delta():
            grown = client.delta()
            grown.add_node("A")
            return grown

        snapshot = client.pin(version=client.head_version)
        calls = [
            client.ping,
            client.graphs,
            lambda: client.create_graph(
                "scratch", labels=["A"], edges=[], exist_ok=True, switch=False
            ),
            client.info,
            lambda: client.ingest(
                labels=["B"], edges=[(0, 1)], remove_edges=[(0, 1)], trace="t-ingest"
            ),
            lambda: client.apply(delta(), trace="t-apply"),
            lambda: client.apply_async(delta()).result(timeout=30.0),
            lambda: snapshot.query(
                query, engine="GM", budget=budget, deadline_seconds=30.0,
                timeout=30.0, name="q", trace_id="t-query",
            ),
            lambda: snapshot.count(query, engine="GM", budget=budget, name="q"),
            lambda: snapshot.explain(
                query, engine="GM", analyze=True, budget=budget, timeout=30.0
            ),
            lambda: snapshot.histogram(query, node=0, engine="GM", budget=budget, name="q"),
            lambda: snapshot.run_batch(
                {"q": query}, engine="GM", budget=budget, workers=1,
                keep_occurrences=False, timeout=30.0,
            ),
            lambda: snapshot.stream(
                query, engine="GM", budget=budget, page_size=2,
                deadline_seconds=30.0, name="q", trace_id="t-stream",
            ).report(),
            snapshot.release,
            client.stats,
            lambda: client.server_metrics(format="prometheus"),
            client.checkpoint,  # in-memory tenant: refused, but sent
            lambda: client.save(str(tmp_path / "paper.json")),
            lambda: client.health(timeout=10.0),
            lambda: client.events(limit=5, kinds=["create_graph"], after_seq=0),
            lambda: client.trace(trace_id="t-query", limit=3),
            lambda: client.drop_graph("scratch", force=True, delete_storage=True),
        ]
        for call in calls:
            try:
                call()
            except StoreError:
                pass  # only the frame is under test
        requests = [frame for frame in sent if frame["op"] not in ("credit", "stream_cancel")]
        for frame in requests:
            # Any frame may name a tenant: a node-scoped op's reply bytes
            # then count against it.
            allowed = {"id", "op", "graph", *OPS[frame["op"]].fields}
            assert set(frame) <= allowed, (frame["op"], set(frame) - allowed)
        # Every op but subscribe_log (a ReplicaTail request) has a method.
        assert {frame["op"] for frame in requests} == set(OPS) - {"subscribe_log"}

    def test_every_write_op_is_refused_on_a_replica_role_server(self):
        graph = build_paper_graph()
        with GraphServer() as primary:
            with GraphClient(*primary.address, timeout=10.0) as cli:
                cli.create_graph("paper", labels=graph.labels, edges=graph.edges())
            with GraphServer(primary=primary.address) as replica:
                assert replica.role == "replica"
                raw = socket.create_connection(replica.address, timeout=10.0)
                try:
                    for ident, op in enumerate(sorted(OPS), start=1):
                        if not OPS[op].write:
                            continue
                        raw.sendall(
                            encode_frame(
                                {"id": ident, "op": op, "graph": "paper", "name": "paper",
                                 "force": True}
                            )
                        )
                        frame = read_frame_sync(raw)
                        assert frame["id"] == ident and frame["ok"] is False, op
                        assert frame["error"]["code"] == "read_only_replica", op
                finally:
                    raw.close()
                with GraphClient(*replica.address, timeout=10.0) as cli:
                    with pytest.raises(ReadOnlyReplicaError):
                        cli.create_graph("rogue")
                    with pytest.raises(ReadOnlyReplicaError):
                        cli.drop_graph("paper", force=True)
                    # nothing was created or dropped, and reads still work
                    assert [info["name"] for info in cli.graphs()] == ["paper"]
                    assert cli.count(PAPER_DSL, graph="paper") == len(PAPER_ANSWER)

    def test_requests_total_counts_graph_scoped_ops_only(self, client):
        client.ping()
        client.graphs()
        snapshot = client.pin()
        snapshot.release()
        client.info()  # reads the node-scoped graphs op
        client.stats()
        client.count(simple_query())
        values = client.server_metrics()["server_requests_total"]["values"]
        counted = {value["labels"]["op"] for value in values}
        assert {"pin", "stats", "count", "metrics"} <= counted
        assert not counted & {"ping", "graphs", "release", "create_graph"}
        assert all(OPS[op].scope == "graph" for op in counted)


# ---------------------------------------------------------------------- #
# hostile arguments: every declared field, one ill-typed value each
# ---------------------------------------------------------------------- #

#: One ill-typed value for every request field any op declares.
MISTYPED = {
    "name": 42,
    "engine": ["GM"],
    "pin": 7,
    "token": {"a": 1},
    "path": 3.5,
    "format": True,
    "trace_id": 9,
    "labels": ["A", 1],
    "kinds": "create_graph",
    "edges": [[0]],
    "remove_edges": [[0, "1"]],
    "query": 42,
    "queries": [{"query": 42}],
    "budget": {"max_matches": "many"},
    "delta": "add everything",
    "trace": 17,
    "version": "0",
    "from_version": "x",
    "node": "x",
    "limit": "x",
    "after_seq": 1.5,
    "page_size": 0,
    "workers": "x",
    "deadline_seconds": "x",
    "timeout": "soon",
    "analyze": "yes",
    "delete_storage": 1,
    "exist_ok": "no",
    "force": "yes",
    "keep_occurrences": 0,
}

#: Well-typed values for the required fields, so the mistyped one is the
#: field the error names (none of these is ever acted on).
WELL_TYPED = {
    "name": "hostile",
    "delta": {"base_num_nodes": 0, "ops": []},
    "token": "a1",
    "query": PAPER_DSL,
    "queries": [{"name": "q", "query": PAPER_DSL}],
    "pin": "p1",
    "path": "unused.json",
}

#: Ill-typed values that would reach product code if requests were not
#: decoded at one gate: a raw TypeError / ValueError from ``int()`` or
#: arithmetic deep in a handler, a ``timeout`` nothing checks, or a string
#: ``version`` the store would report as "not retained".
PROBES = [
    ({"op": "query", "query": PAPER_DSL, "timeout": "soon"}, "timeout"),
    ({"op": "stream_open", "query": PAPER_DSL, "page_size": "x"}, "page_size"),
    ({"op": "stream_open", "query": PAPER_DSL, "page_size": 0}, "page_size"),
    ({"op": "count", "query": PAPER_DSL, "budget": {"max_matches": "many"}}, "budget"),
    ({"op": "ingest", "edges": [[0]]}, "edges"),
    ({"op": "events", "limit": "x"}, "limit"),
    ({"op": "trace", "limit": "x"}, "limit"),
    ({"op": "run_batch", "queries": [{"query": PAPER_DSL}], "workers": "x"}, "workers"),
    ({"op": "query", "query": PAPER_DSL, "deadline_seconds": "x"}, "deadline_seconds"),
    ({"op": "histogram", "query": PAPER_DSL, "node": "x"}, "node"),
    ({"op": "subscribe_log", "from_version": "x"}, "from_version"),
    ({"op": "pin", "version": "0"}, "version"),
    # well-typed at the top, ill-typed inside
    ({"op": "apply", "delta": {"ops": [5]}}, "delta"),
    ({"op": "query", "query": {"labels": ["A", "B"], "edges": [1]}}, "query"),
    ({"op": "run_batch", "queries": [{"query": {"labels": ["A"], "edges": [1]}}]}, "queries"),
]


@pytest.fixture(scope="module")
def paper_server():
    graph = build_paper_graph()
    with GraphServer() as srv:
        with GraphClient(*srv.address) as cli:
            cli.create_graph("paper", labels=graph.labels, edges=graph.edges())
        yield srv


def answer_then_ping(server, request):
    """Send one request on a fresh socket; its reply, after checking that
    the same socket still answers a ping."""
    raw = socket.create_connection(server.address, timeout=10.0)
    try:
        raw.sendall(encode_frame(dict(request, id=1, graph="paper")))
        raw.sendall(encode_frame({"id": 2, "op": "ping"}))
        replies = {}
        while not {1, 2} <= set(replies):
            frame = read_frame_sync(raw)
            assert frame is not None, "the server dropped the connection"
            if "ok" in frame:
                replies[frame["id"]] = frame
        assert replies[2]["result"]["pong"] is True
        return replies[1]
    finally:
        raw.close()


class TestHostileArguments:
    def test_every_declared_field_has_a_mistyped_value(self):
        declared = {field for flags in OPS.values() for field in flags.fields}
        assert set(MISTYPED) == declared

    @pytest.mark.parametrize(
        "op, field",
        [(op, field) for op, flags in OPS.items() for field in flags.fields],
    )
    def test_mistyped_field_answers_protocol_naming_op_and_field(
        self, paper_server, op, field
    ):
        request = {name: WELL_TYPED[name] for name in OPS[op].required}
        request.update({"op": op, field: MISTYPED[field]})
        reply = answer_then_ping(paper_server, request)
        assert reply["ok"] is False
        assert reply["error"]["code"] == "protocol", reply["error"]
        assert op in reply["error"]["message"]
        assert repr(field) in reply["error"]["message"]

    @pytest.mark.parametrize("request_, field", PROBES)
    def test_probe_frames(self, paper_server, request_, field):
        reply = answer_then_ping(paper_server, request_)
        assert reply["error"]["code"] == "protocol", reply["error"]
        assert request_["op"] in reply["error"]["message"]
        assert repr(field) in reply["error"]["message"]

    def test_a_missing_required_field_names_it(self, paper_server):
        reply = answer_then_ping(paper_server, {"op": "count"})
        assert reply["error"]["code"] == "protocol"
        assert reply["error"]["message"] == "count needs a 'query' field"

    def test_nothing_was_acted_on(self, paper_server):
        with GraphClient(*paper_server.address, graph="paper") as cli:
            assert [info["name"] for info in cli.graphs()] == ["paper"]
            assert cli.head_version == 0
            assert cli.count(PAPER_DSL) == len(PAPER_ANSWER)


# ---------------------------------------------------------------------- #
# catalog unit behaviour (no socket)
# ---------------------------------------------------------------------- #


class TestGraphCatalog:
    def test_create_get_drop(self):
        with GraphCatalog() as catalog:
            catalog.create("g", labels=["A", "B"], edges=[(0, 1)])
            assert "g" in catalog
            assert catalog.get("g").num_nodes == 2
            catalog.drop("g")
            assert "g" not in catalog
            with pytest.raises(UnknownGraphError):
                catalog.get("g")

    def test_bad_names(self):
        with GraphCatalog() as catalog:
            with pytest.raises(CatalogError):
                catalog.create("")
            with pytest.raises(CatalogError):
                catalog.create(42)  # type: ignore[arg-type]

    def test_attach_keeps_ownership(self):
        db = GraphDB.open(build_paper_graph())
        try:
            with GraphCatalog() as catalog:
                catalog.attach("mine", db)
            # Catalog closed; the attached database must still serve.
            assert db.query(build_paper_query()).num_matches == len(PAPER_ANSWER)
        finally:
            db.close()

    def test_close_closes_owned(self):
        catalog = GraphCatalog()
        database = catalog.create("g", labels=["A", "B"], edges=[(0, 1)])
        catalog.close()
        with pytest.raises(StoreError):
            database.query(simple_query())
