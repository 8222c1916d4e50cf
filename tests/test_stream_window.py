"""A stream's credit window is its only bound, and its wait obeys the budget.

An unread stream's worker waits for a credit.  These tests check that the
wait ends the way a match-loop checkpoint would — ``TIMEOUT`` at the
budget's time limit, ``CANCELLED`` on a cancel — so stalled consumers free
their workers, in process and over the wire, and that unread wire streams
hold no server executor thread (another client's request still gets its
typed answer).
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref

import pytest

from fixtures_paper import PAPER_ANSWER, build_paper_graph, build_paper_query
from repro.client import GraphClient
from repro.engines.base import Engine
from repro.matching.result import Budget, MatchStatus
from repro.query.pattern import EdgeType, PatternQuery
from repro.api import GraphDB
from repro.server import GraphCatalog, GraphServer
from repro.service import QueryService, ServiceConfig
from repro.service.service import TICKET_CANCELLED
from repro.session import QuerySession

pytestmark = pytest.mark.timeout(120)

PAGE = 8
WINDOW = ServiceConfig().stream_buffer_pages


class EndlessEngine(Engine):
    """Emits occurrences without ever looking at its budget: only the
    stream's window can stop it."""

    name = "ENDLESS-WINDOW"
    total = 1_000_000

    def _iter_evaluate(self, query, budget, profile=None):
        for index in range(self.total):
            yield tuple(index for _ in query.nodes())


@pytest.fixture(autouse=True)
def endless_engine():
    QuerySession.register_engine(EndlessEngine.name, EndlessEngine)
    yield
    QuerySession.unregister_engine(EndlessEngine.name)


def simple_query() -> PatternQuery:
    return PatternQuery(labels=["A", "B"], edges=[(0, 1, EdgeType.CHILD)], name="ab")


def one_second() -> Budget:
    return Budget(time_limit_seconds=1.0)


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


class TestInProcess:
    def test_stalled_streams_free_their_workers_at_the_time_limit(self):
        with QueryService(build_paper_graph(), config=ServiceConfig(workers=4)) as service:
            streams = [
                service.stream(
                    simple_query(),
                    engine=EndlessEngine.name,
                    budget=one_second(),
                    page_size=PAGE,
                    keep_occurrences=False,
                )
                for _ in range(4)
            ]
            try:
                started = time.monotonic()
                report = service.submit(build_paper_query()).result(timeout=10.0)
                assert report.occurrence_set() == set(PAPER_ANSWER)
                assert time.monotonic() - started < 5.0
                for stream in streams:
                    # Done before it is read: reading gives credits back.
                    assert stream.ticket.wait(timeout=5.0)
                    pages = list(stream.pages(timeout=10.0))
                    assert len(pages) == WINDOW
                    assert stream.report(timeout=10.0).status is MatchStatus.TIMEOUT
                assert service.stats_snapshot()["pinned_epochs"] == 0
            finally:
                for stream in streams:
                    stream.close()

    def test_cancel_frees_a_worker_waiting_for_a_credit(self):
        with QueryService(build_paper_graph(), config=ServiceConfig(workers=1)) as service:
            stream = service.stream(
                simple_query(), engine=EndlessEngine.name, page_size=PAGE
            )
            try:
                time.sleep(0.1)  # let the worker fill the window and wait
                stream.ticket.cancel()
                assert stream.ticket.wait(timeout=5.0)
                assert stream.ticket.status == TICKET_CANCELLED
                assert service.submit(build_paper_query()).result(timeout=10.0).num_matches == len(
                    PAPER_ANSWER
                )
            finally:
                stream.close()


    def test_concurrent_streams_deliver_every_page_once(self):
        # More streams than workers, more workers than cores, and a short
        # switch interval: a lost credit would stall a stream, a lost or
        # doubled page would change its rows.
        rows, total = {}, 300
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            config = ServiceConfig(workers=6, stream_buffer_pages=2)
            with QueryService(build_paper_graph(), config=config) as service:

                def consume(index: int) -> None:
                    stream = service.stream(
                        simple_query(),
                        engine=EndlessEngine.name,
                        budget=Budget(max_matches=total),
                        page_size=7,
                        keep_occurrences=False,
                    )
                    rows[index] = [row[0] for page in stream.pages(timeout=30.0) for row in page]

                threads = [threading.Thread(target=consume, args=(index,)) for index in range(12)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert service.stats_snapshot()["pinned_epochs"] == 0
        finally:
            sys.setswitchinterval(interval)
        assert rows == {index: list(range(total)) for index in range(12)}


@pytest.fixture
def server():
    with GraphServer() as srv:
        yield srv


def connect(server) -> GraphClient:
    return GraphClient(*server.address, graph="paper", timeout=60.0)


@pytest.fixture
def client(server):
    graph = build_paper_graph()
    with connect(server) as cli:
        cli.create_graph("paper", labels=graph.labels, edges=graph.edges())
        yield cli


class TestWire:
    def test_stalled_streams_free_their_workers_at_the_time_limit(self, server, client):
        with connect(server) as stalled:
            streams = [
                stalled.stream(
                    simple_query(),
                    engine=EndlessEngine.name,
                    budget=one_second(),
                    page_size=PAGE,
                )
                for _ in range(4)
            ]
            started = time.monotonic()
            report = client.query(build_paper_query(), timeout=10.0)
            assert report.occurrence_set() == set(PAPER_ANSWER)
            assert time.monotonic() - started < 5.0
            # All four done before they are read: reading gives credits back.
            assert wait_for(lambda: client.stats()["completed"] >= 5)
            for stream in streams:
                assert len(list(stream.pages(timeout=10.0))) == WINDOW
                assert stream.report(timeout=10.0).status is MatchStatus.TIMEOUT
        assert client.stats()["pinned_epochs"] == 0

    def test_unread_streams_hold_no_server_executor_thread(self, server, client):
        # The server's executor has 64 threads; 64 unread streams used to
        # hold one each, so the next request got no reply at all.
        with connect(server) as stalled:
            streams = [  # held: a dropped RemoteStream cancels itself
                stalled.stream(simple_query(), engine=EndlessEngine.name, page_size=PAGE)
                for _ in range(64)
            ]
            started = time.monotonic()
            # Every worker waits on an unread stream: the probe stays queued
            # and the server answers its timeout.
            with pytest.raises(TimeoutError, match="still queued"):
                client.query(build_paper_query(), timeout=3.0)
            assert time.monotonic() - started < 8.0
            assert all(not stream._ended for stream in streams)

    def test_ended_streams_are_freed_without_the_collector(self):
        # A stream's ticket, window and result must not form a cycle that
        # keeps the server and its tenant alive until the next collection.
        graph = build_paper_graph()
        gc.disable()
        try:
            catalog = GraphCatalog()
            catalog.attach("paper", GraphDB.from_edges(graph.labels, graph.edges()))
            server = GraphServer(catalog)
            server.start()
            with connect(server) as cli:
                assert len(list(cli.stream(build_paper_query(), page_size=1))) == len(
                    PAPER_ANSWER
                )
                stream = cli.stream(simple_query(), engine=EndlessEngine.name, page_size=PAGE)
                next(stream.pages(timeout=10.0))
                stream.close()  # cancelled mid-stream
                # Read what was in flight, so closing sends no reset (asyncio
                # keeps a reset's traceback, and the server with it, until the
                # next collection).
                assert cli.ping()
            server.close()
            catalog.get("paper").close()
            database, server = weakref.ref(catalog.get("paper")), weakref.ref(server)
            del catalog, stream
            assert wait_for(lambda: database() is None and server() is None, timeout=5.0)
        finally:
            gc.enable()
