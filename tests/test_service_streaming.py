"""Tests for true pipelined service streaming.

The acceptance bar of the redesign, asserted with synthetic engines whose
production rate and failure modes are controlled:

* the **first page of ``QueryService.stream(...).pages()`` arrives before
  the underlying query completes** (slow producer, fast consumer);
* **backpressure bounds the producer's lead** over a slow consumer to the
  configured page-queue depth (fast producer, stalled consumer);
* an **abandoned page generator releases the snapshot pin and cancels the
  producer** — the pin-leak regression test, asserted through the store
  gauges (``pinned_epochs`` / ``store_gc_retired_total``);
* shed, failed and cancelled tickets surface through ``pages()`` exactly
  like they do through ``result()``.
"""

from __future__ import annotations

import gc
import time

import pytest

from fixtures_paper import PAPER_ANSWER, build_paper_graph, build_paper_query
from repro.engines.base import Engine
from repro.exceptions import QueryCancelled, ServiceOverloadedError
from repro.matching.result import Budget
from repro.query.pattern import EdgeType, PatternQuery
from repro.service import QueryService, ServiceConfig
from repro.service.service import TICKET_CANCELLED, TICKET_DONE, TICKET_FAILED
from repro.session import QuerySession

pytestmark = pytest.mark.timeout(120)


def simple_query() -> PatternQuery:
    return PatternQuery(
        labels=["A", "B"],
        edges=[(0, 1, EdgeType.CHILD)],
        name="ab",
    )


class SlowEngine(Engine):
    """Emits one dummy occurrence every ``delay`` seconds, cancel-aware."""

    name = "SLOW-TEST"
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

    name = "FIREHOSE-TEST"
    total = 10_000
    produced = 0  # class-level: reset per test

    def _iter_evaluate(self, query, budget, profile=None):
        for index in range(self.total):
            type(self).produced += 1
            yield tuple(index for _ in query.nodes())


class BrokenEngine(Engine):
    """Fails mid-stream with a non-budget error."""

    name = "BROKEN-TEST"

    def _iter_evaluate(self, query, budget, profile=None):
        yield tuple(0 for _ in query.nodes())
        raise ValueError("boom mid-stream")


@pytest.fixture(autouse=True)
def registered_engines():
    for cls in (SlowEngine, FirehoseEngine, BrokenEngine):
        QuerySession.register_engine(cls.name, cls)
    yield
    for cls in (SlowEngine, FirehoseEngine, BrokenEngine):
        QuerySession.unregister_engine(cls.name)


@pytest.fixture
def service():
    with QueryService(build_paper_graph(), config=ServiceConfig(workers=2)) as svc:
        yield svc


class TestPipelinedFirstPage:
    def test_first_page_arrives_before_query_completes(self, service):
        result = service.stream(simple_query(), engine="SLOW-TEST", page_size=4)
        page_iter = result.pages(timeout=30.0)
        first = next(page_iter)
        assert len(first) == 4
        # 60 matches x 10ms means the query runs ~600ms; the first page was
        # handed over after ~40ms, long before the producer can be done.
        assert not result.ticket.done, (
            "first page only became available after the query finished — "
            "streaming is not pipelined"
        )
        remaining = list(page_iter)
        assert result.ticket.done
        total = len(first) + sum(len(page) for page in remaining)
        assert total == SlowEngine.total
        assert result.report().num_matches == SlowEngine.total

    def test_gm_streaming_equals_eager_service_query(self, service):
        with service.stream(build_paper_query(), page_size=3) as result:
            streamed = {occ for page in result.pages(timeout=30.0) for occ in page}
        assert streamed == set(PAPER_ANSWER)
        eager = service.submit(build_paper_query()).result()
        assert streamed == eager.occurrence_set()


class TestBackpressure:
    def test_producer_lead_is_bounded_by_queue_depth(self):
        config = ServiceConfig(workers=1, stream_buffer_pages=2)
        with QueryService(build_paper_graph(), config=config) as service:
            FirehoseEngine.produced = 0
            result = service.stream(
                simple_query(),
                engine="FIREHOSE-TEST",
                page_size=8,
                keep_occurrences=False,
            )
            page_iter = result.pages(timeout=30.0)
            next(page_iter)
            time.sleep(0.25)  # stall: give an unthrottled producer time to run away
            stalled_lead = FirehoseEngine.produced
            # Queue depth 2 pages + the page in flight + the consumed page:
            # a bounded producer sits at a few dozen; an unbounded one would
            # have finished all 10k.
            assert stalled_lead < 200, (
                f"producer ran {stalled_lead} occurrences ahead of a stalled "
                "consumer — backpressure is not bounding the stream buffer"
            )
            assert not result.ticket.done
            drained = sum(len(page) for page in page_iter)
            assert drained + 8 == FirehoseEngine.total
            report = result.report(timeout=30.0)
            assert report.num_matches == FirehoseEngine.total
            # Counting drain: pages flowed, but no occurrence list was kept.
            assert report.occurrences == []


class TestPinLifecycle:
    def test_abandoned_pages_generator_releases_pin_and_cancels(self, service):
        assert service.stats_snapshot()["pinned_epochs"] == 0
        result = service.stream(simple_query(), engine="SLOW-TEST", page_size=2)
        assert service.stats_snapshot()["pinned_epochs"] == 1
        for page in result.pages(timeout=30.0):
            break  # consumer walks away mid-iteration
        # Breaking out of the loop drops the generator; its finally-clause
        # (run on finalisation) must close the result.  Collect explicitly
        # so the test does not depend on prompt refcounting.
        gc.collect()
        assert service.stats_snapshot()["pinned_epochs"] == 0, (
            "abandoned StreamingResult leaked its snapshot pin"
        )
        assert result.ticket.wait(timeout=10.0)
        assert result.ticket.status in (TICKET_CANCELLED, TICKET_DONE)
        report = result.ticket.report
        assert report is not None and report.num_matches < SlowEngine.total, (
            "producer ran to completion despite the consumer abandoning"
        )

    def test_explicit_close_mid_stream_releases_pin_and_cancels(self, service):
        result = service.stream(simple_query(), engine="SLOW-TEST", page_size=2)
        page_iter = result.pages(timeout=30.0)
        next(page_iter)
        page_iter.close()
        assert service.stats_snapshot()["pinned_epochs"] == 0
        assert result.ticket.wait(timeout=10.0)
        assert result.ticket.status == TICKET_CANCELLED

    def test_pages_abandoned_before_first_next_releases_pin(self, service):
        # Regression: pages() used to be a plain generator, whose finally
        # clause never runs if the caller walks away before the first
        # next() — the ticket kept running and the pin leaked forever.
        assert service.stats_snapshot()["pinned_epochs"] == 0
        result = service.stream(simple_query(), engine="SLOW-TEST", page_size=2)
        ticket = result.ticket
        page_iter = result.pages(timeout=30.0)
        assert service.stats_snapshot()["pinned_epochs"] == 1
        del page_iter  # never advanced
        gc.collect()
        assert service.stats_snapshot()["pinned_epochs"] == 0, (
            "pages() abandoned before the first next() leaked its snapshot pin"
        )
        assert ticket.wait(timeout=10.0)
        assert ticket.status in (TICKET_CANCELLED, TICKET_DONE)
        assert ticket.report is not None
        assert ticket.report.num_matches < SlowEngine.total, (
            "producer ran to completion despite the consumer abandoning"
        )

    def test_unconsumed_stream_close_releases_pin(self, service):
        result = service.stream(simple_query(), engine="SLOW-TEST", page_size=2)
        result.close()
        assert service.stats_snapshot()["pinned_epochs"] == 0
        assert result.ticket.wait(timeout=10.0)

    def test_stream_gc_gauges_after_version_churn(self, service):
        # The pinned epoch must survive a publish while streaming, then be
        # GCed once the stream ends (the store's gc_count moves).
        result = service.stream(simple_query(), engine="SLOW-TEST", page_size=4)
        delta = service.store.graph  # head graph for a delta base
        from repro.dynamic import GraphDelta

        edit = GraphDelta.for_graph(delta)
        node = edit.add_node("Z")
        edit.add_edge(0, node)
        service.store.apply(edit)
        before = service.store.counters()["gc_count"]
        list(result.pages(timeout=30.0))
        after = service.store.counters()["gc_count"]
        assert result.version == 0
        assert service.store.head_version > 0
        assert after >= before + 1  # the streamed epoch was retired on release


class TestFailurePaths:
    def test_queue_full_shed_raises_and_releases_pin(self):
        config = ServiceConfig(workers=1, queue_limit=0)
        with QueryService(build_paper_graph(), config=config) as service:
            with pytest.raises(ServiceOverloadedError):
                service.stream(simple_query(), page_size=4)
            assert service.stats_snapshot()["pinned_epochs"] == 0

    def test_mid_stream_failure_surfaces_through_pages(self, service):
        result = service.stream(simple_query(), engine="BROKEN-TEST", page_size=1)
        page_iter = result.pages(timeout=30.0)
        assert next(page_iter) == ((0, 0),)
        with pytest.raises(ValueError, match="boom mid-stream"):
            list(page_iter)
        assert result.ticket.status == TICKET_FAILED
        assert service.stats_snapshot()["pinned_epochs"] == 0

    def test_prompt_consumer_close_does_not_fail_a_done_ticket(self, service):
        # Regression: the consumer's pages() finally-block releases the pin
        # the instant the sentinel arrives; the worker's post-finish
        # bookkeeping must not observe the released snapshot and flip a
        # DONE ticket to FAILED.
        for _ in range(10):
            result = service.stream(build_paper_query(), page_size=2)
            pages = list(result.pages(timeout=30.0))
            assert result.ticket.wait(timeout=10.0)
            assert result.ticket.status == TICKET_DONE, result.ticket.error
            assert result.report().num_matches == len(PAPER_ANSWER)
            assert sum(len(page) for page in pages) == len(PAPER_ANSWER)

    def test_deadline_shed_surfaces_through_pages(self):
        config = ServiceConfig(workers=1, stream_buffer_pages=1)
        with QueryService(build_paper_graph(), config=config) as service:
            # Occupy the only worker with an undrained slow stream...
            blocker = service.stream(simple_query(), engine="SLOW-TEST", page_size=1)
            # ...queue a request whose deadline lapses while it waits...
            result = service.stream(
                simple_query(), page_size=4, deadline_seconds=0.05
            )
            time.sleep(0.2)
            blocker.close()  # frees the worker after the deadline passed
            with pytest.raises(ServiceOverloadedError):
                list(result.pages(timeout=30.0))
            assert service.stats_snapshot()["pinned_epochs"] == 0
