"""Tests for the concurrent query service: admission, deadlines, streaming."""

import pytest

from fixtures_paper import B0, C0, PAPER_ANSWER
from repro.dynamic import GraphDelta
from repro.exceptions import ServiceOverloadedError, StoreError
from repro.matching.result import MatchStatus
from repro.service import (
    QueryService,
    ServiceConfig,
    TICKET_CANCELLED,
    TICKET_DONE,
    TICKET_SHED,
)
from repro.store import VersionedGraphStore


@pytest.fixture()
def service(paper_graph) -> QueryService:
    service = QueryService(
        paper_graph, config=ServiceConfig(workers=2, queue_limit=8)
    )
    yield service
    service.close()


def _new_a_delta(graph):
    delta = GraphDelta.for_graph(graph)
    node = delta.add_node("A")
    delta.add_edge(node, B0)
    delta.add_edge(node, C0)
    return delta, node


class TestSubmitAndQuery:
    def test_sync_query(self, service, paper_query):
        report = service.submit(paper_query).result()
        assert report.occurrence_set() == PAPER_ANSWER

    def test_ticket_lifecycle(self, service, paper_query):
        ticket = service.submit(paper_query)
        report = ticket.result(timeout=30.0)
        assert ticket.status == TICKET_DONE
        assert ticket.done and ticket.pinned_version == 0
        assert report.occurrence_set() == PAPER_ANSWER

    def test_engine_selection(self, service, paper_graph, paper_query):
        from repro.session import QuerySession

        reference = QuerySession(paper_graph)
        for engine in ("GM", "Neo4j", "EH"):
            assert (
                service.submit(paper_query, engine=engine).result().occurrence_set()
                == reference.query(paper_query, engine=engine).occurrence_set()
            ), engine

    def test_submit_after_close_raises(self, paper_graph, paper_query):
        service = QueryService(paper_graph)
        service.close()
        with pytest.raises(StoreError):
            service.submit(paper_query)


class TestBatchesAndVersions:
    def test_batch_carries_pinned_version(self, service, paper_query):
        batch = service.run_batch({"q": paper_query, "again": paper_query})
        assert batch.version == 0
        assert batch.num_queries == 2 and batch.solved_count == 2

    def test_batch_after_apply_sees_new_version(self, service, paper_query):
        delta, node = _new_a_delta(service.store.graph)
        service.store.apply(delta)
        batch = service.run_batch({"q": paper_query})
        assert batch.version == 1
        assert (node, B0, C0) in batch.answers()["q"]

    def test_batch_on_explicit_snapshot_is_version_stable(self, service, paper_query):
        snapshot = service.store.pin()
        try:
            delta, _node = _new_a_delta(service.store.graph)
            service.store.apply(delta)
            batch = service.run_batch({"q": paper_query}, snapshot=snapshot)
            assert batch.version == 0
            assert batch.answers()["q"] == PAPER_ANSWER
        finally:
            snapshot.release()

    def test_batch_queries_count_as_completions(self, service, paper_query):
        first = service.run_batch({"q": paper_query})
        delta, _node = _new_a_delta(service.store.graph)
        service.store.apply(delta)
        second = service.run_batch({"q": paper_query})
        assert (first.version, second.version) == (0, 1)
        snapshot = service.stats_snapshot()
        assert snapshot["submitted"] == snapshot["completed"] == 2
        assert snapshot["status_counts"] == {"ok": 2}


class TestAdmissionControl:
    def test_queue_full_sheds(self, paper_graph, paper_query):
        # submits far outpace a single worker: the bounded queue must shed
        service = QueryService(
            paper_graph, config=ServiceConfig(workers=1, queue_limit=1)
        )
        try:
            shed = None
            tickets = []
            for _attempt in range(500):
                try:
                    tickets.append(service.submit(paper_query))
                except ServiceOverloadedError as error:
                    shed = error
                    break
            assert shed is not None and shed.reason == "queue_full"
            assert service.stats_snapshot()["shed_queue_full"] >= 1
            # admitted tickets still complete normally
            for ticket in tickets:
                ticket.result(timeout=30.0)
        finally:
            service.close()

    def test_deadline_shed_before_execution(self, service, paper_query):
        ticket = service.submit(paper_query, deadline_seconds=-0.5)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            ticket.result(timeout=30.0)
        assert excinfo.value.reason == "deadline"
        assert ticket.status == TICKET_SHED
        assert service.stats_snapshot()["shed_deadline"] == 1

    def test_deadline_clamps_running_budget(self, service, paper_query):
        # a generous deadline leaves the budget's own limit intact
        report = service.submit(paper_query, deadline_seconds=60.0).result()
        assert report.status is MatchStatus.OK

    def test_cancel_queued_ticket(self, service, paper_query):
        ticket = service.submit(paper_query)
        ticket.cancel()
        ticket.wait(timeout=30.0)
        assert ticket.status in (TICKET_CANCELLED, TICKET_DONE)
        # result() honours the contract either way: a report, never a crash
        report = ticket.result(timeout=30.0)
        if ticket.status == TICKET_CANCELLED:
            assert report.status is MatchStatus.CANCELLED
            # a never-executed query records no completion or latency sample
            snapshot = service.stats_snapshot()
            assert snapshot["cancelled"] == 1 and snapshot["completed"] == 0

    def test_shed_count_aggregates(self, service, paper_query):
        ticket = service.submit(paper_query, deadline_seconds=-1.0)
        with pytest.raises(ServiceOverloadedError):
            ticket.result(timeout=30.0)
        assert service.stats_snapshot()["shed_count"] == 1


class TestStreaming:
    def test_pages_partition_occurrences(self, service, paper_query):
        with service.stream(paper_query, page_size=2) as stream:
            pages = list(stream.pages(timeout=30.0))
        assert sum(len(page) for page in pages) == len(PAPER_ANSWER)
        assert all(len(page) <= 2 for page in pages)
        flattened = {occurrence for page in pages for occurrence in page}
        assert flattened == PAPER_ANSWER

    def test_stream_pins_its_version_across_applies(self, service, paper_query):
        stream = service.stream(paper_query, page_size=4)
        delta, _node = _new_a_delta(service.store.graph)
        service.store.apply(delta)  # publishes v1 while the stream is pinned to v0
        occurrences = set(stream)
        assert stream.version == 0
        assert occurrences == PAPER_ANSWER

    def test_stream_releases_pin_on_close(self, service, paper_query):
        stream = service.stream(paper_query, page_size=4)
        assert service.store.pinned_epoch_count == 1
        stream.close()
        assert service.store.pinned_epoch_count == 0

    def test_iteration_releases_pin(self, service, paper_query):
        list(service.stream(paper_query, page_size=3))
        assert service.store.pinned_epoch_count == 0

    def test_invalid_page_size(self, service, paper_query):
        with pytest.raises(ValueError):
            service.stream(paper_query, page_size=0)


class TestStatsSnapshot:
    def test_snapshot_shape(self, service, paper_query):
        service.submit(paper_query).result()
        snapshot = service.stats_snapshot()
        for key in (
            "submitted",
            "completed",
            "shed_count",
            "throughput_qps",
            "latency_p50_seconds",
            "latency_p95_seconds",
            "latency_p99_seconds",
            "head_version",
            "pinned_epochs",
            "versions_retained",
            "store",
        ):
            assert key in snapshot, key
        assert snapshot["completed"] == 1
        assert snapshot["latency_p50_seconds"] >= 0.0
        assert snapshot["store"]["applies"] == 0

    def test_percentiles_monotone(self, service, paper_query):
        for _round in range(5):
            service.submit(paper_query).result()
        stats = service.stats_snapshot()
        assert (
            stats["latency_p50_seconds"]
            <= stats["latency_p95_seconds"]
            <= stats["latency_p99_seconds"]
        )

    def test_service_over_existing_store(self, paper_graph, paper_query):
        store = VersionedGraphStore(paper_graph)
        service = QueryService(store, config=ServiceConfig(workers=1))
        try:
            service.submit(paper_query).result()
        finally:
            service.close()
        # the service did not own the store: still usable
        with store.pin() as snap:
            assert snap.query(paper_query).occurrence_set() == PAPER_ANSWER
        store.close()
