"""One set of books: every count lives in the tenant's metrics registry.

* a durable tenant driven through every counter (query, stream, batch,
  both shed reasons, cancel, failure, no-op apply, epoch GC, checkpoint,
  checkpoint failure) reports in ``stats()`` exactly what ``metrics()``
  holds, family by family;
* every family the metric-naming table of ``docs/architecture.md`` names is
  registered after such a run;
* counts taken before a layer joins a tenant are not lost: a pre-built
  store or WAL brings its registry along;
* session counts are per tenant (per session only when bare), survive
  ``clear()``, and a batch reports the registry's delta.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path
from unittest import mock

import pytest

from fixtures_paper import PAPER_ANSWER, build_paper_graph, build_paper_query
from repro import (
    GraphCatalog,
    GraphClient,
    GraphDB,
    GraphDelta,
    GraphServer,
    QueryService,
    QuerySession,
    Telemetry,
    VersionedGraphStore,
    WalDurability,
)
from repro.engines.base import Engine
from repro.exceptions import ServiceOverloadedError
from repro.service import ServiceConfig

pytestmark = pytest.mark.timeout(120)

DOCS = Path(__file__).resolve().parent.parent / "docs" / "architecture.md"

PAPER_DSL = "node a A\nnode b B\nnode c C\nedge a -> b\nedge a -> c\nedge b => c"


class GateEngine(Engine):
    """Holds its worker until ``gate`` is set, then finds nothing."""

    name = "GATE-TEST"
    gate = threading.Event()

    def _iter_evaluate(self, query, budget, profile=None):
        type(self).gate.wait(30.0)
        yield from ()


@pytest.fixture
def tenant(tmp_path):
    """A durable tenant whose every ``stats()`` counter has moved."""
    QuerySession.register_engine(GateEngine.name, GateEngine)
    graph = build_paper_graph()
    db = GraphDB.open_durable(
        tmp_path / "tenant",
        labels=graph.labels,
        edges=graph.edges(),
        config=ServiceConfig(workers=1),
    )
    try:
        query = build_paper_query()
        assert db.query(PAPER_DSL).occurrence_set() == PAPER_ANSWER
        assert {row for page in db.stream(PAPER_DSL, page_size=2).pages() for row in page} == PAPER_ANSWER
        db.run_batch([PAPER_DSL, PAPER_DSL])
        with pytest.raises(ServiceOverloadedError):
            db.query(PAPER_DSL, deadline_seconds=-1.0)

        # One worker held by the gate: a queued ticket is cancelled before
        # it runs, and a full queue sheds the next submit.
        GateEngine.gate.clear()
        blocker = db.service.submit(query, engine=GateEngine.name)
        victim = db.service.submit(query)
        victim.cancel()
        db.service.config.queue_limit = 1
        with pytest.raises(ServiceOverloadedError):
            db.service.submit(query)
        db.service.config.queue_limit = 64
        GateEngine.gate.set()
        blocker.result(timeout=30.0)
        victim.result(timeout=30.0)

        with pytest.raises(KeyError):
            db.service.submit(query, engine="NO-SUCH-ENGINE").result(timeout=30.0)

        noop = db.delta()
        noop.add_edge(*next(iter(db.graph.edges())))
        assert db.apply(noop).num_ops == 0
        pinned = db.pin()
        db.ingest(labels=["B"], edges=[(0, db.num_nodes)])
        pinned.release()  # the old epoch is retired
        db.checkpoint()
        with mock.patch(
            "repro.wal.durability.save_graph_json", side_effect=OSError("disk died")
        ):
            with pytest.raises(OSError):
                db.checkpoint()
        yield db
    finally:
        GateEngine.gate.set()
        QuerySession.unregister_engine(GateEngine.name)
        db.close()


def _family(metrics, name, **labels) -> float:
    """A family's total in a ``db.metrics()`` document (histograms: sum)."""
    family = metrics[name]
    return sum(
        series["sum"] if family["type"] == "histogram" else series["value"]
        for series in family["values"]
        if all(series["labels"].get(key) == value for key, value in labels.items())
    )


def test_every_stats_counter_is_its_metrics_family(tenant):
    stats, metrics = tenant.stats(), tenant.metrics()
    service_counts = {
        "submitted": _family(metrics, "service_submitted_total"),
        "completed": _family(metrics, "service_completed_total"),
        "failed": _family(metrics, "service_failed_total"),
        "cancelled": _family(metrics, "service_cancelled_total"),
        "shed_queue_full": _family(metrics, "service_shed_total", reason="queue_full"),
        "shed_deadline": _family(metrics, "service_shed_total", reason="deadline"),
        "shed_count": _family(metrics, "service_shed_total"),
    }
    store_counts = {
        "applies": _family(metrics, "store_applies_total"),
        "noop_applies": _family(metrics, "store_noop_applies_total"),
        "gc_count": _family(metrics, "store_gc_retired_total"),
    }
    wal_counts = {
        "journal_entries": _family(metrics, "wal_journal_entries_total"),
        "journal_bytes": _family(metrics, "wal_journal_bytes_total"),
        "checkpoints": _family(metrics, "wal_checkpoints_total"),
        "checkpoint_failures": _family(metrics, "wal_checkpoint_failures_total"),
    }
    for document, expected in (
        (stats, service_counts),
        (stats["store"], store_counts),
        (stats["durability"], wal_counts),
    ):
        for key, value in expected.items():
            assert value > 0, f"the script never moved {key}"
            assert document[key] == value, key
    assert stats["status_counts"] == {
        series["labels"]["status"]: series["value"]
        for series in metrics["service_completed_total"]["values"]
    }
    assert stats["store"]["apply_seconds"] == round(
        _family(metrics, "store_apply_seconds"), 6
    )
    durability = stats["durability"]
    assert durability["journal_seconds"] == round(_family(metrics, "wal_fsync_seconds"), 6)
    assert durability["checkpoint_seconds"] == round(
        _family(metrics, "wal_checkpoint_seconds"), 6
    )
    # the initial checkpoint of a fresh tenant is in the book, too
    assert durability["checkpoints"] == 2
    assert "versions_served" not in stats


def test_the_stats_wire_reply_reads_the_same_book(tenant):
    catalog = GraphCatalog()
    catalog.attach("g", tenant)
    server = GraphServer(catalog)
    try:
        host, port = server.start()
        with GraphClient(host, port, graph="g") as client:
            remote = client.stats()
    finally:
        server.close()
    local = tenant.stats()
    for key in ("submitted", "completed", "failed", "cancelled", "shed_count", "status_counts"):
        assert remote[key] == local[key], key
    assert remote["store"] == local["store"]


def documented_families():
    """The backticked family names of the metric-naming table."""
    section = DOCS.read_text().split("### Metric naming", 1)[1].split("\n### ", 1)[0]
    names = []
    for line in section.splitlines():
        if line.startswith("| `"):
            examples = line.split("|")[3]
            names += [re.sub(r"\{.*\}$", "", name) for name in re.findall(r"`([^`]+)`", examples)]
    return names


def test_metric_naming_table_names_registered_families(tenant):
    catalog = GraphCatalog()
    catalog.attach("g", tenant)
    server = GraphServer(catalog)
    try:
        host, port = server.start()
        with GraphClient(host, port, graph="g") as client:
            client.query(PAPER_DSL)
            for _page in client.stream(PAPER_DSL, page_size=2).pages():
                pass
    finally:
        server.close()
    names = documented_families()
    assert len(names) >= 20
    registered = set(tenant.metrics())
    assert [name for name in names if name not in registered] == []


class TestCountsBeforeJoiningATenant:
    def test_a_store_handed_to_open_brings_its_counts(self, paper_graph):
        store = VersionedGraphStore(paper_graph)
        delta = GraphDelta.for_graph(store.graph)
        delta.add_node("A")
        store.apply(delta)
        with GraphDB.open(store) as db:
            assert db.telemetry is store.telemetry
            assert db.stats()["store"]["applies"] == 1
            assert _family(db.metrics(), "store_applies_total") == 1
        store.close()

    def test_a_bare_wal_brings_its_initial_checkpoint(self, tmp_path, paper_graph):
        durability = WalDurability.create(str(tmp_path / "t"), paper_graph)
        with GraphDB.open(paper_graph, durability=durability) as db:
            assert db.stats()["durability"]["checkpoints"] == 1
            assert _family(db.metrics(), "wal_checkpoints_total") == 1

    def test_parts_with_different_registries_are_refused(self, paper_graph):
        with pytest.raises(ValueError):
            VersionedGraphStore(QuerySession(paper_graph), telemetry=Telemetry())
        store = VersionedGraphStore(paper_graph)
        try:
            with pytest.raises(ValueError):
                QueryService(store, telemetry=Telemetry())
        finally:
            store.close()


class TestSessionCounts:
    def test_bare_sessions_count_alone(self, paper_graph, paper_query):
        first, second = QuerySession(paper_graph), QuerySession(paper_graph)
        first.query(paper_query)
        assert first.cache_counts("rig") == {
            "hits": 0, "misses": 1, "invalidations": 0, "patches": 0
        }
        assert second.cache_counts()["misses"] == 0

    def test_epochs_of_a_tenant_share_counts(self, paper_graph, paper_query):
        with VersionedGraphStore(paper_graph) as store:
            with store.pin() as old:
                old.query(paper_query)
                old_session = old.session
            delta = GraphDelta.for_graph(store.graph)
            delta.add_node("A")
            store.apply(delta)
            with store.pin() as head:
                head.query(paper_query)
                assert head.session is not old_session
                # one RIG built per epoch, both counted in the tenant's book
                assert head.session.cache_counts("rig")["misses"] == 2
                assert old_session.cache_counts() == head.session.cache_counts()

    def test_batch_reports_the_registry_delta(self, paper_graph, paper_query):
        session = QuerySession(paper_graph)
        session.query(paper_query)
        before = session.cache_counts("rig")
        batch = session.run_batch({"a": paper_query, "b": paper_query})
        after = session.cache_counts("rig")
        assert batch.cache_hits["rig"] == after["hits"] - before["hits"] == 2
        assert "rig" not in batch.cache_misses
