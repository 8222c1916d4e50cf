"""Durability tests: delta write-ahead log, checkpoints, crash recovery.

Four layers, bottom-up:

* :class:`DeltaLog` — frame append/scan round-trips, torn-tail repair,
  corrupt-frame rejection;
* :class:`WalDurability` — journal / checkpoint / recover lifecycle,
  including every crash window (between journal-append and publish,
  between publish and checkpoint, mid-checkpoint, between
  checkpoint-write and log-truncate);
* the wired stack — :class:`VersionedGraphStore` journaling on both the
  sync and async writer paths, :meth:`GraphDB.open_durable`,
  :class:`GraphCatalog` durable tenants and the drop-with-pins guard;
* the acceptance bar — a :class:`GraphServer` SIGKILL'd mid-flight and
  restarted over the same ``data_dir`` recovers every tenant to the
  exact pre-crash head version with cross-engine query agreement.
"""

from __future__ import annotations

import json
import os
import signal
import struct
import subprocess
import sys
import textwrap
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
from repro.dynamic import GraphDelta
from repro.exceptions import CatalogError, StoreError, WalError
from repro.graph.digraph import DataGraph
from repro.graph.io import load_graph_json, save_graph_json
from repro.server import GraphCatalog, GraphServer
from repro.store import VersionedGraphStore
from repro.wal import (
    CHECKPOINT_FILE,
    LOG_FILE,
    DeltaLog,
    WalDurability,
    is_tenant_directory,
    log_identity,
    scan_log,
)

pytestmark = pytest.mark.timeout(120)


def small_graph(name: str = "wal") -> DataGraph:
    return DataGraph(["A", "B", "C"], [(0, 1), (1, 2)], name=name)


def growth_delta(graph: DataGraph, label: str = "B") -> GraphDelta:
    """A one-node, one-edge delta against ``graph``'s head."""
    delta = GraphDelta.for_graph(graph)
    node = delta.add_node(label)
    delta.add_edge(0, node)
    return delta


# ---------------------------------------------------------------------- #
# DeltaLog: frames on disk
# ---------------------------------------------------------------------- #


class TestDeltaLog:
    def test_append_scan_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with DeltaLog(path) as log:
            log.append({"kind": "delta", "seq": 0})
            log.append({"kind": "delta", "seq": 1})
        entries, valid, torn = scan_log(path)
        assert [entry["seq"] for entry in entries] == [0, 1]
        assert valid == os.path.getsize(path)
        assert torn == 0

    def test_missing_file_is_empty_log(self, tmp_path):
        entries, valid, torn = scan_log(str(tmp_path / "absent.log"))
        assert entries == [] and valid == 0 and torn == 0

    def test_torn_tail_detected_and_repaired(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with DeltaLog(path) as log:
            log.append({"seq": 0})
            log.append({"seq": 1})
        boundary = os.path.getsize(path)
        # simulate a crash mid-append: a complete frame followed by a stub
        with DeltaLog(path) as log:
            log.append({"seq": 2})
        with open(path, "rb+") as handle:
            handle.truncate(boundary + 3)
        entries, valid, torn = scan_log(path)
        assert [entry["seq"] for entry in entries] == [0, 1]
        assert valid == boundary and torn == 3

        log = DeltaLog(path)
        assert log.repair(valid) == 3
        log.append({"seq": 2})
        log.close()
        entries, valid, torn = scan_log(path)
        assert [entry["seq"] for entry in entries] == [0, 1, 2]
        assert torn == 0

    def test_repair_after_append_is_refused(self, tmp_path):
        log = DeltaLog(str(tmp_path / "wal.log"))
        log.append({"seq": 0})
        with pytest.raises(WalError):
            log.repair(0)
        log.close()

    def test_garbage_length_prefix_is_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"\xff\xff\xff\xff" + b"junk")
        with pytest.raises(WalError):
            scan_log(str(path))

    def test_complete_non_json_body_is_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(struct.pack(">I", 4) + b"abcd")
        with pytest.raises(WalError):
            scan_log(str(path))

    def test_truncate_drops_everything(self, tmp_path):
        log = DeltaLog(str(tmp_path / "wal.log"))
        log.append({"seq": 0})
        assert log.size_bytes > 0
        log.truncate()
        assert log.size_bytes == 0
        entries, _, _ = scan_log(log.path)
        assert entries == []
        log.close()

    def test_truncate_is_safe_against_a_concurrent_tailer(self, tmp_path):
        """Truncate-while-shipping: rotation must not yank bytes from a reader.

        A log shipper tails the journal by holding the file open; truncate
        rotates a fresh empty file into the path instead of truncating in
        place, so the tailer's handle keeps reading the *old* generation's
        stable bytes to a clean EOF (never a half-overwritten frame), and
        the rotation is detectable through :func:`log_identity`.
        """
        path = str(tmp_path / "wal.log")
        log = DeltaLog(path)
        log.append({"seq": 0})
        log.append({"seq": 1})
        old_size = os.path.getsize(path)
        identity_before = log_identity(path)
        assert identity_before is not None

        with open(path, "rb") as tailer:  # a shipper mid-tail
            assert log.truncations == 0
            log.truncate()
            assert log.truncations == 1
            # the old handle still sees every pre-truncate byte, then EOF
            payload = tailer.read()
            assert len(payload) == old_size
            assert tailer.read() == b""

        # the path now names a fresh generation...
        identity_after = log_identity(path)
        assert identity_after is not None
        assert identity_after != identity_before
        # ...which appends and scans independently of the old bytes
        log.append({"seq": 2})
        entries, _, torn = scan_log(path)
        assert [entry["seq"] for entry in entries] == [2]
        assert torn == 0
        log.close()


# ---------------------------------------------------------------------- #
# WalDurability: journal / checkpoint / recover
# ---------------------------------------------------------------------- #


class TestWalDurability:
    def test_create_writes_initial_checkpoint(self, tmp_path):
        directory = str(tmp_path / "tenant")
        graph = small_graph()
        durability = WalDurability.create(directory, graph)
        assert is_tenant_directory(directory)
        assert load_graph_json(durability.checkpoint_path) == graph
        durability.close()

    def test_create_refuses_existing_state(self, tmp_path):
        directory = str(tmp_path / "tenant")
        WalDurability.create(directory, small_graph()).close()
        with pytest.raises(WalError):
            WalDurability.create(directory, small_graph())

    def test_checkpoint_every_validation(self, tmp_path):
        with pytest.raises(WalError):
            WalDurability(str(tmp_path / "t"), checkpoint_every=0)

    def test_journal_then_recover_replays_to_head(self, tmp_path):
        directory = str(tmp_path / "tenant")
        graph = small_graph()
        durability = WalDurability.create(directory, graph)
        head = graph
        for _ in range(3):
            delta = growth_delta(head)
            folded = head.with_delta(delta)[0]
            durability.journal(delta, head.version, folded.version)
            head = folded
        durability.close()

        recovered, durability, report = WalDurability.recover(directory)
        assert recovered == head and recovered.version == head.version == 3
        assert report.entries_applied == 3 and report.entries_skipped == 0
        assert report.checkpoint_version == 0 and report.head_version == 3
        durability.close()

    def test_journal_bytes_are_the_json_frames_they_always_were(self, tmp_path):
        # The frame codec grew a second kind for match rows; the journal
        # must not have noticed.  Spell the frames the way the codec did
        # before that (length prefix + compact JSON) and compare bytes.
        def old_frame(payload):
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            return struct.pack(">I", len(body)) + body

        directory = str(tmp_path / "tenant")
        graph = small_graph()
        durability = WalDurability.create(directory, graph)
        delta = growth_delta(graph)
        folded = graph.with_delta(delta)[0]
        durability.journal(delta, graph.version, folded.version)
        durability.close()
        log_path = os.path.join(directory, LOG_FILE)
        with open(log_path, "rb") as handle:
            assert handle.read() == old_frame(
                {
                    "kind": "delta",
                    "base_version": 0,
                    "new_version": 1,
                    "num_ops": len(delta),
                    "delta": delta.to_dict(),
                }
            )

        # ... and a journal written by that older codec replays.
        second = growth_delta(folded, label="C")
        head = folded.with_delta(second)[0]
        with open(log_path, "ab") as handle:
            handle.write(
                old_frame(
                    {
                        "kind": "delta",
                        "base_version": 1,
                        "new_version": 2,
                        "num_ops": len(second),
                        "delta": second.to_dict(),
                    }
                )
            )
        recovered, durability, report = WalDurability.recover(directory)
        durability.close()
        assert recovered == head and recovered.version == 2
        assert report.entries_applied == 2

    def test_checkpoint_truncates_log(self, tmp_path):
        directory = str(tmp_path / "tenant")
        graph = small_graph()
        durability = WalDurability.create(directory, graph)
        delta = growth_delta(graph)
        head = graph.with_delta(delta)[0]
        durability.journal(delta, graph.version, head.version)
        summary = durability.checkpoint(head)
        assert summary["version"] == 1 and summary["log_entries_dropped"] == 1
        assert durability.log.size_bytes == 0
        durability.close()

        recovered, durability, report = WalDurability.recover(directory)
        assert recovered == head
        assert report.entries_applied == 0 and report.checkpoint_version == 1
        durability.close()

    def test_crash_between_checkpoint_write_and_truncate(self, tmp_path):
        # checkpoint landed but the log did not truncate: replay must
        # skip every entry the checkpoint already contains.
        directory = str(tmp_path / "tenant")
        graph = small_graph()
        durability = WalDurability.create(directory, graph)
        head = graph
        for _ in range(2):
            delta = growth_delta(head)
            folded = head.with_delta(delta)[0]
            durability.journal(delta, head.version, folded.version)
            head = folded
        # the crash: checkpoint file written, truncate never ran
        save_graph_json(head, durability.checkpoint_path)
        durability.close()

        recovered, durability, report = WalDurability.recover(directory)
        assert recovered == head and recovered.version == 2
        assert report.entries_skipped == 2 and report.entries_applied == 0
        durability.close()

    def test_unknown_entry_kind_is_corruption(self, tmp_path):
        directory = str(tmp_path / "tenant")
        durability = WalDurability.create(directory, small_graph())
        durability.log.append({"kind": "mystery"})
        durability.close()
        with pytest.raises(WalError):
            WalDurability.recover(directory)

    def test_version_mismatch_is_corruption(self, tmp_path):
        directory = str(tmp_path / "tenant")
        graph = small_graph()
        durability = WalDurability.create(directory, graph)
        delta = growth_delta(graph)
        durability.journal(delta, graph.version, 7)  # lies about the outcome
        durability.close()
        with pytest.raises(WalError):
            WalDurability.recover(directory)

    def test_closed_hook_refuses_journal_and_checkpoint(self, tmp_path):
        durability = WalDurability.create(str(tmp_path / "tenant"), small_graph())
        durability.close()
        with pytest.raises(WalError):
            durability.journal(growth_delta(small_graph()), 0, 1)
        with pytest.raises(WalError):
            durability.checkpoint(small_graph())

    def test_counters_shape(self, tmp_path):
        durability = WalDurability.create(str(tmp_path / "tenant"), small_graph())
        counters = durability.counters()
        for key in (
            "journal_entries",
            "journal_bytes",
            "checkpoints",
            "checkpoint_failures",
            "entries_since_checkpoint",
            "last_checkpoint_version",
            "log_bytes",
            "fsync",
        ):
            assert key in counters
        assert counters["checkpoints"] == 1  # the initial one
        durability.close()


# ---------------------------------------------------------------------- #
# the store drives the hook
# ---------------------------------------------------------------------- #


class TestStoreDurability:
    def open_store(self, tmp_path, **kwargs) -> VersionedGraphStore:
        graph = small_graph()
        durability = WalDurability.create(
            str(tmp_path / "tenant"), graph, **kwargs
        )
        return VersionedGraphStore(graph, durability=durability)

    def test_sync_apply_journals_before_publish(self, tmp_path):
        store = self.open_store(tmp_path)
        report = store.apply(growth_delta(store.graph))
        assert report.new_version == 1
        counters = store.durability.counters()
        assert counters["journal_entries"] == 1
        assert counters["last_journaled_version"] == 1
        entries, _, _ = scan_log(store.durability.log.path)
        assert entries[0]["base_version"] == 0 and entries[0]["new_version"] == 1
        store.close()

    def test_async_apply_journals_too(self, tmp_path):
        store = self.open_store(tmp_path)
        future = store.apply_async(growth_delta(store.graph))
        report = future.result(timeout=30.0)
        assert report.new_version == 1
        assert store.durability.counters()["journal_entries"] == 1
        store.close()

    def test_journal_failure_aborts_fold(self, tmp_path):
        store = self.open_store(tmp_path)
        store.durability.close()  # further appends raise WalError
        with pytest.raises(WalError):
            store.apply(growth_delta(store.graph))
        assert store.head_version == 0  # nothing published
        store.close()

    def test_auto_checkpoint_bounds_log_growth(self, tmp_path):
        store = self.open_store(tmp_path, checkpoint_every=2)
        store.apply(growth_delta(store.graph))
        assert store.durability.counters()["entries_since_checkpoint"] == 1
        store.apply(growth_delta(store.graph))
        counters = store.durability.counters()
        assert counters["entries_since_checkpoint"] == 0
        assert counters["checkpoints"] == 2  # initial + auto
        assert counters["last_checkpoint_version"] == 2
        assert store.durability.log.size_bytes == 0
        store.close()

    def test_manual_checkpoint_and_gauges(self, tmp_path):
        store = self.open_store(tmp_path)
        store.apply(growth_delta(store.graph))
        summary = store.checkpoint()
        assert summary["version"] == 1 and summary["log_entries_dropped"] == 1
        store.close()

    def test_checkpoint_without_durability_raises(self):
        store = VersionedGraphStore(small_graph())
        with pytest.raises(StoreError):
            store.checkpoint()
        store.close()

    def test_total_pin_count_gauge(self):
        store = VersionedGraphStore(small_graph())
        assert store.total_pin_count == 0
        snapshot = store.pin()
        assert store.total_pin_count == 1
        snapshot.release()
        assert store.total_pin_count == 0
        store.close()


# ---------------------------------------------------------------------- #
# GraphDB.open_durable + crash points
# ---------------------------------------------------------------------- #


PAPER_DSL = (
    "node a A\nnode b B\nnode c C\n"
    "edge a -> b\nedge a -> c\nedge b => c"
)


class TestGraphDBDurable:
    def test_fresh_open_ingest_recover(self, tmp_path):
        directory = str(tmp_path / "tenant")
        graph = build_paper_graph()
        with GraphDB.open_durable(
            directory, name="paper", labels=graph.labels, edges=graph.edges()
        ) as db:
            assert db.last_recovery is None
            base = db.num_nodes
            db.ingest(labels=["B"], edges=[(0, base)])
            head = db.head_version
            expected = db.query(PAPER_DSL).occurrence_set()

        with GraphDB.open_durable(directory, name="paper") as db:
            assert db.head_version == head == 1
            report = db.last_recovery
            assert report is not None and report.entries_applied == 1
            assert "recovery" in db.stats()["durability"]
            # cross-engine agreement on the recovered graph
            for engine in ("GM", "JM", "TM"):
                assert db.query(PAPER_DSL, engine=engine).occurrence_set() == expected

    @pytest.mark.parametrize("fsync", [True, False])
    def test_recovery_equals_in_memory_reingest(self, tmp_path, fsync):
        # A durable history (checkpoint mid-way, journal tail beyond it,
        # with or without per-append fsync) recovers to the very graph an
        # in-memory database reaches by folding the same deltas.
        directory = str(tmp_path / "tenant")
        graph = build_paper_graph()
        with GraphDB.open(graph) as memory:
            with GraphDB.open(
                graph, durability=WalDurability.create(directory, graph, fsync=fsync)
            ) as durable:
                for index in range(4):
                    change = one_more_occurrence(durable.num_nodes)
                    durable.ingest(**change)
                    memory.ingest(**change)
                    if index == 1:
                        durable.checkpoint()
            with GraphDB.open_durable(directory) as recovered:
                assert recovered.last_recovery.checkpoint_version == 2
                assert recovered.last_recovery.entries_applied == 2
                assert recovered.head_version == memory.head_version == 4
                assert recovered.graph == memory.graph
                answer = recovered.query(PAPER_DSL).occurrence_set()
                assert answer == memory.query(PAPER_DSL).occurrence_set()
                assert len(answer) == len(PAPER_ANSWER) + 4

    def test_facade_checkpoint_and_stats(self, tmp_path):
        directory = str(tmp_path / "tenant")
        with GraphDB.open_durable(directory, labels=["A"], edges=()) as db:
            db.ingest(labels=["B"], edges=[(0, 1)])
            stats = db.stats()
            assert stats["durability"]["journal_entries"] == 1
            summary = db.checkpoint()
            assert summary["version"] == 1
            assert db.stats()["durability"]["entries_since_checkpoint"] == 0

    def test_open_durable_on_plain_db_raises(self):
        with GraphDB.open(small_graph()) as db:
            with pytest.raises(StoreError):
                db.checkpoint()

    def test_durability_on_existing_store_rejected(self):
        store = VersionedGraphStore(small_graph())
        try:
            with pytest.raises(TypeError):
                GraphDB.open(store, durability=object())
        finally:
            store.close()


class TestCrashPoints:
    """The three kill windows of the write-ahead discipline."""

    def test_crash_between_journal_and_publish(self, tmp_path):
        # the delta reached the log but the store never published it:
        # recovery must fold it forward (it was acknowledged durable).
        directory = str(tmp_path / "tenant")
        db = GraphDB.open_durable(directory, labels=["A", "B"], edges=[(0, 1)])
        delta = db.delta()
        node = delta.add_node("B")
        delta.add_edge(0, node)
        expected = db.graph.with_delta(delta)[0]
        db.store.durability.journal(delta, db.head_version, db.head_version + 1)
        db.close()  # head still at version 0 — the "crash"

        with GraphDB.open_durable(directory) as recovered:
            assert recovered.head_version == 1
            assert recovered.graph == expected
            assert recovered.last_recovery.entries_applied == 1

    def test_crash_between_publish_and_checkpoint(self, tmp_path):
        directory = str(tmp_path / "tenant")
        db = GraphDB.open_durable(directory, labels=["A", "B"], edges=[(0, 1)])
        for _ in range(3):
            db.apply(growth_delta(db.graph))
        head, graph = db.head_version, db.graph
        db.close()  # no checkpoint ever ran

        with GraphDB.open_durable(directory) as recovered:
            assert recovered.head_version == head == 3
            assert recovered.graph == graph
            assert recovered.last_recovery.checkpoint_version == 0
            assert recovered.last_recovery.entries_applied == 3

    def test_crash_mid_checkpoint(self, tmp_path, monkeypatch):
        # the checkpoint write itself dies: the old checkpoint and the
        # full log must both survive, and recovery still reaches head.
        directory = str(tmp_path / "tenant")
        db = GraphDB.open_durable(directory, labels=["A", "B"], edges=[(0, 1)])
        db.apply(growth_delta(db.graph))
        head, graph = db.head_version, db.graph

        def torn_save(graph, path, delta=None):
            raise OSError("disk died mid-checkpoint")

        monkeypatch.setattr("repro.wal.durability.save_graph_json", torn_save)
        with pytest.raises(OSError):
            db.checkpoint()
        monkeypatch.undo()
        assert db.stats()["durability"]["checkpoint_failures"] == 1
        assert db.store.durability.log.size_bytes > 0  # log NOT truncated
        db.close()

        with GraphDB.open_durable(directory) as recovered:
            assert recovered.head_version == head
            assert recovered.graph == graph
            assert recovered.last_recovery.checkpoint_version == 0

    def test_torn_journal_tail_dropped_on_recovery(self, tmp_path):
        directory = str(tmp_path / "tenant")
        db = GraphDB.open_durable(directory, labels=["A", "B"], edges=[(0, 1)])
        db.apply(growth_delta(db.graph))
        head = db.head_version
        db.close()
        # crash mid-append: garbage half-frame at the tail
        log_path = os.path.join(directory, LOG_FILE)
        with open(log_path, "ab") as handle:
            handle.write(struct.pack(">I", 500) + b'{"kind"')

        with GraphDB.open_durable(directory) as recovered:
            assert recovered.head_version == head
            assert recovered.last_recovery.torn_bytes_dropped > 0
        # the repair truncated the file: a rescan sees no tear
        _, _, torn = scan_log(log_path)
        assert torn == 0


# ---------------------------------------------------------------------- #
# durable catalog
# ---------------------------------------------------------------------- #


class TestCatalogDurable:
    def test_create_recover_round_trip(self, tmp_path):
        data_dir = str(tmp_path / "data")
        graph = build_paper_graph()
        with GraphCatalog.open(data_dir) as catalog:
            catalog.create("paper", labels=graph.labels, edges=graph.edges())
            catalog.create("tiny", labels=["A", "B"], edges=[(0, 1)])
            paper = catalog.get("paper")
            base = paper.num_nodes
            paper.ingest(labels=["B"], edges=[(0, base)])
            versions = {
                name: catalog.get(name).head_version for name in catalog.names()
            }
            expected = paper.query(PAPER_DSL).occurrence_set()

        with GraphCatalog.open(data_dir) as catalog:
            assert set(catalog.names()) == {"paper", "tiny"}
            for name, version in versions.items():
                assert catalog.get(name).head_version == version
            assert catalog.get("paper").query(PAPER_DSL).occurrence_set() == expected

    def test_tenant_names_are_percent_encoded(self, tmp_path):
        data_dir = str(tmp_path / "data")
        name = "team/α graphs"
        with GraphCatalog.open(data_dir) as catalog:
            catalog.create(name, labels=["A"], edges=())
            storage = catalog._storage[name]
            assert os.sep not in os.path.basename(storage)
        with GraphCatalog.open(data_dir) as catalog:
            assert name in catalog

    def test_drop_keeps_storage_by_default(self, tmp_path):
        data_dir = str(tmp_path / "data")
        with GraphCatalog.open(data_dir) as catalog:
            catalog.create("t", labels=["A"], edges=())
            storage = catalog._storage["t"]
            catalog.drop("t")
            assert is_tenant_directory(storage)
        with GraphCatalog.open(data_dir) as catalog:
            assert "t" in catalog  # resurrected from disk

    def test_drop_delete_storage_removes_tenant(self, tmp_path):
        data_dir = str(tmp_path / "data")
        with GraphCatalog.open(data_dir) as catalog:
            catalog.create("t", labels=["A"], edges=())
            storage = catalog._storage["t"]
            catalog.drop("t", delete_storage=True)
            assert not os.path.exists(storage)
        with GraphCatalog.open(data_dir) as catalog:
            assert "t" not in catalog

    def test_drop_with_live_pin_refused(self, tmp_path):
        with GraphCatalog() as catalog:
            database = catalog.create("t", labels=["A", "B"], edges=[(0, 1)])
            snapshot = database.pin()
            assert database.store.total_pin_count == 1
            with pytest.raises(CatalogError, match="pinned"):
                catalog.drop("t")
            assert "t" in catalog  # refusal left the tenant registered
            snapshot.release()
            assert database.store.total_pin_count == 0
            catalog.drop("t")
            assert "t" not in catalog

    def test_drop_with_live_pin_forced(self, tmp_path):
        with GraphCatalog() as catalog:
            database = catalog.create("t", labels=["A", "B"], edges=[(0, 1)])
            database.pin()
            catalog.drop("t", force=True)
            assert "t" not in catalog
            with pytest.raises(StoreError):
                database.pin()  # the forced drop closed the store

    def test_durable_create_rejects_store_source(self, tmp_path):
        store = VersionedGraphStore(small_graph())
        try:
            with GraphCatalog.open(str(tmp_path / "data")) as catalog:
                with pytest.raises(CatalogError):
                    catalog.create("t", source=store)
        finally:
            store.close()

    def test_durable_create_refuses_existing_storage(self, tmp_path):
        data_dir = str(tmp_path / "data")
        with GraphCatalog.open(data_dir) as catalog:
            catalog.create("t", labels=["A"], edges=())
        catalog = GraphCatalog(data_dir=data_dir)
        try:
            with pytest.raises(CatalogError, match="already exists"):
                catalog.create("t", labels=["A"], edges=())
        finally:
            catalog.close()


# ---------------------------------------------------------------------- #
# the acceptance bar: SIGKILL a serving process, restart, compare
# ---------------------------------------------------------------------- #


CHILD_SERVER = textwrap.dedent(
    """
    import sys, time
    from repro.server import GraphServer

    server = GraphServer(data_dir=sys.argv[1])
    host, port = server.start()
    print(f"{host} {port}", flush=True)
    time.sleep(600)  # hold the server until the parent SIGKILLs us
    """
)


class TestServerCrashRecovery:
    def test_sigkill_restart_recovers_every_tenant(self, tmp_path):
        data_dir = str(tmp_path / "data")
        src_dir = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src_dir) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SERVER, data_dir],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = child.stdout.readline().strip()
            assert line, "child server never announced its address"
            host, port = line.split()
            graph = build_paper_graph()
            pre_crash = {}
            with GraphClient(host, int(port), timeout=60.0) as client:
                client.create_graph(
                    "paper", labels=graph.labels, edges=graph.edges()
                )
                base = client.num_nodes
                client.ingest(labels=["B"], edges=[(0, base)])
                client.create_graph("tiny", labels=["A", "B"], edges=[(0, 1)])
                client.ingest(labels=["B"], edges=[(0, 2)], graph="tiny")
                client.ingest(labels=["C"], edges=[(1, 3)], graph="tiny")
                # checkpoint one tenant mid-history: its recovery replays
                # only the post-checkpoint tail, the other replays all.
                client.checkpoint(graph="paper")
                client.ingest(labels=["C"], edges=[(base, base + 1)], graph="paper")
                for name in ("paper", "tiny"):
                    info = client.info(graph=name)
                    report = client.query(PAPER_DSL, graph=name)
                    pre_crash[name] = (
                        info["head_version"],
                        info["num_nodes"],
                        info["num_edges"],
                        report.occurrence_set(),
                    )
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30.0)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30.0)

        # restart "the process": a fresh server over the same data_dir
        with GraphServer(data_dir=data_dir) as server:
            with GraphClient(*server.address, timeout=60.0) as client:
                names = {info["name"] for info in client.graphs()}
                assert names == {"paper", "tiny"}
                for name, (version, nodes, edges, answer) in pre_crash.items():
                    info = client.info(graph=name)
                    assert info["head_version"] == version
                    assert info["num_nodes"] == nodes
                    assert info["num_edges"] == edges
                    report = client.query(PAPER_DSL, graph=name)
                    assert report.occurrence_set() == answer
                # durability survives the restart: new folds journal too
                stats = client.stats(graph="paper")
                assert stats["durability"]["recovery"]["head_version"] == (
                    pre_crash["paper"][0]
                )
                client.ingest(labels=["B"], edges=(), graph="paper")
                assert (
                    client.info(graph="paper")["head_version"]
                    == pre_crash["paper"][0] + 1
                )
