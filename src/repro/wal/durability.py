"""WalDurability: journal + checkpoint + recovery for one graph tenant.

One durable tenant owns one directory::

    <tenant>/
        checkpoint.json   # atomic save_graph_json of some published version
        wal.log           # delta frames journaled since that checkpoint

The lifecycle is the classic write-ahead discipline, composed entirely
from primitives the library already had:

* **journal** — before a fold is published (and before its caller is
  acknowledged), the delta is appended to ``wal.log`` as one fsync'd
  frame carrying ``base_version``/``new_version``
  (:meth:`~repro.dynamic.GraphDelta.to_dict` is the body);
* **checkpoint** — the head graph is written to ``checkpoint.json``
  atomically (:func:`~repro.graph.io.save_graph_json`: temp file +
  ``os.replace``), after which the log truncates — every journaled delta
  is already inside the checkpoint;
* **recover** — load the latest checkpoint, fold the log tail into it one
  entry at a time (:meth:`~repro.graph.digraph.DataGraph.with_delta`),
  *skipping any entry whose version is ≤ the checkpoint's*.  The skip
  makes every crash window idempotent: a crash between checkpoint-write
  and log-truncate replays nothing twice, and a crash between
  journal-append and publish simply folds the acknowledged-but-unpublished
  delta forward.

The hook is driven by :class:`~repro.store.VersionedGraphStore` (which
journals under its writer lock, so appends are naturally serialised) but
is usable standalone.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from typing import Dict, Optional, Tuple

from repro.dynamic.delta import GraphDelta
from repro.exceptions import GraphError, WalError
from repro.graph.digraph import DataGraph
from repro.graph.io import load_graph_json, save_graph_json
from repro.obs.metrics import MetricsRegistry
from repro.wal.log import DeltaLog, scan_log

#: File names inside a tenant's durability directory.
LOG_FILE = "wal.log"
CHECKPOINT_FILE = "checkpoint.json"

#: Frame kind tag of a journaled delta.
KIND_DELTA = "delta"


def is_tenant_directory(directory: str) -> bool:
    """True if ``directory`` holds durable tenant state (checkpoint or log)."""
    return os.path.exists(os.path.join(directory, CHECKPOINT_FILE)) or os.path.exists(
        os.path.join(directory, LOG_FILE)
    )


def remove_tenant_directory(directory: str) -> None:
    """Delete a tenant's durable state (checkpoint, log, the directory)."""
    shutil.rmtree(directory, ignore_errors=True)


class RecoveryReport:
    """What one :meth:`WalDurability.recover` pass did."""

    __slots__ = (
        "checkpoint_version",
        "head_version",
        "entries_applied",
        "entries_skipped",
        "torn_bytes_dropped",
        "seconds",
    )

    def __init__(
        self,
        checkpoint_version: int,
        head_version: int,
        entries_applied: int,
        entries_skipped: int,
        torn_bytes_dropped: int,
        seconds: float,
    ) -> None:
        self.checkpoint_version = checkpoint_version
        self.head_version = head_version
        self.entries_applied = entries_applied
        self.entries_skipped = entries_skipped
        self.torn_bytes_dropped = torn_bytes_dropped
        self.seconds = seconds

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (stats / wire reporting)."""
        return {
            "checkpoint_version": self.checkpoint_version,
            "head_version": self.head_version,
            "entries_applied": self.entries_applied,
            "entries_skipped": self.entries_skipped,
            "torn_bytes_dropped": self.torn_bytes_dropped,
            "seconds": round(self.seconds, 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RecoveryReport({self.as_dict()})"


class WalDurability:
    """The durability hook a :class:`~repro.store.VersionedGraphStore` calls.

    Parameters
    ----------
    directory:
        The tenant's storage directory (created if missing).
    checkpoint_every:
        When set, :meth:`should_checkpoint` turns true once that many
        deltas sit in the log — the store then checkpoints automatically
        right after publishing, bounding both log growth and recovery
        replay length.  ``None`` leaves checkpointing fully manual.
    fsync:
        Passed to the :class:`~repro.wal.log.DeltaLog`; ``False`` drops
        the per-append fsync (benchmarking only — it voids the guarantee).
    registry:
        The :class:`~repro.obs.MetricsRegistry` the hook counts journal
        appends and checkpoints into (``wal_*`` families) — the tenant's,
        so the initial checkpoint of :meth:`create` is counted there too.
        A hook built without one owns a private registry.

    Construct via :meth:`create` (fresh tenant: writes the initial
    checkpoint so recovery always has a base) or :meth:`recover`
    (existing storage: returns the replayed head graph alongside the
    ready-to-append hook).
    """

    def __init__(
        self,
        directory: str,
        checkpoint_every: Optional[int] = None,
        fsync: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.directory = os.fspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        if checkpoint_every is not None and checkpoint_every < 1:
            raise WalError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.checkpoint_every = checkpoint_every
        self.log = DeltaLog(os.path.join(self.directory, LOG_FILE), fsync=fsync)
        self.checkpoint_path = os.path.join(self.directory, CHECKPOINT_FILE)
        self._lock = threading.Lock()
        self._entries_since_checkpoint = 0
        self._last_checkpoint_version: Optional[int] = None
        self._last_journaled_version: Optional[int] = None
        self._recovery: Optional[RecoveryReport] = None
        self._closed = False
        registry = self.registry = registry if registry is not None else MetricsRegistry()
        # The fsync-latency histogram observes the full durable-append time
        # (serialise + write + fsync) of each journaled delta — the per-fold
        # price of the write-ahead guarantee.
        self._m_journal_entries = registry.counter(
            "wal_journal_entries_total", "Deltas journaled ahead of publish"
        )
        self._m_journal_bytes = registry.counter(
            "wal_journal_bytes_total", "Bytes appended to the delta log"
        )
        self._m_fsync_seconds = registry.histogram(
            "wal_fsync_seconds", "Durable journal-append latency (incl. fsync)"
        )
        self._m_checkpoints = registry.counter(
            "wal_checkpoints_total", "Checkpoints written"
        )
        self._m_checkpoint_failures = registry.counter(
            "wal_checkpoint_failures_total", "Checkpoint attempts that raised"
        )
        self._m_checkpoint_seconds = registry.histogram(
            "wal_checkpoint_seconds", "Checkpoint write + log truncate latency"
        )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(cls, directory: str, graph, **kwargs) -> "WalDurability":
        """Initialise fresh durable storage seeded with ``graph``.

        Writes the initial checkpoint (so a tenant that crashes before its
        first delta still recovers) and returns the ready hook.  Refuses a
        directory that already holds tenant state — recover that instead.
        """
        directory = os.fspath(directory)
        if is_tenant_directory(directory):
            raise WalError(
                f"{directory}: already holds durable tenant state; "
                "use WalDurability.recover(...)"
            )
        durability = cls(directory, **kwargs)
        durability.checkpoint(graph)
        return durability

    @classmethod
    def recover(
        cls, directory: str, name: Optional[str] = None, **kwargs
    ) -> Tuple[DataGraph, "WalDurability", RecoveryReport]:
        """Rebuild the head graph from checkpoint + log tail.

        Returns ``(graph, durability, report)``: the graph at the exact
        version the journal acknowledged last, a hook ready to append
        (torn tails repaired), and what the replay did.  Entries whose
        ``new_version`` is ≤ the checkpoint's version are skipped, so a
        crash anywhere in the checkpoint/truncate window replays cleanly.
        """
        started = time.perf_counter()
        directory = os.fspath(directory)
        checkpoint_path = os.path.join(directory, CHECKPOINT_FILE)
        if os.path.exists(checkpoint_path):
            graph = load_graph_json(checkpoint_path, name=name)
        else:
            graph = DataGraph([], [], name=name or os.path.basename(directory))
        checkpoint_version = graph.version
        entries, valid_bytes, torn_bytes = scan_log(os.path.join(directory, LOG_FILE))
        applied = skipped = 0
        # One structure-shared fold per entry: each costs O(its ops), not
        # O(graph) — this is why recovery beats re-ingesting the same
        # deltas through the store.
        for index, payload in enumerate(entries):
            if payload.get("kind") != KIND_DELTA:
                raise WalError(
                    f"{directory}: journal entry {index} has unknown kind "
                    f"{payload.get('kind')!r}"
                )
            raw_version = payload.get("new_version")
            new_version = None if raw_version is None else int(raw_version)
            if new_version is not None and new_version <= graph.version:
                skipped += 1
                continue
            try:
                folded, _ = graph.with_delta(GraphDelta.from_dict(payload.get("delta") or {}))
            except GraphError as exc:
                raise WalError(
                    f"{directory}: journal entry {index} does not replay "
                    f"against version {graph.version}: {exc}"
                ) from exc
            if new_version is not None and folded.version != new_version:
                raise WalError(
                    f"{directory}: journal entry {index} announced version "
                    f"{new_version} but replay produced {folded.version}"
                )
            graph = folded
            applied += 1
        durability = cls(directory, **kwargs)
        dropped = durability.log.repair(valid_bytes)
        durability._entries_since_checkpoint = len(entries)
        durability._last_checkpoint_version = checkpoint_version
        durability._last_journaled_version = graph.version if entries else None
        report = RecoveryReport(
            checkpoint_version=checkpoint_version,
            head_version=graph.version,
            entries_applied=applied,
            entries_skipped=skipped,
            torn_bytes_dropped=dropped,
            seconds=time.perf_counter() - started,
        )
        durability._recovery = report
        return graph, durability, report

    # ------------------------------------------------------------------ #
    # the hook surface the store drives
    # ------------------------------------------------------------------ #

    def journal(self, delta: GraphDelta, old_version: int, new_version: int) -> None:
        """Append one fold's delta to the log, durably, *before* publish.

        Raising here (disk full, closed hook) aborts the fold — the store
        never publishes a version whose delta is not on stable storage.
        """
        if self._closed:
            raise WalError(f"{self.directory}: durability hook is closed")
        started = time.perf_counter()
        written = self.log.append(
            {
                "kind": KIND_DELTA,
                "base_version": int(old_version),
                "new_version": int(new_version),
                "num_ops": len(delta),
                "delta": delta.to_dict(),
            }
        )
        elapsed = time.perf_counter() - started
        with self._lock:
            self._entries_since_checkpoint += 1
            self._last_journaled_version = int(new_version)
        self._m_journal_entries.inc()
        self._m_journal_bytes.inc(written)
        self._m_fsync_seconds.observe(elapsed)

    def should_checkpoint(self) -> bool:
        """True when the auto-checkpoint threshold is reached."""
        if self.checkpoint_every is None:
            return False
        with self._lock:
            return self._entries_since_checkpoint >= self.checkpoint_every

    def checkpoint(self, graph) -> Dict[str, object]:
        """Snapshot ``graph`` atomically, then truncate the log.

        The write order is the safety argument: the checkpoint replaces
        the old one atomically *first*, so a crash before the truncate
        leaves checkpoint + full log (replay skips the duplicate prefix by
        version), and a crash during the checkpoint write leaves the old
        checkpoint + full log (replay reaches head anyway).
        """
        if self._closed:
            raise WalError(f"{self.directory}: durability hook is closed")
        started = time.perf_counter()
        try:
            save_graph_json(graph, self.checkpoint_path)
        except BaseException:
            self._m_checkpoint_failures.inc()
            raise
        self.log.truncate()
        version = getattr(graph, "version", 0)
        elapsed = time.perf_counter() - started
        with self._lock:
            dropped = self._entries_since_checkpoint
            self._entries_since_checkpoint = 0
            self._last_checkpoint_version = version
        self._m_checkpoints.inc()
        self._m_checkpoint_seconds.observe(elapsed)
        return {
            "path": self.checkpoint_path,
            "version": version,
            "log_entries_dropped": dropped,
        }

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #

    def counters(self) -> Dict[str, object]:
        """The durability counts, read from the ``wal_*`` families, with the
        hook's log state (for ``stats()`` surfaces)."""
        read = self.registry.read
        with self._lock:
            counters: Dict[str, object] = {
                "directory": self.directory,
                "journal_entries": int(read("wal_journal_entries_total")),
                "journal_bytes": int(read("wal_journal_bytes_total")),
                "journal_seconds": round(read("wal_fsync_seconds"), 6),
                "checkpoints": int(read("wal_checkpoints_total")),
                "checkpoint_failures": int(read("wal_checkpoint_failures_total")),
                "checkpoint_seconds": round(read("wal_checkpoint_seconds"), 6),
                "entries_since_checkpoint": self._entries_since_checkpoint,
                "last_checkpoint_version": self._last_checkpoint_version,
                "last_journaled_version": self._last_journaled_version,
                "log_bytes": self.log.size_bytes,
                "fsync": self.log.fsync,
            }
            if self._recovery is not None:
                counters["recovery"] = self._recovery.as_dict()
            return counters

    @property
    def last_recovery(self) -> Optional[RecoveryReport]:
        """The report of the recovery pass that opened this hook, if any."""
        return self._recovery

    def close(self) -> None:
        """Close the log handle; further journal/checkpoint calls raise."""
        self._closed = True
        self.log.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WalDurability(directory={self.directory!r}, "
            f"pending={self._entries_since_checkpoint}, "
            f"checkpoints={int(self.registry.read('wal_checkpoints_total'))})"
        )
