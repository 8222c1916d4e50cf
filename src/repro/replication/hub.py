"""Primary-side log shipping: fan out published deltas to subscribers.

One :class:`ReplicationHub` per primary :class:`~repro.api.GraphDB`
(attached lazily by :func:`get_hub`).  The hub hangs a publish listener
off the versioned store, so every fold that the primary acknowledges is
immediately offered — in version order, because listeners run under the
writer lock — to every live :class:`LogSubscription`.

Subscribing is race-free against concurrent writers and checkpoints:

1. the subscription is registered first, so every publish from here on
   is buffered in its queue;
2. the head version at registration is captured;
3. the on-disk delta log is scanned (rotation-safe: a checkpoint swaps a
   fresh inode into place, it never shrinks the file under the scan);
4. the latest checkpoint (or, for a non-durable tenant, a live pinned
   snapshot) is read.

Any delta published before step 1 is either in the scanned log or
covered by the (later-read, therefore at-least-as-new) snapshot; any
delta published after step 1 sits in the queue.  The union can only
*overlap*, never gap, and the replica dedups overlaps by skipping frames
whose ``new_version`` is at or below its head.

A subscriber that cannot keep up does not stall the write path: its
bounded queue overflows, the subscription is marked lagged, and the
consumer gets a :class:`~repro.exceptions.ReplicationError` once the
buffered frames drain — its cue to resubscribe from its current version.

A :class:`LogShipper` turns one subscription into the payloads a server
connection sends to its replica.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ReplicationError
from repro.obs import context as trace_context
from repro.wal.durability import KIND_DELTA
from repro.wal.log import scan_log

#: Live frames a slow subscriber may buffer before it is declared lagged.
DEFAULT_SUBSCRIPTION_BUFFER = 1024

#: Delta frames batched into one ``log_frames`` wire frame.
LOG_SHIP_BATCH = 64

#: Idle heartbeat period: an empty batch carrying the primary's head, so
#: a caught-up replica keeps its lag gauges current without traffic.
LOG_SHIP_HEARTBEAT_SECONDS = 1.0


class LogSubscription:
    """One subscriber's bounded live-frame queue.

    The hub's publish listener calls :meth:`offer`; the shipping side
    calls :meth:`next`.  Overflow marks the subscription *lagged*: frames
    already buffered still drain (they are contiguous), after which
    :meth:`next` raises :class:`~repro.exceptions.ReplicationError` so
    the subscriber resubscribes from wherever it actually got to.
    """

    def __init__(self, hub: "ReplicationHub", buffer_frames: int) -> None:
        self._hub = hub
        self._queue: "queue.Queue[Dict[str, object]]" = queue.Queue(
            maxsize=max(1, int(buffer_frames))
        )
        self._lagged = False
        self._closed = threading.Event()

    def offer(self, frame: Dict[str, object]) -> None:
        """Buffer one live frame (called by the hub, under the writer lock)."""
        if self._lagged or self._closed.is_set():
            return
        try:
            self._queue.put_nowait(frame)
        except queue.Full:
            self._lagged = True
            self._hub._note_overflow()

    def next(self, timeout: float = 0.25) -> Optional[Dict[str, object]]:
        """Next buffered frame, or ``None`` after ``timeout`` seconds idle.

        Raises :class:`~repro.exceptions.ReplicationError` once a lagged
        subscription has drained its buffer — everything after that point
        was dropped, so tailing further would silently gap the chain.
        """
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            if self._lagged:
                raise ReplicationError(
                    "log subscription lagged: live-frame buffer overflowed; "
                    "resubscribe from the replica's current version"
                )
            return None

    @property
    def lagged(self) -> bool:
        return self._lagged

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def close(self) -> None:
        """Detach from the hub (idempotent)."""
        self._closed.set()
        self._hub.unsubscribe(self)


class LogShipper:
    """One subscription's catch-up and live frames, as wire payloads.

    :meth:`payloads` yields the catch-up entries computed at subscribe
    time, then tails the subscription's live queue, batching up to
    :data:`LOG_SHIP_BATCH` delta frames per payload::

        {"sub": s, "frames": [...], "head": primary-head-version}

    While idle it yields an empty batch about once a second — a heartbeat
    carrying the current head.  A subscription whose buffer overflowed
    (the replica fell too far behind) raises
    :class:`~repro.exceptions.ReplicationError` after its last batch; the
    server sends that as the stream's end frame, the replica's cue to
    resubscribe from wherever it actually got to.
    """

    def __init__(self, ident: int, database, subscription, entries) -> None:
        self.ident = ident
        self.database = database
        self.subscription = subscription
        self._entries = list(entries)
        self._stopped = threading.Event()

    def stop(self) -> None:
        """Stop pumping and drop the hub subscription (idempotent)."""
        self._stopped.set()
        self.subscription.close()

    def _batch(self, frames) -> Dict[str, object]:
        return {
            "sub": self.ident,
            "frames": frames,
            "head": int(self.database.head_version),
        }

    def payloads(self):
        """Catch-up, then live batches and heartbeats, until stopped."""
        for start in range(0, len(self._entries), LOG_SHIP_BATCH):
            if self._stopped.is_set():
                return
            yield self._batch(self._entries[start : start + LOG_SHIP_BATCH])
        self._entries = []
        last_sent = time.monotonic()
        while not self._stopped.is_set():
            frame = self.subscription.next(timeout=0.25)
            if frame is None:
                if time.monotonic() - last_sent >= LOG_SHIP_HEARTBEAT_SECONDS:
                    yield self._batch([])
                    last_sent = time.monotonic()
                continue
            batch = [frame]
            lag_error = None
            while len(batch) < LOG_SHIP_BATCH:
                try:
                    extra = self.subscription.next(timeout=0.0)
                except ReplicationError as exc:
                    lag_error = exc
                    break
                if extra is None:
                    break
                batch.append(extra)
            yield self._batch(batch)
            last_sent = time.monotonic()
            if lag_error is not None:
                raise lag_error


class ReplicationHub:
    """Per-primary fan-out point for journalled deltas.

    Do not construct directly — use :func:`get_hub`, which attaches one
    hub per :class:`~repro.api.GraphDB` and wires its close hook.
    """

    def __init__(self, database) -> None:
        self.database = database
        self._lock = threading.Lock()
        self._subscriptions: List[LogSubscription] = []
        self._closed = False
        self.frames_fanout = 0
        self.overflows = 0
        self.snapshots_shipped = 0
        registry = database.telemetry.registry
        registry.gauge(
            "replication_subscribers",
            "Live log-shipping subscriptions on this primary",
            fn=lambda: float(self.subscriber_count()),
        )
        self._m_fanout = registry.counter(
            "replication_frames_fanout_total",
            "Delta frames offered to log-shipping subscribers",
        )
        self._m_overflows = registry.counter(
            "replication_subscriber_overflows_total",
            "Log subscriptions dropped because their buffer overflowed",
        )
        self._m_snapshots = registry.counter(
            "replication_snapshots_shipped_total",
            "Snapshot bootstraps served to subscribers",
        )
        database.store.add_publish_listener(self._on_publish)

    # ------------------------------------------------------------------ #
    # publish side
    # ------------------------------------------------------------------ #

    def _on_publish(self, delta, old_version, new_version, published_at) -> None:
        with self._lock:
            subscribers = list(self._subscriptions)
        if not subscribers:
            return
        # Same schema the durability layer journals, plus the publish
        # instant so replicas can measure lag in seconds, not versions.
        frame = {
            "kind": KIND_DELTA,
            "base_version": int(old_version),
            "new_version": int(new_version),
            "num_ops": len(delta),
            "delta": delta.to_dict(),
            "published_at": float(published_at),
        }
        # Listeners run on the fold thread: a traced write's context (the
        # primary's live ``fold`` span) is active here, so the shipped
        # frame carries it and each replica's apply span hangs under the
        # fold that produced the version it folds.
        active = trace_context.current()
        if active is not None and active.context.sampled:
            frame["trace"] = active.context.to_wire()
        with trace_context.trace_span("ship", subscribers=len(subscribers)):
            for subscription in subscribers:
                subscription.offer(frame)
        self.frames_fanout += len(subscribers)
        self._m_fanout.inc(len(subscribers))

    def _note_overflow(self) -> None:
        self.overflows += 1
        self._m_overflows.inc()

    # ------------------------------------------------------------------ #
    # subscribe side
    # ------------------------------------------------------------------ #

    def subscribe(
        self,
        from_version: Optional[int] = None,
        buffer_frames: int = DEFAULT_SUBSCRIPTION_BUFFER,
    ) -> Tuple[LogSubscription, Dict[str, object]]:
        """Open a subscription and compute its catch-up plan.

        Returns ``(subscription, catchup)`` where ``catchup`` is::

            {"mode": "tail" | "bootstrap",
             "snapshot": graph-doc-or-None,   # bootstrap only
             "entries": [delta frames ...],   # replay after the snapshot
             "head_version": int}             # primary head at registration

        ``from_version`` asks for tail mode: ship only the journalled
        frames above that version.  Tail mode is granted only when those
        frames form an unbroken chain reaching the registration head
        (i.e. no checkpoint truncated the needed prefix away); otherwise
        the reply falls back to a full snapshot bootstrap.
        """
        with self._lock:
            if self._closed:
                raise ReplicationError("replication hub is closed")
            subscription = LogSubscription(self, buffer_frames)
            self._subscriptions.append(subscription)
        try:
            catchup = self._catchup_plan(from_version)
        except BaseException:
            subscription.close()
            raise
        return subscription, catchup

    def unsubscribe(self, subscription: LogSubscription) -> None:
        with self._lock:
            try:
                self._subscriptions.remove(subscription)
            except ValueError:
                pass

    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscriptions)

    def _catchup_plan(self, from_version: Optional[int]) -> Dict[str, object]:
        head_at_registration = int(self.database.head_version)
        durability = self.database.durability
        entries: List[Dict[str, object]] = []
        if durability is not None:
            raw, _valid, _torn = scan_log(durability.log.path)
            entries = [
                entry
                for entry in raw
                if isinstance(entry, dict) and entry.get("kind") == KIND_DELTA
            ]
            entries.sort(key=lambda entry: int(entry["new_version"]))

        if from_version is not None:
            reach = int(from_version)
            applicable = []
            contiguous = True
            for entry in entries:
                new = int(entry["new_version"])
                if new <= reach:
                    continue
                if int(entry["base_version"]) > reach:
                    contiguous = False  # a checkpoint ate the needed prefix
                    break
                applicable.append(entry)
                reach = new
            if contiguous and reach >= head_at_registration:
                return {
                    "mode": "tail",
                    "snapshot": None,
                    "entries": applicable,
                    "head_version": head_at_registration,
                }

        snapshot = self._snapshot_doc(durability)
        base = int(snapshot["version"])
        applicable = [
            entry for entry in entries if int(entry["new_version"]) > base
        ]
        self.snapshots_shipped += 1
        self._m_snapshots.inc()
        return {
            "mode": "bootstrap",
            "snapshot": snapshot,
            "entries": applicable,
            "head_version": head_at_registration,
        }

    def _snapshot_doc(self, durability) -> Dict[str, object]:
        if durability is not None and os.path.exists(durability.checkpoint_path):
            with open(durability.checkpoint_path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
            return {
                "name": document.get("name"),
                "version": int(document.get("version", 0)),
                "labels": list(document.get("labels", [])),
                "edges": [list(edge) for edge in document.get("edges", [])],
            }
        # Non-durable tenant: serialise the live head.  Read *after* the
        # subscription registered, so its version is >= every frame the
        # log scan could have missed.
        with self.database.store.pin() as pinned:
            graph = pinned.graph
            return {
                "name": graph.name,
                "version": int(graph.version),
                "labels": list(graph.labels),
                "edges": [[source, target] for source, target in graph.edges()],
            }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Detach from the store and drop every subscription (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            subscriptions = list(self._subscriptions)
            self._subscriptions.clear()
        self.database.store.remove_publish_listener(self._on_publish)
        for subscription in subscriptions:
            subscription._closed.set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplicationHub(subscribers={self.subscriber_count()}, "
            f"fanout={self.frames_fanout}, overflows={self.overflows})"
        )


_HUB_LOCK = threading.Lock()


def get_hub(database) -> ReplicationHub:
    """The database's replication hub, created and attached on first use.

    The hub registers itself as ``database.replication_hub`` and hooks
    ``database.close()`` so shutdown detaches the publish listener.
    """
    with _HUB_LOCK:
        hub = getattr(database, "replication_hub", None)
        if hub is None or hub._closed:
            hub = ReplicationHub(database)
            database.replication_hub = hub
            hooks = getattr(database, "_close_hooks", None)
            if hooks is not None:
                hooks.append(hub.close)
        return hub
