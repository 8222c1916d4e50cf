"""Bounded server event ring: recent lifecycle events, queryable.

Log lines scroll away with the process's stderr; the ops console (and
anything else watching a fleet) wants the *recent* lifecycle events of a
node — connects, tenant creates/drops, recoveries, sheds, checkpoints —
as data.  :class:`EventLog` is that surface: a thread-safe bounded ring
of structured event records every :class:`~repro.server.GraphServer`
emits into alongside its log lines, exposed over the wire as the
``events`` op and merged fleet-wide by
:class:`~repro.obs.federation.ClusterMonitor`.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["EventLog", "tail"]


def tail(items: Iterable, limit: Optional[int] = None) -> list:
    """The last ``limit`` of ``items`` (all of them when ``limit`` is None).

    The one ``limit`` rule of every bounded ring the stack serves (events,
    spans, slow queries) and of the fleet-wide merges over them: a
    non-positive limit means none.
    """
    items = list(items)
    if limit is None:
        return items
    return items[max(0, len(items) - max(0, int(limit))):]


class EventLog:
    """A bounded, monotonically-sequenced ring of lifecycle events.

    Each record is ``{"seq", "ts", "kind", "message", ...fields}``; the
    sequence number survives ring overflow, so a poller that remembers
    the last ``seq`` it saw can detect dropped events.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = max(1, int(capacity))
        self._lock = threading.Lock()
        self._events: List[Dict[str, object]] = []
        self._seq = 0

    def emit(self, kind: str, message: str, **fields) -> Dict[str, object]:
        """Record one event; returns the stored record."""
        with self._lock:
            self._seq += 1
            record: Dict[str, object] = {
                "seq": self._seq,
                "ts": time.time(),
                "kind": str(kind),
                "message": str(message),
            }
            for key, value in fields.items():
                if value is not None:
                    record[key] = value
            self._events.append(record)
            if len(self._events) > self.capacity:
                del self._events[: len(self._events) - self.capacity]
            return dict(record)

    def recent(
        self,
        limit: Optional[int] = None,
        kinds: Optional[Sequence[str]] = None,
        after_seq: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        """The newest retained events, oldest first.

        ``kinds`` filters by event kind; ``after_seq`` returns only
        events the caller has not seen yet (strictly greater sequence).
        """
        with self._lock:
            events = [dict(event) for event in self._events]
        if kinds is not None:
            wanted = set(kinds)
            events = [event for event in events if event["kind"] in wanted]
        if after_seq is not None:
            events = [event for event in events if int(event["seq"]) > int(after_seq)]
        return tail(events, limit)

    @property
    def last_seq(self) -> int:
        """The newest sequence number ever emitted (0 when empty)."""
        with self._lock:
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventLog({len(self)}/{self.capacity} events, seq={self.last_seq})"
