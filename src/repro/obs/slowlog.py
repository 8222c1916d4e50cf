"""SlowQueryLog: a structured JSON-lines record of over-threshold queries.

Every query the service completes is offered to the log with its duration;
entries at or above ``threshold_seconds`` are recorded with the full span
breakdown of their trace (when sampled), the engine phase timings, and the
terminal status — enough to answer "what made this query slow?" without
re-running it.  ``threshold_seconds=None`` (the default) disables the log
entirely; ``0.0`` records everything (useful in tests and benchmarks).

Entries land in a bounded in-memory ring (served over the wire by the
``trace`` op, beside the tenant's spans; each traced entry carries its
``trace_id``) and, when ``path`` is given, are appended as one JSON
object per line to a file a human can ``tail -f`` or feed to ``jq``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Dict, List, Optional

from repro.obs.events import tail


class SlowQueryLog:
    """Bounded ring + optional JSON-lines file of slow-query records."""

    def __init__(
        self,
        threshold_seconds: Optional[float] = None,
        path: Optional[str] = None,
        capacity: int = 128,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"slow-log capacity must be positive, got {capacity}")
        self.threshold_seconds = threshold_seconds
        self.path = path
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: deque = deque(maxlen=capacity)
        self._recorded = 0

    @property
    def enabled(self) -> bool:
        """True when a threshold is configured."""
        return self.threshold_seconds is not None

    @property
    def recorded(self) -> int:
        """Total entries ever recorded (the ring keeps only the last N)."""
        with self._lock:
            return self._recorded

    def record(self, seconds: float, **fields) -> bool:
        """Offer one completed query; returns True if it was logged.

        ``fields`` become the entry body (query name, engine, status, the
        trace's span tree, ...); ``ts`` and ``seconds`` are stamped here.
        """
        threshold = self.threshold_seconds
        if threshold is None or seconds < threshold:
            return False
        entry: Dict[str, object] = {"ts": time.time(), "seconds": seconds}
        entry.update(fields)
        with self._lock:
            self._entries.append(entry)
            self._recorded += 1
        if self.path is not None:
            line = json.dumps(entry, sort_keys=True, default=repr)
            try:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
            except OSError:
                pass  # observability must never take the query path down
        return True

    def recent(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """The most recent entries, oldest first (capped at ``limit``)."""
        with self._lock:
            entries = tail(self._entries, limit)
        return [dict(entry) for entry in entries]

    def clear(self) -> None:
        """Empty the in-memory ring (the file, if any, is untouched)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            f"threshold={self.threshold_seconds}s"
            if self.enabled
            else "disabled"
        )
        return f"SlowQueryLog({state}, {len(self)} held)"
