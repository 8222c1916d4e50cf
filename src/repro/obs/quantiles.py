"""Shared quantile helpers: one percentile definition for the whole stack.

:func:`percentile` is the one nearest-rank percentile definition (the
service's latency stats read it), so numbers stay comparable over history.

:class:`Reservoir` is the bounded companion: a uniform sample over an
unbounded observation stream (Vitter's algorithm R), so long-running
services can report latency percentiles over their *whole* history in
O(capacity) memory instead of keeping every sample or only a sliding
window.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in ``[0, 1]``).

    Returns ``0.0`` for an empty sample set.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class Reservoir:
    """A bounded uniform sample of an observation stream (algorithm R).

    The first ``capacity`` observations are kept verbatim; each later
    observation replaces a uniformly random slot with probability
    ``capacity / seen``, so at any point the retained samples are a uniform
    sample of everything observed.  Not internally locked — callers that
    share a reservoir across threads must serialise :meth:`add` themselves
    (``QueryService`` holds a lock around its latency reservoir).
    """

    __slots__ = ("capacity", "_samples", "_seen", "_random")

    def __init__(self, capacity: int = 4096, seed: Optional[int] = None) -> None:
        if capacity <= 0:
            raise ValueError(f"reservoir capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._samples: List[float] = []
        self._seen = 0
        self._random = random.Random(seed)

    def add(self, value: float) -> None:
        """Record one observation."""
        self._seen += 1
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            return
        slot = self._random.randrange(self._seen)
        if slot < self.capacity:
            self._samples[slot] = value

    @property
    def seen(self) -> int:
        """Total observations ever added (not just those retained)."""
        return self._seen

    def __len__(self) -> int:
        return len(self._samples)

    def samples(self) -> List[float]:
        """A copy of the retained samples (unsorted)."""
        return list(self._samples)

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile over the retained samples."""
        return percentile(self._samples, fraction)

    def clear(self) -> None:
        """Drop every sample and reset the seen counter."""
        self._samples.clear()
        self._seen = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Reservoir({len(self._samples)}/{self.capacity} of {self._seen} seen)"
