"""Batch execution reporting: per-query outcomes and aggregate statistics.

A :class:`BatchReport` is what :meth:`repro.session.QuerySession.run_batch`
returns: one :class:`QueryOutcome` per query plus the aggregates a serving
system monitors — latency percentiles, solved counts, throughput and the
session cache's hit/miss counters over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.matching.result import MatchStatus
from repro.obs.quantiles import percentile  # noqa: F401  (canonical home; re-exported)


@dataclass
class QueryOutcome:
    """Result of one query inside a batch."""

    name: str
    seconds: float
    num_matches: int
    status: str
    occurrences: Tuple[Tuple[int, ...], ...] = ()
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def solved(self) -> bool:
        """True if the query counts as solved (ok or match-limit)."""
        return self.status in (MatchStatus.OK.value, MatchStatus.MATCH_LIMIT.value)

    def occurrence_set(self) -> frozenset:
        """The occurrences as a frozenset (for answer comparison)."""
        return frozenset(self.occurrences)


@dataclass
class BatchReport:
    """Aggregate outcome of one :meth:`QuerySession.run_batch` call."""

    engine: str
    outcomes: List[QueryOutcome]
    wall_seconds: float
    workers: int
    #: Per-artifact cache hits / misses during this batch: the delta of the
    #: ``session_cache_*`` registry counters between batch start and end.
    #: The registry is the tenant's, so on a store epoch the delta includes
    #: concurrent reads of the same tenant.
    cache_hits: Dict[str, int] = field(default_factory=dict)
    cache_misses: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #

    @property
    def num_queries(self) -> int:
        """Number of queries executed."""
        return len(self.outcomes)

    @property
    def solved_count(self) -> int:
        """Number of solved queries."""
        return sum(1 for outcome in self.outcomes if outcome.solved)

    @property
    def total_matches(self) -> int:
        """Sum of match counts over the batch."""
        return sum(outcome.num_matches for outcome in self.outcomes)

    def latency_percentile(self, fraction: float) -> float:
        """Nearest-rank latency percentile over the batch."""
        return percentile([outcome.seconds for outcome in self.outcomes], fraction)

    @property
    def p50(self) -> float:
        """Median per-query latency."""
        return self.latency_percentile(0.50)

    @property
    def p90(self) -> float:
        """90th-percentile per-query latency."""
        return self.latency_percentile(0.90)

    @property
    def p99(self) -> float:
        """99th-percentile per-query latency."""
        return self.latency_percentile(0.99)

    @property
    def throughput_qps(self) -> float:
        """Queries per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.num_queries / self.wall_seconds

    @property
    def total_cache_hits(self) -> int:
        """Total cache hits recorded during the batch."""
        return sum(self.cache_hits.values())

    @property
    def total_cache_misses(self) -> int:
        """Total cache misses (artifact builds) recorded during the batch."""
        return sum(self.cache_misses.values())

    def outcome_for(self, name: str) -> Optional[QueryOutcome]:
        """The outcome of the query called ``name``, if present."""
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        return None

    def answers(self) -> Dict[str, frozenset]:
        """Mapping query name -> occurrence set (for cross-run comparison)."""
        return {outcome.name: outcome.occurrence_set() for outcome in self.outcomes}

    def summary(self) -> str:
        """Multi-line human-readable summary of the batch."""
        lines = [
            f"batch[{self.engine}]: {self.num_queries} queries, "
            f"{self.solved_count} solved, {self.total_matches} matches",
            f"  wall {self.wall_seconds:.4f}s ({self.throughput_qps:.1f} q/s, "
            f"{self.workers} worker{'s' if self.workers != 1 else ''})",
            f"  latency p50 {self.p50 * 1000:.2f}ms  p90 {self.p90 * 1000:.2f}ms  "
            f"p99 {self.p99 * 1000:.2f}ms",
            f"  cache: {self.total_cache_hits} hits / {self.total_cache_misses} builds",
        ]
        return "\n".join(lines)
