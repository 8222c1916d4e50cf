"""Match results, budgets and outcome reporting.

The paper's experiments cap each query at 10^7 enumerated matches and a
10-minute wall-clock budget, and report join-based failures as out-of-memory
(intermediate-result explosion).  :class:`Budget` carries those three limits
(scaled-down defaults); :class:`MatchReport` records the outcome of one query
evaluation — matches found, phase timings, and how the evaluation ended.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import MemoryBudgetExceeded, QueryCancelled, TimeoutExceeded
from repro.framing import Rows, rows_from_wire


class MatchStatus(Enum):
    """How a query evaluation ended."""

    #: Completed: every occurrence (up to the match cap) was enumerated.
    OK = "ok"
    #: Stopped at the match cap (counted as solved, as in the paper).
    MATCH_LIMIT = "match_limit"
    #: Stopped by the wall-clock budget (the paper's "time out").
    TIMEOUT = "timeout"
    #: Stopped by the intermediate-result cap (the paper's "out of memory").
    OUT_OF_MEMORY = "out_of_memory"
    #: Cancelled cooperatively (service-side cancel / shed mid-evaluation).
    CANCELLED = "cancelled"

    def is_solved(self) -> bool:
        """True if the query is counted as solved in the paper's tables."""
        return self in (MatchStatus.OK, MatchStatus.MATCH_LIMIT)


@dataclass
class Budget:
    """Per-query evaluation limits."""

    #: Maximum number of occurrences to enumerate (None = unlimited).
    max_matches: Optional[int] = 100_000
    #: Wall-clock limit in seconds (None = unlimited).
    time_limit_seconds: Optional[float] = None
    #: Cap on intermediate-result tuples for join-based algorithms
    #: (None = unlimited); models the paper's out-of-memory failures.
    max_intermediate_results: Optional[int] = 2_000_000
    #: Cooperative cancellation flag (any object with ``is_set()``, e.g. a
    #: :class:`threading.Event`).  When set, the next budget-clock
    #: checkpoint inside a match loop raises
    #: :class:`~repro.exceptions.QueryCancelled`.  ``None`` disables the
    #: check.  Compared by identity only; excluded from equality.
    cancel_event: Optional[object] = field(default=None, compare=False)

    def start_clock(self) -> "BudgetClock":
        """Begin tracking this budget for one query evaluation."""
        return BudgetClock(self)

    def with_deadline(self, deadline: Optional[float]) -> "Budget":
        """A copy whose time limit is clamped to ``deadline - now``.

        ``deadline`` is an absolute :func:`time.monotonic` timestamp (the
        admission-control convention); ``None`` returns ``self`` unchanged.
        A deadline already in the past yields a zero time limit, so the
        first clock checkpoint times the query out immediately.
        """
        if deadline is None:
            return self
        remaining = max(0.0, deadline - time.monotonic())
        if self.time_limit_seconds is not None:
            remaining = min(remaining, self.time_limit_seconds)
        return replace(self, time_limit_seconds=remaining)

    def with_cancel_event(self, event: Optional[object]) -> "Budget":
        """A copy carrying ``event`` as its cooperative cancellation flag."""
        return replace(self, cancel_event=event)

    def to_wire(self) -> Dict[str, object]:
        """JSON-serialisable form of the three limits.

        The ``cancel_event`` is deliberately not carried: cancellation does
        not serialise — a wire server re-attaches its own event per request
        (the service's cancel hook), exactly as the in-process service does.
        """
        return {
            "max_matches": self.max_matches,
            "time_limit_seconds": self.time_limit_seconds,
            "max_intermediate_results": self.max_intermediate_results,
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "Budget":
        """Rebuild a budget from :meth:`to_wire` output (absent keys keep defaults)."""
        kwargs = {}
        for key in ("max_matches", "time_limit_seconds", "max_intermediate_results"):
            if key in payload:
                kwargs[key] = payload[key]
        return cls(**kwargs)


class BudgetClock:
    """Tracks one evaluation against a :class:`Budget`.

    The clock is checked from tight inner loops, so the time check is
    amortised: the wall clock is read only every ``check_interval`` calls.
    """

    __slots__ = ("budget", "_start", "_calls", "check_interval")

    def __init__(self, budget: Budget, check_interval: int = 2048) -> None:
        self.budget = budget
        self._start = time.perf_counter()
        self._calls = 0
        self.check_interval = check_interval

    @property
    def elapsed(self) -> float:
        """Seconds since the clock started."""
        return time.perf_counter() - self._start

    def check_time(self) -> None:
        """Raise on an exhausted time budget or a set cancellation flag.

        This is the single checkpoint every match loop already calls, so
        both the wall-clock deadline and cooperative cancellation ride the
        same amortised check: the wall clock (and the cancel event) is
        consulted only every ``check_interval`` calls.
        """
        limit = self.budget.time_limit_seconds
        event = self.budget.cancel_event
        if limit is None and event is None:
            return
        self._calls += 1
        if self._calls % self.check_interval:
            return
        if event is not None and event.is_set():
            raise QueryCancelled()
        if limit is not None and self.elapsed > limit:
            raise TimeoutExceeded(limit)

    def checker(self) -> Optional[Callable[[], None]]:
        """An un-amortised :meth:`check_time`, or None with nothing to check.

        For loops whose iterations are coarse enough (MJoin: one local
        candidate set each) to consult the cancel event and the wall clock
        every time — and to skip the call altogether when the budget has
        neither a time limit nor a cancel event.
        """
        limit = self.budget.time_limit_seconds
        event = self.budget.cancel_event
        if limit is None and event is None:
            return None
        deadline = None if limit is None else self._start + limit
        cancelled = None if event is None else event.is_set
        now = time.perf_counter

        def check() -> None:
            if cancelled is not None and cancelled():
                raise QueryCancelled()
            if deadline is not None and now() > deadline:
                raise TimeoutExceeded(limit)

        return check

    def check_matches(self, count: int) -> bool:
        """Return True if the match cap has been reached."""
        limit = self.budget.max_matches
        return limit is not None and count >= limit

    def check_intermediate(self, count: int) -> None:
        """Raise :class:`MemoryBudgetExceeded` if the intermediate cap is hit."""
        limit = self.budget.max_intermediate_results
        if limit is not None and count > limit:
            raise MemoryBudgetExceeded(limit)


@dataclass
class MatchReport:
    """Outcome of evaluating one pattern query with one algorithm."""

    query_name: str
    algorithm: str
    status: MatchStatus
    occurrences: List[Tuple[int, ...]] = field(default_factory=list)
    num_matches: int = 0
    matching_seconds: float = 0.0
    enumeration_seconds: float = 0.0
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Total query time: matching (filtering + RIG + plan) + enumeration."""
        return self.matching_seconds + self.enumeration_seconds

    @property
    def solved(self) -> bool:
        """True if the evaluation is counted as solved."""
        return self.status.is_solved()

    def occurrence_set(self) -> frozenset:
        """The occurrences as a frozenset of tuples (for answer comparison)."""
        return frozenset(self.occurrences)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.algorithm} on {self.query_name}: {self.num_matches} matches, "
            f"{self.total_seconds:.4f}s ({self.status.value})"
        )

    # ------------------------------------------------------------------ #
    # wire encoding
    # ------------------------------------------------------------------ #

    def to_wire(self, include_occurrences: bool = True) -> Dict[str, object]:
        """Frame payload form (the wire protocol's report payload).

        The occurrences are packed here, into one
        :class:`~repro.framing.Rows` block that the frame encoder ships
        behind the JSON header; everything else is plain JSON.  ``extra``
        values that do not serialise to JSON (build reports, index
        objects) are replaced by their ``repr`` so the record stays
        informative without dragging object graphs across the wire.
        ``include_occurrences=False`` ships the counters only — the shape
        used after a streamed query whose pages already carried the
        occurrences.
        """
        return {
            "query_name": self.query_name,
            "algorithm": self.algorithm,
            "status": self.status.value,
            "occurrences": Rows(self.occurrences) if include_occurrences else [],
            "num_matches": self.num_matches,
            "matching_seconds": self.matching_seconds,
            "enumeration_seconds": self.enumeration_seconds,
            "extra": {key: jsonable(value) for key, value in self.extra.items()},
        }

    @classmethod
    def from_wire(cls, payload: Dict[str, object]) -> "MatchReport":
        """Rebuild a report from :meth:`to_wire` output."""
        return cls(
            query_name=str(payload.get("query_name", "query")),
            algorithm=str(payload.get("algorithm", "?")),
            status=MatchStatus(payload.get("status", MatchStatus.OK.value)),
            occurrences=list(rows_from_wire(payload.get("occurrences", ()), "occurrences")),
            num_matches=int(payload.get("num_matches", 0)),
            matching_seconds=float(payload.get("matching_seconds", 0.0)),
            enumeration_seconds=float(payload.get("enumeration_seconds", 0.0)),
            extra=dict(payload.get("extra", ())),
        )


_JSON_SCALARS = (str, int, float, bool, type(None))


def jsonable(value):
    """``value`` if it serialises to JSON as-is, else its ``repr``.

    The wire encoders use this on open-ended ``extra`` mappings, which may
    hold arbitrary objects in-process (RIG build reports, index handles).
    Scalars and flat lists / string-keyed dicts of scalars — nearly every
    ``extra`` value — are recognised by type; only other shapes pay for a
    trial ``json.dumps`` (the frame encoder serialises the value again).
    """
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        if all(isinstance(item, _JSON_SCALARS) for item in value):
            return value
    elif isinstance(value, dict):
        if all(
            isinstance(key, str) and isinstance(item, _JSON_SCALARS)
            for key, item in value.items()
        ):
            return value
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)
    return value
