"""Run a set of matchers over a query workload and collect results."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.exceptions import MemoryBudgetExceeded
from repro.graph.digraph import DataGraph
from repro.matching.result import Budget, MatchStatus
from repro.query.pattern import PatternQuery
from repro.session import QuerySession
from repro.simulation.context import MatchContext

#: Default per-query budget used by the benchmark experiments: a small match
#: cap and time limit keep the pure-Python suite fast while preserving the
#: paper's "solved / timeout / out-of-memory" outcome classification.
DEFAULT_BENCH_BUDGET = Budget(
    max_matches=20_000, time_limit_seconds=20.0, max_intermediate_results=400_000
)


def make_matcher(
    name: str,
    graph: DataGraph,
    context: MatchContext,
    budget: Budget,
    session: Optional[QuerySession] = None,
):
    """Instantiate a matcher / engine by its benchmark name (one of
    :meth:`QuerySession.available_matchers`).

    When ``session`` is given, the matcher is obtained from (and cached in)
    the session, so every matcher of one experiment shares the session's
    pre-built indexes instead of rebuilding its own.  The shared instance
    keeps the *session's* default budget — pass ``budget`` to each ``match``
    call (as :func:`run_workload` does) rather than relying on the default.
    Without one, the matcher is new and an engine pays its own
    precomputation (Table 5's ``precompute_s``).
    """
    if session is not None:
        return session.matcher(name)
    return QuerySession.new_matcher(name, graph, context, budget)


@dataclass
class QueryRun:
    """One (matcher, query) measurement."""

    matcher: str
    query: str
    seconds: float
    matches: int
    status: str
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def solved(self) -> bool:
        """True if the run is counted as solved."""
        return self.status in (MatchStatus.OK.value, MatchStatus.MATCH_LIMIT.value)


@dataclass
class WorkloadResult:
    """All runs of one experiment workload."""

    dataset: str
    runs: List[QueryRun] = field(default_factory=list)

    def by_matcher(self) -> Dict[str, List[QueryRun]]:
        """Group runs by matcher name."""
        grouped: Dict[str, List[QueryRun]] = {}
        for run in self.runs:
            grouped.setdefault(run.matcher, []).append(run)
        return grouped

    def solved_count(self, matcher: str) -> int:
        """Number of solved queries for ``matcher``."""
        return sum(1 for run in self.runs if run.matcher == matcher and run.solved)

    def average_time(self, matcher: str, solved_only: bool = True) -> float:
        """Mean query time for ``matcher`` (optionally over solved runs only)."""
        times = [
            run.seconds
            for run in self.runs
            if run.matcher == matcher and (run.solved or not solved_only)
        ]
        return sum(times) / len(times) if times else 0.0

    def run_for(self, matcher: str, query: str) -> Optional[QueryRun]:
        """The run of ``matcher`` on ``query``, if present."""
        for run in self.runs:
            if run.matcher == matcher and run.query == query:
                return run
        return None


def _evaluate(matcher, query: PatternQuery, budget: Budget) -> QueryRun:
    start = time.perf_counter()
    report = matcher.match(query, budget=budget)
    elapsed = time.perf_counter() - start
    return QueryRun(
        matcher=matcher.name,
        query=query.name,
        seconds=report.total_seconds if report.total_seconds > 0 else elapsed,
        matches=report.num_matches,
        status=report.status.value,
        extra=dict(report.extra),
    )


def run_workload(
    graph: DataGraph,
    queries: Mapping[str, PatternQuery],
    matcher_names: Sequence[str],
    budget: Optional[Budget] = None,
    context: Optional[MatchContext] = None,
    session: Optional[QuerySession] = None,
) -> WorkloadResult:
    """Run every matcher on every query of the workload.

    The matchers share one :class:`MatchContext` (and thus one condensation,
    and one lazily built BFL over it), as the paper's setup shares the
    reachability index across algorithms.
    Passing a :class:`QuerySession` shares *all* per-graph artifacts —
    reachability index, transitive closure, expanded graph, catalogs and
    RIGs — across the matchers and across repeated ``run_workload`` calls.
    Engine construction failures (e.g. the GF catalog cap) are recorded as
    out-of-memory runs for every query of the workload.
    """
    budget = budget or DEFAULT_BENCH_BUDGET
    if session is not None:
        if session.graph is not graph:
            raise ValueError("session is bound to a different data graph")
        if context is not None and context is not session.context:
            raise ValueError("pass either context or session, not both")
        context = session.context
    else:
        context = context or MatchContext(graph)
    result = WorkloadResult(dataset=graph.name)
    for matcher_name in matcher_names:
        try:
            matcher = make_matcher(matcher_name, graph, context, budget, session=session)
        except MemoryBudgetExceeded:
            for query_name in queries:
                result.runs.append(
                    QueryRun(
                        matcher=matcher_name,
                        query=query_name,
                        seconds=0.0,
                        matches=0,
                        status=MatchStatus.OUT_OF_MEMORY.value,
                    )
                )
            continue
        for query in queries.values():
            run = _evaluate(matcher, query, budget)
            run.matcher = matcher_name
            result.runs.append(run)
    return result
