"""MatchStream and the Evaluator contract: one shape for every algorithm.

The eager execution contract — evaluate, materialise every occurrence,
*then* hand the caller a finished :class:`~repro.matching.result.MatchReport`
— makes downstream consumers wait for the slowest part of query evaluation
(the paper caps enumeration at 10^7 matches precisely because it dominates).
:class:`MatchStream` is the incremental half of the redesigned execution
API: it wraps a lazy occurrence iterator (an :class:`Evaluator`'s
``iter_matches``), tracks running counters (matches yielded,
time to first match, elapsed wall clock), converts budget exhaustion into a
terminal :class:`~repro.matching.result.MatchStatus` instead of an
exception, and *finalises* into the exact :class:`MatchReport` the eager
path would have produced — same occurrence set, same status.

Consumption patterns::

    stream = session.stream(query)          # nothing evaluated yet
    first = next(stream)                    # time-to-first-match
    for occurrence in stream:               # pipelined enumeration
        ...
    report = stream.report()                # drains the rest, finalises

    session.stream(query).report()          # equivalent to session.query()

Abandoning a stream (``close()``, context-manager exit, or letting it be
garbage-collected) closes the underlying generator, which stops the
producer's backtracking search mid-flight — early termination costs
nothing beyond the matches already produced.

:class:`Evaluator` is the contract GM, the four comparator engines and the
JM / TM / ISO baselines all implement: a subclass writes ``iter_matches``
(and ``describe_plan`` if it has a planner); ``match_stream``, ``match``,
``count`` and ``explain`` are written once, here.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.exceptions import (
    BudgetExceeded,
    EngineError,
    MemoryBudgetExceeded,
    QueryCancelled,
    TimeoutExceeded,
)
from repro.explain.plan import PlanOperator, QueryPlan
from repro.framing import Rows, rows_from_wire
from repro.matching.result import Budget, MatchReport, MatchStatus

#: One occurrence: data-node ids indexed by query-node id.
Occurrence = Tuple[int, ...]

#: One streamed page: a tuple of occurrences.
Page = Tuple[Occurrence, ...]


def encode_page(page: Page) -> Rows:
    """Wire form of one streamed occurrence page: the rows, packed.

    The packing happens here, on the caller's thread (the service worker
    sending a stream's page, inside the server's ``wire_encode`` timing);
    :func:`~repro.framing.encode_frame` only moves the finished block
    into the frame's tail.
    """
    return Rows(page)


def decode_page(payload) -> Page:
    """The page a stream frame carried, as a tuple of int tuples.

    :func:`~repro.framing.decode_body` already unpacked and validated the
    block; a ``page`` field holding anything else — JSON arrays, a
    ``{"$rows": ...}`` dict from a JSON-kind frame — raises
    :class:`~repro.exceptions.ProtocolError`.
    """
    return rows_from_wire(payload, "a stream page")


class MatchStream:
    """An in-flight query evaluation, consumable one occurrence at a time.

    Parameters
    ----------
    iterator:
        The lazy occurrence producer.  It may raise
        :class:`~repro.exceptions.TimeoutExceeded`,
        :class:`~repro.exceptions.QueryCancelled` or
        :class:`~repro.exceptions.MemoryBudgetExceeded`; the stream converts
        each into the corresponding terminal status and stops iteration.
        It is expected to stop on its own at the budget's match cap (every
        :meth:`Evaluator.iter_matches` does).
    query_name / algorithm:
        Report identity, copied into the finalised :class:`MatchReport`.
    budget:
        The budget the producer runs under; used only to classify a clean
        stop at exactly ``max_matches`` yields as
        :attr:`MatchStatus.MATCH_LIMIT`.
    info:
        A *mutable* mapping the producer may update while running (e.g. the
        GM pipeline records ``matching_seconds`` and its RIG ``extra`` only
        once the matching phase inside the generator finishes).  Read at
        finalisation time.  Recognised keys: ``matching_seconds`` (float)
        and ``extra`` (dict merged into the report's ``extra``).
    keep_occurrences:
        When False the stream only counts matches — the finalised report
        has ``num_matches`` but an empty ``occurrences`` list.  This is the
        counting drain behind :meth:`Evaluator.count`.
    """

    def __init__(
        self,
        iterator: Iterator[Occurrence],
        query_name: str,
        algorithm: str,
        budget: Optional[Budget] = None,
        info: Optional[Dict[str, object]] = None,
        keep_occurrences: bool = True,
    ) -> None:
        self._iterator = iterator
        self.query_name = query_name
        self.algorithm = algorithm
        self.budget = budget
        self._info = info if info is not None else {}
        self.keep_occurrences = keep_occurrences
        self.occurrences: List[Occurrence] = []
        #: Number of occurrences produced so far.
        self.num_yielded = 0
        #: Seconds from stream creation to the first occurrence (None until then).
        self.first_match_seconds: Optional[float] = None
        self._started = time.perf_counter()
        self._elapsed: Optional[float] = None
        self._status: Optional[MatchStatus] = None

    # ------------------------------------------------------------------ #
    # iteration
    # ------------------------------------------------------------------ #

    def __iter__(self) -> "MatchStream":
        return self

    def __next__(self) -> Occurrence:
        if self._status is not None:
            raise StopIteration
        try:
            occurrence = next(self._iterator)
        except StopIteration:
            self._finish(self._exhausted_status())
            raise
        except TimeoutExceeded:
            self._finish(MatchStatus.TIMEOUT)
            raise StopIteration from None
        except QueryCancelled:
            self._finish(MatchStatus.CANCELLED)
            raise StopIteration from None
        except MemoryBudgetExceeded:
            self._finish(MatchStatus.OUT_OF_MEMORY)
            raise StopIteration from None
        except BudgetExceeded:
            # Any other budget shape (JM-style intermediate explosion)
            # reports as the paper's out-of-memory failure mode.
            self._finish(MatchStatus.OUT_OF_MEMORY)
            raise StopIteration from None
        if self.num_yielded == 0:
            self.first_match_seconds = time.perf_counter() - self._started
        self.num_yielded += 1
        if self.keep_occurrences:
            self.occurrences.append(occurrence)
        return occurrence

    def _exhausted_status(self) -> MatchStatus:
        limit = self.budget.max_matches if self.budget is not None else None
        if limit is not None and self.num_yielded >= limit:
            return MatchStatus.MATCH_LIMIT
        return MatchStatus.OK

    def _finish(self, status: MatchStatus) -> None:
        if self._status is None:
            self._status = status
            self._elapsed = time.perf_counter() - self._started

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #

    @property
    def finished(self) -> bool:
        """True once the stream reached a terminal status."""
        return self._status is not None

    @property
    def status(self) -> Optional[MatchStatus]:
        """The terminal status, or None while the stream is still live."""
        return self._status

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds since creation (frozen at termination)."""
        if self._elapsed is not None:
            return self._elapsed
        return time.perf_counter() - self._started

    # ------------------------------------------------------------------ #
    # finalisation
    # ------------------------------------------------------------------ #

    def report(self, drain: bool = True) -> MatchReport:
        """Finalise into a :class:`MatchReport`.

        With ``drain=True`` (default) the remaining occurrences are pulled
        first, so the report is exactly what the eager ``match()`` path
        would have returned.  With ``drain=False`` the report describes the
        matches consumed so far; a still-live stream is closed and reported
        with its current (partial) counters and status ``CANCELLED``.
        """
        if self._status is None:
            if drain:
                for _ in self:
                    pass
            else:
                self.close()
        matching_seconds = float(self._info.get("matching_seconds", 0.0))
        extra = dict(self._info.get("extra", ()))
        if self.first_match_seconds is not None:
            extra.setdefault("first_match_seconds", self.first_match_seconds)
        extra.setdefault("streamed", True)
        return MatchReport(
            query_name=self.query_name,
            algorithm=self.algorithm,
            status=self._status or MatchStatus.CANCELLED,
            occurrences=self.occurrences if self.keep_occurrences else [],
            num_matches=self.num_yielded,
            matching_seconds=matching_seconds,
            enumeration_seconds=max(0.0, self.elapsed_seconds - matching_seconds),
            extra=extra,
        )

    def close(self) -> None:
        """Stop the producer (idempotent).  A live stream terminates CANCELLED."""
        close = getattr(self._iterator, "close", None)
        if close is not None:
            close()
        self._finish(MatchStatus.CANCELLED)

    def __enter__(self) -> "MatchStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = self._status.value if self._status else "live"
        return (
            f"MatchStream({self.algorithm} on {self.query_name!r}, "
            f"{self.num_yielded} yielded, {state})"
        )


class Evaluator:
    """The one contract every query evaluator implements.

    GM, the four comparator engines and the JM / TM / ISO baselines are
    interchangeable algorithms over one workload, so they share one call
    shape.  A subclass supplies:

    * :attr:`name` — the report / plan identity;
    * ``budget`` — its default :class:`Budget` (an instance attribute);
    * :meth:`iter_matches` — the lazy occurrence generator;
    * :attr:`options` — the ``iter_matches`` keyword options it implements
      (``order`` and ``injective`` exist; GM honours both, ISO is always
      injective, everything else honours neither);
    * :meth:`describe_plan` — only if it has a planner worth showing.

    and inherits :meth:`match_stream`, :meth:`match`, :meth:`count` and
    :meth:`explain`, so eager, incremental, counting and analysed runs of
    one evaluator agree on the occurrence set, the status and the budget
    semantics by construction.
    """

    name = "evaluator"
    options: Tuple[str, ...] = ()

    def iter_matches(
        self,
        query,
        budget: Optional[Budget] = None,
        info: Optional[Dict[str, object]] = None,
        **options,
    ) -> Iterator[Occurrence]:
        """Lazily enumerate occurrences of ``query`` (the one primitive).

        A generator: nothing runs until the first ``next()``.  It yields
        occurrence tuples indexed by query-node id, stops by itself at
        ``budget.max_matches``, raises the budget exceptions
        :class:`MatchStream` classifies, and abandons its search when
        closed.  ``info`` is :class:`MatchStream`'s mutable channel; an
        ``info`` that carries an ``"operators"`` list (EXPLAIN ANALYZE)
        asks for per-operator actual counters, aligned with the children
        of :meth:`describe_plan`'s root, plus optional extra root counters
        under ``"root"``.
        """
        raise NotImplementedError(f"{type(self).__name__} must implement iter_matches")

    def describe_plan(self, query, **options) -> QueryPlan:
        """The plan-only :class:`QueryPlan` for ``query`` (never enumerates).

        The default — for evaluators with no operator pipeline to
        introspect — is a single opaque ``evaluate`` operator.
        """
        return QueryPlan(
            query=query.name or "query",
            engine=self.name,
            analyze=False,
            root=PlanOperator(op="evaluate", label=f"Evaluate [{self.name}]"),
        )

    def checked_options(self, **options) -> Dict[str, object]:
        """The options that are set; :class:`EngineError` for an unsupported one.

        An unset option (``None`` / ``False``) is dropped, so callers can
        forward their own defaults unconditionally; a set option this
        evaluator does not implement raises instead of being ignored.
        """
        given = {
            key: value
            for key, value in options.items()
            if value is not None and value is not False
        }
        for key in given:
            if key not in self.options:
                raise EngineError(f"{self.name} does not support the {key!r} option")
        return given

    def match_stream(
        self,
        query,
        budget: Optional[Budget] = None,
        keep_occurrences: bool = True,
        info: Optional[Dict[str, object]] = None,
        **options,
    ) -> MatchStream:
        """An incremental evaluation of ``query`` as a :class:`MatchStream`.

        Nothing runs until the first occurrence is pulled; budget
        exhaustion terminates the stream with the matching
        :class:`MatchStatus` instead of raising, and ``stream.report()``
        finalises into the report :meth:`match` returns.
        """
        budget = budget or self.budget
        info = {} if info is None else info
        return MatchStream(
            self.iter_matches(
                query, budget=budget, info=info, **self.checked_options(**options)
            ),
            query_name=query.name,
            algorithm=self.name,
            budget=budget,
            info=info,
            keep_occurrences=keep_occurrences,
        )

    def match(self, query, budget: Optional[Budget] = None, **options) -> MatchReport:
        """Evaluate ``query`` to completion and return its :class:`MatchReport`."""
        start = time.perf_counter()
        report = self.match_stream(query, budget=budget, **options).report()
        if not report.status.is_solved():
            # The historical shape of a failed run: its elapsed time under
            # matching_seconds, no occurrences, no per-run statistics (an
            # engine's precomputation is not per-run, so it stays).
            kept = {}
            if "precompute_seconds" in report.extra:
                kept["precompute_seconds"] = report.extra["precompute_seconds"]
            report = MatchReport(
                query_name=query.name,
                algorithm=self.name,
                status=report.status,
                matching_seconds=time.perf_counter() - start,
                extra=kept,
            )
        return report

    def count(self, query, budget: Optional[Budget] = None, **options) -> int:
        """Number of occurrences of ``query``, without materialising them.

        A counting drain: ``max_matches`` / deadline budgets short-circuit
        the enumeration.  A non-solved termination (timeout, cancellation,
        memory budget) returns the matches counted *so far*; use
        :meth:`match` when the terminal status matters.
        """
        stream = self.match_stream(query, budget=budget, keep_occurrences=False, **options)
        for _ in stream:
            pass
        return stream.num_yielded

    def explain(
        self, query, analyze: bool = False, budget: Optional[Budget] = None, **options
    ) -> QueryPlan:
        """EXPLAIN (``analyze=False``) or EXPLAIN ANALYZE ``query``.

        Plan-only mode is :meth:`describe_plan`.  ``analyze=True`` also
        executes the query under ``budget`` and attaches the actuals; the
        root operator's row count is the ``num_matches`` of that run's
        :class:`MatchReport`, capped and streamed runs included.
        """
        options = self.checked_options(**options)
        plan = self.describe_plan(query, **options)
        plan.analyze = analyze
        if not analyze:
            return plan
        info: Dict[str, object] = {"operators": []}
        report = self.match_stream(
            query, budget=budget, keep_occurrences=False, info=info, **options
        ).report()
        for child, actual in zip(plan.root.children, info["operators"]):
            child.actual = dict(actual)
        plan.root.actual = {"rows": report.num_matches, **info.get("root", {})}
        plan.execution = {
            "status": report.status.value,
            "rows": report.num_matches,
            "matching_seconds": report.matching_seconds,
            "enumeration_seconds": report.enumeration_seconds,
        }
        return plan
