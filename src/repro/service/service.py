"""Concurrent query service over a versioned graph store.

:class:`QueryService` is the serving layer: a fixed worker pool executes
admitted queries against **pinned store snapshots**, so a query (or every
query submitted into one caller's snapshot) answers from one consistent
graph version while the store folds updates behind it.

Admission control
-----------------
The service holds a bounded queue.  At submit time, a request beyond
``queue_limit`` is **shed** immediately
(:class:`~repro.exceptions.ServiceOverloadedError`, reason
``"queue_full"``); a queued request whose deadline expires before a worker
picks it up is shed at dequeue (reason ``"deadline"``).  A running query is
bounded by its :class:`~repro.matching.result.Budget` — the service clamps
the budget's time limit to the request's remaining deadline and wires a
cancellation event through it, so the match loops' amortised checkpoints
(:meth:`BudgetClock.check_time`) observe both.

Results
-------
:meth:`QueryService.submit` returns a :class:`QueryTicket` future;
:meth:`QueryService.stream` returns a :class:`StreamingResult` whose pages
are **pipelined**: the worker hands each page over under one credit of the
stream's :class:`StreamWindow` as the matcher produces occurrences, so the
first page is consumable while the query is still enumerating.  The
result holds its snapshot pin until the consumer finishes (or abandons)
paging, so pagination stays consistent with the version the query ran on
even if the head moves; a consumer that walks away mid-stream cancels the
producer and releases the pin through the closing page iterator
(:class:`PageIterator`).
"""

from __future__ import annotations

import itertools
import queue as queue_module
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.exceptions import (
    QueryCancelled,
    ServiceOverloadedError,
    StoreError,
    TimeoutExceeded,
)
from repro.graph.digraph import DataGraph
from repro.matching.result import Budget, MatchReport, MatchStatus
from repro.obs.context import Span, TraceContext
from repro.obs.quantiles import Reservoir, percentile
from repro.obs.telemetry import Telemetry, require_one_registry
from repro.query.pattern import PatternQuery
from repro.store.versioned import StoreSnapshot, VersionedGraphStore

#: Ticket lifecycle states.
TICKET_QUEUED = "queued"
TICKET_RUNNING = "running"
TICKET_DONE = "done"
TICKET_SHED = "shed"
TICKET_CANCELLED = "cancelled"
TICKET_FAILED = "failed"

#: Capacity of the service's latency :class:`~repro.obs.Reservoir`.  It
#: keeps the samples the nearest-rank percentiles of :meth:`stats_snapshot`
#: need, which the bucketed ``service_query_seconds`` histogram cannot give.
LATENCY_WINDOW = 4096


@dataclass
class ServiceConfig:
    """Tuning knobs for a :class:`QueryService`."""

    #: Worker threads — also the maximum number of in-flight queries.
    workers: int = 4
    #: Bounded admission queue: submits beyond this many waiting requests
    #: are shed with reason ``"queue_full"``.
    queue_limit: int = 64
    #: Default end-to-end deadline per request (submit to completion);
    #: ``None`` disables deadline shedding/clamping.
    deadline_seconds: Optional[float] = None
    #: Default engine for requests that do not name one.
    default_engine: str = "GM"
    #: Default per-query budget (falls back to the store session's budget).
    default_budget: Optional[Budget] = None
    #: A stream's window, in process and on the wire: the producer runs at
    #: most this many pages ahead of the consumer.  With
    #: ``keep_occurrences=False`` this bounds the stream's in-flight
    #: occurrence buffering to ``(stream_buffer_pages + 1) * page_size``;
    #: the default ``keep_occurrences=True`` additionally accumulates the
    #: full occurrence list worker-side for the final ``report()``.
    stream_buffer_pages: int = 4


class StreamWindow:
    """One stream's credit window: the only bound between worker and consumer.

    At most ``size`` pages are in flight: the worker takes one credit per
    page (:meth:`acquire`), the consumer gives one back per page it takes
    (:meth:`release`).  The wait obeys the stream's budget — it raises
    :class:`~repro.exceptions.TimeoutExceeded` at the deadline and
    :class:`~repro.exceptions.QueryCancelled` once the stream is abandoned
    (the consumer walked away, or the ticket was cancelled) — so a stalled
    consumer holds a worker no longer than the budget allows.  A subclass
    delivers: :meth:`pump` hands one page over on the worker's thread,
    :meth:`finish` ends the stream from the ticket's terminal transition.
    """

    #: Seconds :meth:`pump` spent encoding pages for the wire, which the
    #: server reports as the trace's ``wire_encode`` span.
    encode_seconds = 0.0

    def __init__(self, size: int) -> None:
        self._cond = threading.Condition()
        self.size = max(1, size)
        self._in_flight = 0
        self._abandoned = False

    def acquire(self, deadline: Optional[float] = None) -> None:
        """Take one credit, waiting while the window is full.

        ``deadline`` is an absolute :func:`time.monotonic` timestamp.
        """
        with self._cond:
            while not self._abandoned and self._in_flight >= self.size:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutExceeded(remaining)
                self._cond.wait(remaining)
            if self._abandoned:
                raise QueryCancelled()
            self._in_flight += 1

    def release(self, credits: int = 1) -> None:
        """Give ``credits`` back; the window never grows past ``size``."""
        with self._cond:
            self._in_flight = max(0, self._in_flight - credits)
            self._cond.notify_all()

    def abandon(self) -> None:
        """Stop the stream: a waiting or later :meth:`acquire` raises."""
        with self._cond:
            self._abandoned = True
            self._cond.notify_all()

    def pump(self, page, deadline: Optional[float] = None) -> None:
        raise NotImplementedError

    def finish(self, ticket: "QueryTicket") -> None:
        raise NotImplementedError


class _PageQueue(StreamWindow):
    """The in-process consumer's window: delivered pages wait in a deque,
    and taking one gives its credit back."""

    def __init__(self, size: int) -> None:
        super().__init__(size)
        self._pages: deque = deque()
        self._finished = False
        self._error: Optional[BaseException] = None

    def pump(self, page, deadline=None) -> None:
        with self._cond:
            self.acquire(deadline)
            self._pages.append(page)
            self._cond.notify_all()

    def finish(self, ticket: "QueryTicket") -> None:
        with self._cond:
            self._finished = True
            self._error = ticket.error
            self._cond.notify_all()

    def next_page(self, timeout: Optional[float] = None):
        """The next page, or ``None`` once the stream finished (or was
        abandoned); re-raises a failed ticket.

        ``timeout`` bounds the wait; exceeding it raises
        :class:`TimeoutError` (same contract as :meth:`QueryTicket.result`).
        """
        with self._cond:
            if not self._cond.wait_for(
                lambda: self._pages or self._finished or self._abandoned, timeout
            ):
                raise TimeoutError(f"no streamed page within {timeout}s")
            if self._abandoned:
                return None
            if self._pages:
                self.release()
                return self._pages.popleft()
            if self._error is not None:
                raise self._error
            return None


class QueryTicket:
    """A submitted query: future-style handle with cancellation.

    ``result()`` blocks until the query finishes and returns its
    :class:`MatchReport`; shed tickets raise
    :class:`~repro.exceptions.ServiceOverloadedError` and failed tickets
    re-raise the worker-side exception.  ``cancel()`` is cooperative: a
    queued ticket is dropped at dequeue, a running one unwinds at the
    match loop's next budget checkpoint (status
    :attr:`MatchStatus.CANCELLED`).
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        query: PatternQuery,
        engine: str,
        budget: Optional[Budget],
        deadline: Optional[float],
        snapshot: Optional[StoreSnapshot] = None,
        name: Optional[str] = None,
        page_size: Optional[int] = None,
        window: Optional[StreamWindow] = None,
        keep_occurrences: bool = True,
    ) -> None:
        self.ticket_id = next(self._ids)
        self.name = name or query.name
        self.query = query
        self.engine = engine
        self.budget = budget
        self.deadline = deadline
        self.snapshot = snapshot
        #: Streaming execution: page size and the credit window the worker
        #: hands pages over through (None for plain submit-and-wait tickets).
        self.page_size = page_size
        self.window = window
        self.keep_occurrences = keep_occurrences
        self.submitted_at = time.monotonic()
        #: The caller's trace id (tags the error payload and the slow-log
        #: entry, sampled or not), and for a sampled trace its root
        #: ``query`` :class:`~repro.obs.Span` and the root's finished
        #: children, in stage order; ``None`` / empty when untraced.
        self.trace_id: Optional[str] = None
        self.trace: Optional[Span] = None
        self.spans: List[Span] = []
        #: Whether the service ends the trace when the ticket finishes; a
        #: caller that passed a :class:`~repro.obs.TraceContext` ends it
        #: with :meth:`QueryService.end_trace`.
        self.service_ends_trace = True
        self.status = TICKET_QUEUED
        self.report: Optional[MatchReport] = None
        self.error: Optional[BaseException] = None
        self.pinned_version: Optional[int] = None
        self.seconds: Optional[float] = None
        self.cancel_event = threading.Event()
        self._done = threading.Event()
        self._callbacks: list = []
        self._callback_lock = threading.Lock()

    def cancel(self) -> None:
        """Request cooperative cancellation (idempotent); a streaming
        worker waiting for a credit stops at once."""
        self.cancel_event.set()
        if self.window is not None:
            self.window.abandon()

    def add_done_callback(self, callback) -> None:
        """Run ``callback(ticket)`` once the ticket reaches a terminal state.

        The hook the wire server uses to drop finished tickets from its
        per-connection registry (so a dropped connection only has to cancel
        what is still in flight).  Registered on an already-terminal ticket
        the callback runs immediately, in the calling thread; otherwise it
        runs in the worker thread that finishes the ticket.  Callback
        exceptions are swallowed — a misbehaving observer must not corrupt
        the ticket's terminal transition.
        """
        with self._callback_lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        try:
            callback(self)
        except Exception:  # pragma: no cover - defensive
            pass

    @property
    def done(self) -> bool:
        """True once the ticket reached a terminal state."""
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until terminal (or ``timeout``); True if terminal."""
        return self._done.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> MatchReport:
        """The query's :class:`MatchReport` (blocking).

        Raises :class:`~repro.exceptions.ServiceOverloadedError` for shed
        tickets, the original exception for failed ones, and
        :class:`TimeoutError` if the ticket is not terminal in time.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"ticket {self.ticket_id} still {self.status}")
        if self.error is not None:
            raise self.error
        if self.report is None:  # defensive: every terminal path sets one
            raise StoreError(
                f"ticket {self.ticket_id} finished as {self.status} "
                "without a report"
            )
        return self.report

    def add_span(self, name: str, seconds: float) -> None:
        """Append one finished child of the root, laid after the last one."""
        root = self.trace
        span = Span(name, root.trace_id, parent_id=root.span_id)
        span.started_at = root.started_at + sum(child.seconds for child in self.spans)
        self.spans.append(span.finish(seconds))

    def trace_document(self) -> Dict[str, object]:
        """The root's span document plus ``spans``, its children's."""
        return dict(self.trace.to_dict(), spans=[span.to_dict() for span in self.spans])

    # internal: terminal transitions (worker / service side only) -------- #

    def _finish(self, status: str, report=None, error=None) -> None:
        if self._done.is_set():
            # Already terminal: a late failure after a successful finish
            # (e.g. a post-completion bookkeeping error in the worker) must
            # not overwrite the delivered result.
            return
        self.status = status
        self.report = report
        self.error = error
        self.seconds = time.monotonic() - self.submitted_at
        self._done.set()
        if self.window is not None:
            # Every terminal path — done, cancelled, shed at dequeue,
            # failed — ends the stream exactly once.
            self.window.finish(self)
        with self._callback_lock:
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            try:
                callback(self)
            except Exception:  # pragma: no cover - defensive
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryTicket(#{self.ticket_id} {self.name!r}, {self.status})"


class PageIterator:
    """Iterator over a :class:`PagedResult`'s pages that cannot leak it.

    A plain generator only runs its ``finally`` once iteration *starts*: a
    caller that built ``result.pages()`` and walked away before the first
    ``next()`` would leave the producer running and its snapshot pinned
    forever.  This object closes the owning result on exhaustion, on error,
    on :meth:`close` — and on garbage collection even if it was never
    advanced.
    """

    __slots__ = ("_result", "_timeout", "_closed")

    def __init__(self, result: "PagedResult", timeout: Optional[float]) -> None:
        self._result = result
        self._timeout = timeout
        self._closed = False

    def __iter__(self) -> "PageIterator":
        return self

    def __next__(self) -> Tuple[Tuple[int, ...], ...]:
        if self._closed:
            raise StopIteration
        try:
            page = self._result._next_page(self._timeout)
        except BaseException:
            # A timeout or the producer's error: every exit releases the
            # pin and cancels a live producer.
            self.close()
            raise
        if page is None:
            self.close()
            raise StopIteration
        return page

    def close(self) -> None:
        """Stop paging: close the result (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._result.close()

    def __del__(self) -> None:  # pragma: no cover - exercised via gc in tests
        self.close()


class PagedResult:
    """Paging over a query's occurrences, in process or over the wire.

    A subclass writes ``_next_page(timeout)`` — the next page, or ``None``
    at the end, raising the producer's error — and an idempotent
    ``close()`` that cancels a still-running producer and releases its
    snapshot pin.
    """

    def pages(self, timeout: Optional[float] = None) -> PageIterator:
        """Yield occurrence pages as the producer fills them.

        The first page arrives before the query finishes.  ``timeout``
        bounds the wait per page (:class:`TimeoutError`); a shed or failed
        query re-raises its error here.  Exhaustion, an error, or
        abandonment (closing the iterator, or breaking out of the loop and
        dropping it — even before the first ``next()``) all close the
        result, which cancels a still-running producer and releases the pin.
        """
        return PageIterator(self, timeout)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        """Yield occurrences one by one; closes the result at the end."""
        for page in self.pages():
            yield from page

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class StreamingResult(PagedResult):
    """Pipelined, paginated iteration over one query's occurrences.

    Pages are handed over by the executing worker through the stream's
    :class:`StreamWindow` **as the matcher produces them**: the first page
    is consumable while the query is still enumerating, and a slow consumer
    exerts backpressure that caps the producer's lead at the window (no
    unbounded buffering in the pipe); fed to another window (the wire
    server's), it only holds the pin and the ticket.  The snapshot pin is
    held from submission until :meth:`close` (or exhaustion of
    :meth:`pages`, or context-manager exit, or the page iterator being
    closed/garbage-collected after an abandoned ``for`` loop), so every
    page — no matter how slowly the consumer drains — describes the same
    graph version.  Closing before
    exhaustion cancels the producer cooperatively and releases the pin.
    """

    def __init__(self, ticket: QueryTicket, snapshot: StoreSnapshot, page_size: int) -> None:
        self.ticket = ticket
        self.page_size = page_size
        self._snapshot = snapshot
        self._version = snapshot.version
        self._closed = False

    @property
    def version(self) -> int:
        """The pinned graph version the occurrences describe.

        Cached at pin time so it stays readable after the pin is released.
        """
        return self._version

    def report(self, timeout: Optional[float] = None) -> MatchReport:
        """The finalised :class:`MatchReport` (blocks until the query ends).

        Unlike :meth:`pages` this waits for the *whole* evaluation; with
        ``keep_occurrences=False`` at submission the report carries counts
        and timings but an empty occurrence list.
        """
        return self.ticket.result(timeout)

    def _next_page(self, timeout: Optional[float]):
        return None if self._closed else self.ticket.window.next_page(timeout)

    def close(self) -> None:
        """Cancel if still running and release the snapshot pin (idempotent)."""
        if not self._closed:
            self._closed = True
            if not self.ticket.done:
                self.ticket.cancel()
            self.ticket.window.abandon()
            self._snapshot.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"StreamingResult(#{self.ticket.ticket_id} v{self._version}, "
            f"page_size={self.page_size}, {state})"
        )


class QueryService:
    """Admission-controlled concurrent query execution over a store.

    Parameters
    ----------
    store:
        A :class:`VersionedGraphStore`, or a plain :class:`DataGraph` /
        :class:`~repro.session.QuerySession` (a store is created and owned;
        it is closed with the service).
    config:
        A :class:`ServiceConfig`; defaults are serving-friendly.
    telemetry:
        The :class:`~repro.obs.Telemetry` the service traces, logs slow
        queries and counts (``service_*`` / ``engine_*`` families) into;
        by default the store's.  It must count into the store's registry
        (:class:`ValueError` otherwise): a tenant keeps one set of books.

    The service starts its worker pool immediately and is a context
    manager; :meth:`close` drains the backlog and stops the workers.
    """

    def __init__(
        self,
        store: Union[VersionedGraphStore, DataGraph, "QuerySession"],
        config: Optional[ServiceConfig] = None,
        telemetry: Optional[Telemetry] = None,
        **store_kwargs,
    ) -> None:
        if isinstance(store, VersionedGraphStore):
            self.store = store
            self._owns_store = False
        else:
            self.store = VersionedGraphStore(store, telemetry=telemetry, **store_kwargs)
            self._owns_store = True
        self.telemetry = telemetry if telemetry is not None else self.store.telemetry
        require_one_registry(self.store.telemetry.registry, self.telemetry)
        self.config = config or ServiceConfig()
        if self.config.workers < 1:
            raise ValueError("service needs at least one worker")
        self._queue: "queue_module.Queue" = queue_module.Queue()
        self._admission_lock = threading.Lock()
        self._queued = 0
        self._busy = 0
        self._closed = False
        # State, not counts: the uptime origin and the latency sample.
        self._started = time.monotonic()
        self._latencies = Reservoir(capacity=LATENCY_WINDOW)
        self._latency_lock = threading.Lock()
        self._register_metrics()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"query-service-worker-{index}", daemon=True
            )
            for index in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #

    def _register_metrics(self) -> None:
        """Register the ``service_*`` / ``engine_*`` families.

        The live queue depth and worker occupancy are callback gauges,
        sampled only when the registry is snapshotted (the hot path pays
        nothing for them); a later service over the same store replaces
        the callbacks and reuses the families.
        """
        registry = self.telemetry.registry
        self._m_submitted = registry.counter(
            "service_submitted_total", "Requests admitted to the service queue"
        )
        self._m_completed = registry.counter(
            "service_completed_total",
            "Completed queries by terminal status",
            labelnames=("status",),
        )
        self._m_failed = registry.counter(
            "service_failed_total", "Queries that raised during execution"
        )
        self._m_cancelled = registry.counter(
            "service_cancelled_total", "Queries cancelled before or during execution"
        )
        self._m_shed = registry.counter(
            "service_shed_total",
            "Requests shed by admission control, by reason",
            labelnames=("reason",),
        )
        self._m_seconds = registry.histogram(
            "service_query_seconds", "Admission-to-completion query latency"
        )
        registry.gauge(
            "service_queue_depth",
            "Requests waiting in the bounded admission queue",
            fn=lambda: self._queued,
        )
        registry.gauge(
            "service_workers_busy",
            "Worker threads currently executing a query",
            fn=lambda: self._busy,
        )
        registry.gauge(
            "service_workers_total",
            "Size of the worker pool",
            fn=lambda: self.config.workers,
        )
        self._m_engine_queries = registry.counter(
            "engine_queries_total",
            "Queries executed, by matching engine",
            labelnames=("engine",),
        )
        self._m_engine_seconds = registry.histogram(
            "engine_query_seconds",
            "Worker-side engine execution latency",
            labelnames=("engine",),
        )
        self._m_engine_candidates = registry.counter(
            "engine_candidates_total",
            "Candidate vertices scanned by the multi-way join",
        )
        self._m_engine_intersections = registry.counter(
            "engine_intersections_total",
            "Adjacency/candidate-set intersections performed by the multi-way join",
        )

    # ------------------------------------------------------------------ #
    # admission + submission
    # ------------------------------------------------------------------ #

    def defaults(
        self, engine: Optional[str] = None, budget: Optional[Budget] = None
    ) -> Tuple[str, Optional[Budget]]:
        """``(engine, budget)`` with this service's :class:`ServiceConfig`
        defaults filled in — the one place a read picks them up."""
        return engine or self.config.default_engine, budget or self.config.default_budget

    def submit(
        self,
        query: PatternQuery,
        engine: Optional[str] = None,
        budget: Optional[Budget] = None,
        deadline_seconds: Optional[float] = None,
        name: Optional[str] = None,
        snapshot: Optional[StoreSnapshot] = None,
        page_size: Optional[int] = None,
        keep_occurrences: bool = True,
        trace_id: Optional[str] = None,
        window: Optional[StreamWindow] = None,
    ) -> QueryTicket:
        """Admit one query for asynchronous execution.

        Raises :class:`~repro.exceptions.ServiceOverloadedError`
        (``reason="queue_full"``) when the bounded queue is at capacity —
        the request is shed *before* queuing, which is what keeps tail
        latency bounded under overload.  ``snapshot`` pins the execution
        to an explicitly pinned epoch (the caller keeps ownership of the
        pin); by default each query pins the head at execution time.

        ``page_size`` switches the ticket to streaming execution: the
        worker hands pages to ``window`` (by default an in-process one of
        ``stream_buffer_pages``) as they are produced (see :meth:`stream`,
        which wraps this in a :class:`StreamingResult`).
        ``keep_occurrences=False`` makes the final report count-only —
        pages still flow, but the worker never accumulates the full
        occurrence list.

        ``trace_id`` traces this request: a plain id, or a
        :class:`~repro.obs.TraceContext` (what the wire server passes)
        whose span becomes the root's parent.  A traced query is one root
        ``query`` :class:`~repro.obs.Span` (``ticket.trace``) with one
        child per stage (``ticket.spans``); an unsampled context only tags
        the error payload and the slow-log entry.  For a plain id the
        service ends the trace when the query finishes: the spans land in
        the telemetry's span ring, the tree in ``report.extra["trace"]``
        and the slow-log entry.  A context's caller adds its own stages
        and ends the trace with :meth:`end_trace`.
        """
        self._m_submitted.inc()
        effective_deadline = (
            deadline_seconds
            if deadline_seconds is not None
            else self.config.deadline_seconds
        )
        deadline = (
            time.monotonic() + effective_deadline
            if effective_deadline is not None
            else None
        )
        if page_size is not None:
            if page_size <= 0:
                raise ValueError(f"page_size must be positive, got {page_size}")
            window = window or _PageQueue(self.config.stream_buffer_pages)
        engine, budget = self.defaults(engine, budget)
        # The root starts before the ticket, so no queue_wait predates it.
        context = trace_id
        if trace_id is not None and not isinstance(trace_id, TraceContext):
            context = TraceContext(str(trace_id))
        root = None
        if context is not None and context.sampled:
            root = Span(
                "query",
                context.trace_id,
                parent_id=context.span_id,
                query=name or query.name,
                engine=engine,
            )
        ticket = QueryTicket(
            query,
            engine=engine,
            budget=budget,
            deadline=deadline,
            snapshot=snapshot,
            name=name,
            page_size=page_size,
            window=window,
            keep_occurrences=keep_occurrences,
        )
        if context is not None:
            ticket.trace_id, ticket.trace = context.trace_id, root
            ticket.service_ends_trace = not isinstance(trace_id, TraceContext)
        with self._admission_lock:
            if self._closed:
                raise StoreError("service is closed")
            if self._queued >= self.config.queue_limit:
                self._m_shed.labels("queue_full").inc()
                ticket._finish(
                    TICKET_SHED,
                    error=ServiceOverloadedError(
                        "queue_full",
                        f"{self._queued} queued >= limit {self.config.queue_limit}",
                        queue_depth=self._queued,
                        workers_busy=self._busy,
                        workers_total=self.config.workers,
                    ),
                )
                raise ticket.error
            self._queued += 1
            # Enqueue under the admission lock — the same lock close() holds
            # while putting the worker shutdown sentinels — so an admitted
            # ticket can never land behind a sentinel and starve.
            self._queue.put(ticket)
        return ticket

    def stream(
        self,
        query: PatternQuery,
        engine: Optional[str] = None,
        budget: Optional[Budget] = None,
        page_size: int = 256,
        deadline_seconds: Optional[float] = None,
        keep_occurrences: bool = True,
        trace_id: Optional[str] = None,
        version: Optional[int] = None,
        window: Optional[StreamWindow] = None,
    ) -> StreamingResult:
        """Submit a query and page through its results as they are found.

        True pipelined streaming: the worker hands each page over under one
        credit of the stream's window the moment the matcher has produced
        ``page_size`` occurrences, so the first page is available *before*
        the query completes, and a slow consumer throttles the producer
        instead of growing an unbounded pipe.  ``window`` is a consumer
        outside this process (the wire server's socket stream).  Pass
        ``keep_occurrences=False`` for a strictly memory-bounded stream —
        by default the worker also accumulates the occurrence list so
        :meth:`StreamingResult.report` stays complete.  The whole stream
        is pinned to one version — ``version``, the head by default — and
        dropping out early cancels the query and releases the pin.
        """
        snapshot = self.store.pin(version)
        try:
            ticket = self.submit(
                query,
                engine=engine,
                budget=budget,
                deadline_seconds=deadline_seconds,
                snapshot=snapshot,
                page_size=page_size,
                keep_occurrences=keep_occurrences,
                trace_id=trace_id,
                window=window,
            )
        except Exception:
            snapshot.release()
            raise
        return StreamingResult(ticket, snapshot, page_size)

    # ------------------------------------------------------------------ #
    # worker pool
    # ------------------------------------------------------------------ #

    def _worker_loop(self) -> None:
        while True:
            ticket = self._queue.get()
            try:
                if ticket is None:
                    return
                with self._admission_lock:
                    self._queued -= 1
                    self._busy += 1
                try:
                    self._execute(ticket)
                finally:
                    with self._admission_lock:
                        self._busy -= 1
            finally:
                self._queue.task_done()

    def _execute(self, ticket: QueryTicket) -> None:
        now = time.monotonic()
        if ticket.cancel_event.is_set():
            # Cancelled while still queued: never ran, so don't record a
            # completion (no latency sample, no per-version count) — just
            # the cancellation.  result() still returns a CANCELLED report.
            ticket._finish(
                TICKET_CANCELLED,
                report=MatchReport(
                    query_name=ticket.query.name,
                    algorithm=ticket.engine,
                    status=MatchStatus.CANCELLED,
                ),
            )
            self._m_cancelled.inc()
            return
        if ticket.deadline is not None and now > ticket.deadline:
            self._m_shed.labels("deadline").inc()
            with self._admission_lock:
                queue_depth, busy = self._queued, self._busy
            ticket._finish(
                TICKET_SHED,
                error=ServiceOverloadedError(
                    "deadline",
                    f"expired {now - ticket.deadline:.3f}s before execution",
                    queue_depth=queue_depth,
                    workers_busy=busy,
                    workers_total=self.config.workers,
                ),
            )
            return
        ticket.status = TICKET_RUNNING
        queue_wait = now - ticket.submitted_at
        own_pin = ticket.snapshot is None
        try:
            pin_started = time.perf_counter()
            snapshot = ticket.snapshot or self.store.pin()
            pin_seconds = time.perf_counter() - pin_started
        except StoreError as exc:  # closed mid-flight
            ticket._finish(TICKET_FAILED, error=exc)
            self._m_failed.inc()
            return
        try:
            session = snapshot.session
            budget = (
                (ticket.budget or session.budget)
                .with_deadline(ticket.deadline)
                .with_cancel_event(ticket.cancel_event)
            )
            run_started = time.perf_counter()
            if ticket.window is not None:
                report = self._run_streaming(ticket, session, budget)
            else:
                report = session.query(ticket.query, engine=ticket.engine, budget=budget)
            run_seconds = time.perf_counter() - run_started
            # Cache the version BEFORE finishing the ticket: _finish wakes
            # the consumer, whose prompt close() may release the snapshot,
            # after which snapshot.version raises StoreError.
            version = snapshot.version
            ticket.pinned_version = version
            self._record_engine_metrics(ticket.engine, run_seconds, report)
            self._finish_trace(
                ticket, report, version, queue_wait, pin_seconds, run_seconds
            )
            if ticket.service_ends_trace and ticket.trace is not None:
                report.extra["trace"] = self._end_spans(ticket, None)
            if report.status is MatchStatus.CANCELLED:
                ticket._finish(TICKET_CANCELLED, report=report)
            else:
                ticket._finish(TICKET_DONE, report=report)
            self._note_completed(ticket.seconds, report.status.value)
            if ticket.service_ends_trace:
                self._record_slow_query(ticket, report.extra.get("trace"))
        except Exception as exc:  # engine/user errors surface via result()
            if ticket.cancel_event.is_set():
                # A cancel that landed mid-setup (e.g. StreamingResult.close()
                # released the caller's pin while this worker was starting)
                # is a cancellation, not a failure.
                ticket._finish(
                    TICKET_CANCELLED,
                    report=MatchReport(
                        query_name=ticket.query.name,
                        algorithm=ticket.engine,
                        status=MatchStatus.CANCELLED,
                    ),
                )
                self._m_cancelled.inc()
            else:
                ticket._finish(TICKET_FAILED, error=exc)
                self._m_failed.inc()
        finally:
            if own_pin:
                snapshot.release()

    def _run_streaming(self, ticket: QueryTicket, session, budget: Budget) -> MatchReport:
        """Drive one streaming ticket: hand pages over as matches are produced.

        Every ``page_size`` occurrences of the matcher's
        :class:`~repro.matching.stream.MatchStream` go to the ticket's
        window under one credit (waiting on a slow consumer — that
        backpressure *is* the memory bound).  The wait ends like a
        match-loop checkpoint: ``TIMEOUT`` at the budget's time limit,
        ``CANCELLED`` once abandoned; either way closing the match stream
        cancels the engine's enumeration mid-search.
        """
        stream = session.stream(
            ticket.query,
            engine=ticket.engine,
            budget=budget,
            keep_occurrences=ticket.keep_occurrences,
        )
        limit = budget.time_limit_seconds
        deadline = None if limit is None else time.monotonic() + limit
        pages = iter(lambda: tuple(itertools.islice(stream, ticket.page_size)), ())
        stopped = None
        with stream:
            try:
                for page in pages:
                    ticket.window.pump(page, deadline)
            except TimeoutExceeded:
                stopped = MatchStatus.TIMEOUT
            except QueryCancelled:
                stopped = MatchStatus.CANCELLED
        # Exiting the ``with`` closed the stream: a stopped (still-live)
        # evaluation finalises as CANCELLED, a finished one keeps its
        # terminal status — unless its last page never got through.  No
        # drain — the matches already produced are what the consumer saw.
        report = stream.report(drain=False)
        if stopped is not None:
            report.status = stopped
        return report

    # ------------------------------------------------------------------ #
    # telemetry recording (worker side)
    # ------------------------------------------------------------------ #

    def _note_completed(self, seconds: float, status: str) -> None:
        """Count one completed query and sample its latency."""
        self._m_completed.labels(status).inc()
        self._m_seconds.observe(seconds)
        if status == "cancelled":
            self._m_cancelled.inc()
        with self._latency_lock:
            self._latencies.add(seconds)

    def _record_engine_metrics(self, engine: str, run_seconds: float, report) -> None:
        """Count one finished report into the ``engine_*`` families."""
        self._m_engine_queries.labels(engine).inc()
        self._m_engine_seconds.labels(engine).observe(run_seconds)
        mjoin = report.extra.get("mjoin")
        if isinstance(mjoin, dict):
            candidates = int(mjoin.get("candidates", 0))
            intersections = int(mjoin.get("intersections", 0))
            if candidates:
                self._m_engine_candidates.inc(candidates)
            if intersections:
                self._m_engine_intersections.inc(intersections)

    def _finish_trace(
        self,
        ticket: QueryTicket,
        report,
        version: int,
        queue_wait: float,
        pin_seconds: float,
        run_seconds: float,
    ) -> None:
        """Add the query's stage spans under its root, from its timings.

        The stage breakdown is reconstructed from the engine's own timings:
        ``plan`` is the matcher's preparation+search phase
        (``matching_seconds``), ``index_build`` the session-side artifact
        precompute if one ran, ``first_match`` the gap between planning
        and the first streamed occurrence, and ``stream_drain`` the
        remainder of worker-side execution less the page encoding a wire
        stream's window did (the server reports it as ``wire_encode``) — so
        the children sum to ``queue_wait + pin + run`` and the tree stays
        within a few percent of the root's wall clock.
        """
        root = ticket.trace
        if root is None:
            return
        extra = report.extra
        plan = float(report.matching_seconds or 0.0)
        index_build = float(extra.get("precompute_seconds") or 0.0)
        first_match_at = extra.get("first_match_seconds")
        first_match = (
            max(0.0, float(first_match_at) - plan)
            if first_match_at is not None
            else 0.0
        )
        encoded = ticket.window.encode_seconds if ticket.window is not None else 0.0
        stream_drain = max(0.0, run_seconds - plan - index_build - first_match - encoded)
        ticket.add_span("queue_wait", queue_wait)
        ticket.add_span("pin", pin_seconds)
        ticket.add_span("plan", plan)
        if index_build:
            ticket.add_span("index_build", index_build)
        if first_match_at is not None:
            ticket.add_span("first_match", first_match)
        ticket.add_span("stream_drain", stream_drain)
        root.meta.update(
            status=report.status.value,
            version=version,
            num_matches=report.num_matches,
        )
        plan_digest = extra.get("plan_digest")
        if plan_digest:
            root.meta["plan_digest"] = plan_digest

    def _end_spans(
        self, ticket: QueryTicket, node: Optional[str], remainder: Optional[str] = None
    ) -> Dict[str, object]:
        """Stamp the root, give the wall time no child covers to a
        ``remainder`` child, record every span into the span ring (children
        first) and render the tree."""
        root = ticket.trace
        root.finish()
        uncovered = root.seconds - sum(span.seconds for span in ticket.spans)
        if remainder and uncovered > 0:
            ticket.add_span(remainder, uncovered)
        for span in ticket.spans + [root]:
            span.node = node
            self.telemetry.spans.record(span)
        return ticket.trace_document()

    def end_trace(
        self,
        ticket: QueryTicket,
        node: Optional[str] = None,
        remainder: Optional[str] = None,
    ) -> Optional[Dict[str, object]]:
        """End the trace of a ticket submitted with a
        :class:`~repro.obs.TraceContext`, once the ticket is terminal.

        The caller first adds its own stages (the wire server's
        ``wire_encode``) with :meth:`QueryTicket.add_span`; ``remainder``
        names a last child taking the wall time no other covers, so the
        children sum to the root.  Every span is stamped
        with ``node`` and recorded into the span ring once, then the
        slow-log entry is written with the same tree.  Returns the tree —
        the root's document plus ``spans``, its children's — or ``None``
        for an unsampled context.
        """
        document = None
        if ticket.trace is not None:
            document = self._end_spans(ticket, node, remainder)
        if ticket.report is not None and ticket.pinned_version is not None:  # it ran
            self._record_slow_query(ticket, document)
        return document

    def _record_slow_query(
        self, ticket: QueryTicket, trace: Optional[Dict[str, object]]
    ) -> None:
        """Append one structured entry to the slow-query log if over threshold."""
        log = self.telemetry.slow_log
        if not log.enabled or ticket.seconds is None:
            return
        report = ticket.report
        log.record(
            ticket.seconds,
            query=ticket.name,
            engine=ticket.engine,
            status=report.status.value,
            num_matches=report.num_matches,
            version=ticket.pinned_version,
            trace_id=ticket.trace_id,
            plan_digest=report.extra.get("plan_digest"),
            trace=trace,
            # BuildRIG's phase timings, present when this query paid them.
            **{
                key: report.extra[key]
                for key in ("rig_select_seconds", "rig_expand_seconds")
                if key in report.extra
            },
        )

    def stats_snapshot(self) -> Dict[str, object]:
        """Service counts, latency percentiles and the store's gauges.

        Every count is a read of the ``service_*`` families.  Latencies run
        from admission to completion; the percentiles are nearest-rank over
        the latency :class:`~repro.obs.Reservoir`, a uniform sample of the
        service's whole history.  Sheds split by reason: ``queue_full``
        (queue at capacity at submit time) and ``deadline`` (expired before
        a worker picked the request up).
        """
        read = self.telemetry.registry.read
        status_counts = {
            status: int(count)
            for status, count in read("service_completed_total", by="status").items()
        }
        shed = read("service_shed_total", by="reason")
        with self._latency_lock:
            samples = self._latencies.samples()
        uptime = round(time.monotonic() - self._started, 6)
        completed = sum(status_counts.values())
        return {
            "submitted": int(read("service_submitted_total")),
            "completed": completed,
            "failed": int(read("service_failed_total")),
            "cancelled": int(read("service_cancelled_total")),
            "shed_queue_full": int(shed.get("queue_full", 0)),
            "shed_deadline": int(shed.get("deadline", 0)),
            "shed_count": int(sum(shed.values())),
            "status_counts": status_counts,
            "uptime_seconds": uptime,
            "throughput_qps": round(completed / uptime, 3) if uptime > 0 else 0.0,
            "latency_p50_seconds": round(percentile(samples, 0.50), 6),
            "latency_p95_seconds": round(percentile(samples, 0.95), 6),
            "latency_p99_seconds": round(percentile(samples, 0.99), 6),
            "head_version": self.store.head_version,
            "pinned_epochs": self.store.pinned_epoch_count,
            "versions_retained": self.store.num_versions_retained,
            "store": self.store.counters(),
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drain the backlog, stop the workers, close an owned store.

        The shutdown sentinels are enqueued under the admission lock — the
        lock :meth:`submit` enqueues under — so every admitted ticket sits
        ahead of them in the FIFO queue and is executed before the workers
        exit.
        """
        with self._admission_lock:
            if self._closed:
                return
            self._closed = True
            for _worker in self._workers:
                self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=30.0)
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryService(workers={self.config.workers}, "
            f"head=v{self.store.head_version}, "
            f"completed={int(self.telemetry.registry.read('service_completed_total'))})"
        )
