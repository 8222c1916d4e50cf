"""Concurrent query service: admission control, pinned execution, streaming.

The serving layer on top of :mod:`repro.store`:

* :class:`QueryService` — a worker pool executing queries against pinned
  MVCC snapshots; a submit pins the head at execution time, or runs in
  the caller's ``snapshot`` — many queries at one version are one
  ``store.pin()`` plus one :meth:`~QueryService.submit` per query, each
  admitted, traced and counted like any other.  Writes go to the store
  (``service.store.apply`` or its background writer queue).
* **Admission control** — a bounded queue sheds on overload
  (:class:`~repro.exceptions.ServiceOverloadedError`), per-request
  deadlines shed stale queued work and clamp the running query's
  :class:`~repro.matching.result.Budget`, and
  :meth:`QueryTicket.cancel` unwinds a running query at its next budget
  checkpoint.
* :class:`StreamingResult` — paginated result iteration that holds its
  snapshot pin until the consumer finishes, so pagination never tears
  across versions.
* :meth:`QueryService.stats_snapshot` — throughput, p50/p95/p99 latency
  and shed counts, merged with the store gauges (pinned epochs, retained
  versions, GC count).  Every count is read from the tenant's
  ``service_*`` / ``store_*`` metric families; only the latency reservoir
  and the start time live on the service.

>>> with QueryService(graph, config=ServiceConfig(workers=4)) as service:
...     ticket = service.submit(query)            # admission-controlled
...     with service.store.pin() as snap:         # one pinned version
...         tickets = [service.submit(q, snapshot=snap) for q in queries]
...         reports = [t.result() for t in tickets]
...     service.store.apply(delta)                # publishes a new head
...     service.stats_snapshot()["latency_p95_seconds"]
"""

from repro.service.service import (
    QueryService,
    QueryTicket,
    ServiceConfig,
    StreamingResult,
    TICKET_CANCELLED,
    TICKET_DONE,
    TICKET_FAILED,
    TICKET_QUEUED,
    TICKET_RUNNING,
    TICKET_SHED,
)

__all__ = [
    "QueryService",
    "QueryTicket",
    "ServiceConfig",
    "StreamingResult",
    "TICKET_CANCELLED",
    "TICKET_DONE",
    "TICKET_FAILED",
    "TICKET_QUEUED",
    "TICKET_RUNNING",
    "TICKET_SHED",
]
