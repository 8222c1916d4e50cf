"""Unified observability: metrics registry, query tracing, slow-query log.

The stack's six layers (session caches, MVCC store, query service, wire
server, WAL durability, engines) share this one surface:

* :class:`MetricsRegistry` — thread-safe labelled counters / gauges /
  fixed-bucket histograms, snapshotable to JSON and to the Prometheus text
  exposition format.  It is the only place a count lives: every layer of
  a tenant counts into the tenant's registry, and the ``stats()``
  documents (``GraphDB.stats``, ``QueryService.stats_snapshot``,
  ``VersionedGraphStore.counters``, ``WalDurability.counters``) are reads
  of it (:meth:`MetricsRegistry.read`).
* :class:`Span` / :class:`SpanRecorder` — the one span model.  A traced
  query is a root ``query`` span whose children are its stages
  (queue-wait → pin → plan → index-build → first-match → stream-drain →
  wire-encode), recorded into the tenant's span ring; its trace id
  propagates from ``GraphClient`` through the wire frames to the service
  and back — including through error payloads.
* :class:`SlowQueryLog` — a JSON-lines record (bounded ring + optional
  file) of every query over a configurable threshold, the traced query's
  span tree included.
* :class:`Telemetry` — the bundle of registry, slow log and span ring,
  threaded through ``GraphDB`` → store → service → WAL as one context
  object.
* :func:`percentile` / :class:`Reservoir` — the single shared quantile
  implementation (nearest-rank) and its bounded-memory sampling companion.

The cluster observability plane (PR 10) extends the surface across nodes:

* :class:`TraceContext` / :func:`assemble_trace` — cross-node trace
  propagation: one trace id and sampling bit follow a read or a write
  from the routing client through the primary's fold, journal and
  publish into every replica's apply, and the spans each node recorded
  stitch back into one tree (see :mod:`repro.obs.context`).
* :mod:`repro.obs.health` — the shared ``ready`` / ``degraded`` /
  ``unhealthy`` / ``unreachable`` vocabulary behind the ``health`` wire
  op and the router's probing.
* :class:`EventLog` — each server's bounded ring of lifecycle events,
  queryable over the ``events`` wire op.
* :class:`ClusterMonitor` — federated scraping: every node's per-tenant
  registries merged into one cluster snapshot with ``node`` / ``role`` /
  ``tenant`` labels plus derived fleet gauges, as JSON or Prometheus
  text (see :mod:`repro.obs.federation`); ``python -m repro.obs.console``
  renders it as a live dashboard.
"""

from repro.obs.context import (
    Span,
    SpanRecorder,
    TraceContext,
    assemble_trace,
    new_span_id,
    new_trace_id,
    trace_span,
)
from repro.obs.events import EventLog
from repro.obs.health import (
    DEGRADED,
    READY,
    UNHEALTHY,
    UNREACHABLE,
    classify_tenant,
    is_servable,
    worst,
)
from repro.obs.federation import ClusterMonitor
from repro.obs.log import TenantLoggerAdapter, configure as configure_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    MetricsRegistry,
)
from repro.obs.quantiles import Reservoir, percentile
from repro.obs.slowlog import SlowQueryLog
from repro.obs.telemetry import Telemetry

__all__ = [
    "DEFAULT_BUCKETS",
    "DEGRADED",
    "READY",
    "UNHEALTHY",
    "UNREACHABLE",
    "ClusterMonitor",
    "CounterFamily",
    "EventLog",
    "GaugeFamily",
    "HistogramFamily",
    "MetricsRegistry",
    "Reservoir",
    "SlowQueryLog",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "TenantLoggerAdapter",
    "TraceContext",
    "assemble_trace",
    "classify_tenant",
    "configure_logging",
    "get_logger",
    "is_servable",
    "new_span_id",
    "new_trace_id",
    "percentile",
    "trace_span",
    "worst",
]
