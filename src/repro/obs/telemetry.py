"""Telemetry: the one context object threaded through every serving layer.

A :class:`Telemetry` bundles the three observability surfaces —
:class:`~repro.obs.metrics.MetricsRegistry`,
:class:`~repro.obs.slowlog.SlowQueryLog` and the span ring
(:class:`~repro.obs.context.SpanRecorder`) — so the stack passes a single
handle down instead of three.  There is no sampling knob: a query is
traced exactly when its caller passes a trace id or a sampled
:class:`~repro.obs.context.TraceContext`.  One instance per tenant,
handed to each layer when it is constructed: the
:class:`~repro.session.QuerySession`
epochs, the :class:`~repro.store.VersionedGraphStore`, the
:class:`~repro.service.QueryService` and (its registry) the
:class:`~repro.wal.WalDurability` hook all count into it, and nowhere else;
the wire server then merely *reads* the tenant's bundle for the
``metrics`` and ``trace`` ops.

A layer built bare owns a private bundle; a layer built on a pre-built
one (a store over a session or a WAL, a service over a store) adopts its
registry, and :func:`require_one_registry` refuses parts that count into
different registries.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.context import SpanRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SlowQueryLog


class Telemetry:
    """Per-tenant observability bundle: registry + slow log + spans.

    Parameters
    ----------
    registry / slow_log / spans:
        Pre-built components to adopt; anything omitted is constructed from
        the scalar knobs below.
    slow_query_seconds:
        Slow-log threshold; ``None`` (default) disables the log, ``0.0``
        records every query.
    slow_log_path:
        Optional JSON-lines file the slow log also appends to.
    span_capacity:
        Size of the span ring (see
        :class:`~repro.obs.context.SpanRecorder`): how many finished
        spans — traced queries' stages, traced writes' folds — this tenant
        retains for the ``trace`` wire op and cross-node trace assembly.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        slow_log: Optional[SlowQueryLog] = None,
        spans: Optional[SpanRecorder] = None,
        slow_query_seconds: Optional[float] = None,
        slow_log_path: Optional[str] = None,
        slow_log_capacity: int = 128,
        span_capacity: int = 512,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.slow_log = (
            slow_log
            if slow_log is not None
            else SlowQueryLog(
                threshold_seconds=slow_query_seconds,
                path=slow_log_path,
                capacity=slow_log_capacity,
            )
        )
        self.spans = spans if spans is not None else SpanRecorder(span_capacity)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Telemetry(registry={self.registry!r}, slow_log={self.slow_log!r}, "
            f"spans={self.spans!r})"
        )


def require_one_registry(registry: MetricsRegistry, *parts) -> None:
    """Raise :class:`ValueError` unless every given part (anything with a
    ``registry``; ``None`` is skipped) counts into ``registry``: a tenant
    keeps one set of books."""
    for part in parts:
        if part is not None and part.registry is not registry:
            raise ValueError(
                f"{type(part).__name__} counts into another MetricsRegistry; "
                "the layers of one tenant share one"
            )
