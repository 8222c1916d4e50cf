"""RoutedClient: read/write splitting across a primary and its replicas.

One writer, N read replicas is only useful if callers do not have to
hand-route every call, so :class:`RoutedClient` holds one
:class:`~repro.client.GraphClient` per node and splits the facade
surface:

* **writes** — every op :data:`~repro.server.protocol.OPS` marks as one
  (``ingest`` / ``apply`` / ``apply_async`` / ``checkpoint`` /
  ``create_graph`` / ``drop_graph``), plus ``save``, whose path names the
  primary's disk — go to the primary, always (a test holds the methods
  to the table).  A primary that cannot be reached fails *fast* with
  :class:`~repro.exceptions.PrimaryUnavailableError` — writes have
  exactly one home, and silently retrying a fold the server may already
  have applied would double it.
* **reads** (``query`` / ``count`` / ``explain`` / ``histogram`` /
  ``run_batch`` / ``stream``) fan out across the replicas round-robin,
  subject to a staleness floor built from the version chain:
  ``read_your_writes=True`` (default) pins this client to versions at or
  above its own last acknowledged write, and ``max_staleness=k`` bounds
  reads to within ``k`` versions of the last *known* primary head.  A
  replica that cannot prove it meets the floor (cheap ``health`` probe,
  cached for ``probe_ttl`` seconds) is skipped for that read; a replica
  whose connection fails is **evicted** and transparently re-probed
  after ``probe_interval`` seconds.  When no replica qualifies the read
  falls back to the primary; when the primary is down too, the read
  keeps retrying the surviving replicas until ``read_timeout`` — which
  is exactly the "primary died, reads keep flowing under the bound"
  failover mode.  A stream stays bound to the node that opened it: a
  connection lost mid-stream raises there (pages are connection-scoped)
  and the *next* routed call moves on to a surviving node.

Routing decisions surface as ``routed_reads_total{target=...}`` /
``routed_writes_total`` / ``routed_evictions_total`` metric families on
:attr:`registry`.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.client.client import GraphClient
from repro.exceptions import PrimaryUnavailableError, ReplicationError
from repro.obs import health as health_states
from repro.obs.context import Span, SpanRecorder, TraceContext
from repro.obs.metrics import MetricsRegistry
from repro.store.versioned import Reader

#: ``(host, port)`` of one serving node.
Endpoint = Tuple[str, int]


class _Node:
    """One endpoint's connection state inside the router."""

    def __init__(self, endpoint: Endpoint, label: str) -> None:
        self.endpoint = (str(endpoint[0]), int(endpoint[1]))
        self.label = label
        self.client: Optional[GraphClient] = None
        self.evicted_at: Optional[float] = None
        #: graph -> (head_version, probed_at)
        self.versions: Dict[str, Tuple[int, float]] = {}
        #: last health verdict (``ready``/``degraded``/``unhealthy``/
        #: ``unreachable``) and when it was probed
        self.state: Optional[str] = None
        self.health_at: Optional[float] = None
        #: graph -> replication lag in versions, as last reported by ``health``
        self.lag: Dict[str, int] = {}

    @property
    def servable(self) -> bool:
        return self.state is not None and health_states.is_servable(self.state)


class RoutedClient(Reader):
    """Read/write-splitting client over one primary and N replicas.

    Parameters
    ----------
    primary:
        ``(host, port)`` of the writable :class:`~repro.server.GraphServer`.
    replicas:
        ``(host, port)`` of each replica server
        (``GraphServer(primary=...)``).
        An empty sequence routes every read to the primary.
    graph:
        Default tenant for every call (override per call with ``graph=``).
    read_your_writes:
        Pin this client's reads to versions >= its last acknowledged
        write (per tenant).
    max_staleness:
        Optional bound, in *versions*, on how far behind the last known
        primary head a serving replica may be.  ``None`` means any
        replicated version is acceptable (modulo ``read_your_writes``).
    """

    def __init__(
        self,
        primary: Endpoint,
        replicas: Sequence[Endpoint] = (),
        graph: Optional[str] = None,
        read_your_writes: bool = True,
        max_staleness: Optional[int] = None,
        probe_ttl: float = 0.25,
        probe_interval: float = 1.0,
        probe_timeout: float = 1.0,
        read_timeout: float = 10.0,
        timeout: Optional[float] = 60.0,
        registry: Optional[MetricsRegistry] = None,
        span_capacity: int = 256,
    ) -> None:
        self._graph = graph
        self._read_your_writes = bool(read_your_writes)
        self._max_staleness = max_staleness
        self._probe_ttl = float(probe_ttl)
        self._probe_interval = float(probe_interval)
        self._probe_timeout = float(probe_timeout)
        self._read_timeout = float(read_timeout)
        self._timeout = timeout
        self._lock = threading.RLock()
        self._primary = _Node(primary, "primary")
        self._replicas = [
            _Node(endpoint, f"replica-{index}")
            for index, endpoint in enumerate(replicas)
        ]
        self._rr = itertools.count()
        #: graph -> last version this client's writes were acknowledged at
        self._last_written: Dict[str, int] = {}
        #: graph -> last primary head this client observed
        self._known_head: Dict[str, int] = {}
        self._closed = False
        self.registry = registry if registry is not None else MetricsRegistry()
        self._m_reads = self.registry.counter(
            "routed_reads_total",
            "Reads dispatched, by serving node",
            labelnames=("target",),
        )
        self._m_writes = self.registry.counter(
            "routed_writes_total", "Writes dispatched to the primary"
        )
        self._m_evictions = self.registry.counter(
            "routed_evictions_total", "Replica connections evicted after failures"
        )
        self._m_lag = self.registry.gauge(
            "routed_replica_lag_versions",
            "Replication lag each replica last reported to this router's probes",
            labelnames=("replica",),
        )
        #: Router-side spans of traced writes (the trace's client root).
        self.spans = SpanRecorder(span_capacity)
        #: Trace id of the most recent traced write (handy when the
        #: caller passed ``trace=True`` and let the router mint the id).
        self.last_trace_id: Optional[str] = None

    # ------------------------------------------------------------------ #
    # node plumbing
    # ------------------------------------------------------------------ #

    def _connect(self, node: _Node) -> Optional[GraphClient]:
        """The node's live client, (re)connecting if due; None while evicted."""
        if node.client is not None:
            return node.client
        if (
            node.evicted_at is not None
            and time.monotonic() - node.evicted_at < self._probe_interval
        ):
            return None
        try:
            # Routing owns the failure semantics, so the inner clients
            # do not transparently retry on their own.
            node.client = GraphClient(
                node.endpoint[0],
                node.endpoint[1],
                timeout=self._timeout,
                reconnect=False,
            )
            node.evicted_at = None
            return node.client
        except OSError:
            node.evicted_at = time.monotonic()
            return None

    def _evict(self, node: _Node) -> None:
        if node.client is not None:
            try:
                node.client.close()
            except Exception:
                pass
            node.client = None
        node.evicted_at = time.monotonic()
        node.versions.clear()
        node.state = health_states.UNREACHABLE
        node.health_at = None  # re-probe health first thing after reconnect
        self._m_evictions.inc()

    def _graph_name(self, graph: Optional[str]) -> str:
        name = graph or self._graph
        if not name:
            raise ReplicationError(
                "no graph selected: pass graph=..., or set one at construction"
            )
        return name

    # ------------------------------------------------------------------ #
    # staleness accounting
    # ------------------------------------------------------------------ #

    def _version_floor(self, graph: str) -> int:
        """The minimum version a node must serve for this read, or -1."""
        floor = -1
        if self._read_your_writes:
            floor = max(floor, self._last_written.get(graph, -1))
        if self._max_staleness is not None:
            head = self._known_head.get(graph, -1)
            if head >= 0:
                floor = max(floor, head - int(self._max_staleness))
        return floor

    def _probe_health(self, node: _Node, client: GraphClient):
        """One ``health`` round trip: refresh state, heads and lag caches.

        Returns the health document, or ``None`` after evicting the node —
        a probe that cannot answer within ``probe_timeout`` means the
        process is down *or frozen* (a SIGSTOP'd server keeps its socket
        open but answers nothing), and both verdicts are ``unreachable``.
        """
        try:
            document = client.health(timeout=self._probe_timeout)
        except (TimeoutError, ConnectionError, OSError):
            self._evict(node)
            return None
        node.state = str(document.get("status") or health_states.UNHEALTHY)
        now = time.monotonic()
        node.health_at = now
        for name, entry in (document.get("tenants") or {}).items():
            if not isinstance(entry, dict):
                continue
            head = entry.get("head_version")
            if head is not None:
                node.versions[name] = (int(head), now)
            replication = entry.get("replication")
            if isinstance(replication, dict):
                lag = int(replication.get("lag_versions") or 0)
                node.lag[name] = lag
                self._m_lag.labels(node.label).set(float(lag))
        return document

    def _meets_floor(self, node: _Node, client: GraphClient, graph: str, floor: int) -> bool:
        """Health-gated qualification: the node answers probes, classifies
        as servable, and (when a floor applies) has folded up to it."""
        now = time.monotonic()
        if node.health_at is None or now - node.health_at >= self._probe_ttl:
            if self._probe_health(node, client) is None:
                return False  # unreachable — just evicted
        if not node.servable:
            return False
        if floor < 0:
            return True
        cached = node.versions.get(graph)
        # Versions are monotone: a cached "fresh enough" stays true; a
        # cached too-stale answer holds until the next health refresh.
        return cached is not None and cached[0] >= floor

    def _note_write(self, graph: str, new_version) -> None:
        if new_version is None:
            return
        version = int(new_version)
        self._last_written[graph] = max(self._last_written.get(graph, -1), version)
        self._known_head[graph] = max(self._known_head.get(graph, -1), version)

    # ------------------------------------------------------------------ #
    # routing cores
    # ------------------------------------------------------------------ #

    def _write(self, method: str, *args, graph: Optional[str] = None, **kwargs):
        """Dispatch one write to the primary; never retried, never rerouted."""
        with self._lock:
            client = self._connect(self._primary)
            if client is None:
                raise PrimaryUnavailableError(
                    f"primary {self._primary.endpoint} is unreachable — "
                    "writes have no failover"
                )
            try:
                if graph is not None:
                    kwargs["graph"] = graph
                result = getattr(client, method)(*args, **kwargs)
            except TimeoutError:
                raise
            except (ConnectionError, OSError) as exc:
                self._evict(self._primary)
                raise PrimaryUnavailableError(
                    f"primary {self._primary.endpoint} dropped during {method}: {exc}"
                ) from exc
            self._m_writes.inc()
            return result

    def _read(self, method: str, *args, graph: Optional[str] = None, **kwargs):
        """Dispatch one read (a :class:`~repro.store.Reader` verb or
        ``info``): qualified replicas first, then the primary."""
        name = self._graph_name(graph)
        kwargs["graph"] = name
        with self._lock:
            floor = self._version_floor(name)
            deadline = time.monotonic() + self._read_timeout
            while True:
                outcome = self._try_read_once(method, name, floor, args, kwargs)
                if outcome is not None:
                    return outcome[0]
                if time.monotonic() >= deadline:
                    raise ReplicationError(
                        f"no node can serve {method} on {name!r} at version "
                        f">= {floor} (primary unreachable, "
                        f"{len(self._replicas)} replica(s) configured)"
                    )
                time.sleep(0.05)  # wait for a replica to fold up to the floor

    def _try_read_once(self, method, name, floor, args, kwargs):
        """One pass over the topology; ``(result,)`` or None to retry."""
        offset = next(self._rr)
        count = len(self._replicas)
        for step in range(count):
            node = self._replicas[(offset + step) % count]
            client = self._connect(node)
            if client is None:
                continue
            try:
                if not self._meets_floor(node, client, name, floor):
                    continue
                result = getattr(client, method)(*args, **kwargs)
            except TimeoutError:
                raise
            except (ConnectionError, OSError):
                self._evict(node)
                continue
            self._m_reads.labels(node.label).inc()
            return (result,)
        # No replica qualified (all evicted, stale, or none configured).
        client = self._connect(self._primary)
        if client is not None:
            try:
                result = getattr(client, method)(*args, **kwargs)
                self._m_reads.labels(self._primary.label).inc()
                return (result,)
            except TimeoutError:
                raise
            except (ConnectionError, OSError):
                self._evict(self._primary)
        return None

    # ------------------------------------------------------------------ #
    # writes -> primary
    # ------------------------------------------------------------------ #

    def _start_trace(self, trace, op: str, graph: str):
        """Open the client-side root of a traced write.

        Returns ``(child_context, root, request)``: the context the wire
        call propagates (parented under the router's ``request`` span) and
        the two router spans to finish when the call returns.  ``trace``
        may be ``True`` (mint a fresh trace id), a plain id string, or a
        prepared :class:`~repro.obs.TraceContext`.
        """
        if trace is None or trace is False:
            return None, None, None
        if isinstance(trace, TraceContext):
            context = trace
        elif trace is True:
            context = TraceContext.new()
        else:
            context = TraceContext(str(trace), None, True)
        root = Span(
            op,
            context.trace_id,
            parent_id=context.span_id,
            node="router",
            graph=graph,
        )
        request = Span(
            "request", context.trace_id, parent_id=root.span_id, node="router"
        )
        self.last_trace_id = context.trace_id
        return TraceContext(context.trace_id, request.span_id, True), root, request

    def _finish_trace(self, root: Optional[Span], request: Optional[Span]) -> None:
        if root is None:
            return
        self.spans.record(request.finish())
        self.spans.record(root.finish())

    def _traced_write(self, method, graph, trace, *args, **kwargs):
        """One fold on the primary, optionally traced; advances the read floor."""
        name = self._graph_name(graph)
        context, root, request = self._start_trace(trace, "write", name)
        try:
            report = self._write(method, *args, graph=name, trace=context, **kwargs)
        finally:
            self._finish_trace(root, request)
        self._note_write(name, report.new_version)
        return report

    def ingest(self, labels=(), edges=(), remove_edges=(), graph=None, trace=None):
        """Fold nodes/edges on the primary; advances the read floor.

        ``trace`` (``True``, a trace id, or a
        :class:`~repro.obs.TraceContext`) makes this a traced write: the
        router records the trace's root span, the primary hangs its
        ingest/fold/journal/publish spans under it, and every replica's
        apply joins the same trace — fetch the scattered spans with
        :meth:`trace_spans` and stitch them with
        :func:`repro.obs.assemble_trace`.
        """
        return self._traced_write(
            "ingest", graph, trace, labels=labels, edges=edges, remove_edges=remove_edges
        )

    def apply(self, delta, graph=None, trace=None):
        """Fold a prepared delta on the primary (``trace`` as in :meth:`ingest`)."""
        return self._traced_write("apply", graph, trace, delta)

    def apply_async(self, delta, graph=None):
        """Queue a delta on the primary's background writer.

        The returned handle's ``result()`` reports the folded version;
        call :meth:`note_version` with it to advance this client's
        read-your-writes floor (an unresolved async fold has no version
        to pin to yet).
        """
        return self._write("apply_async", delta, graph=self._graph_name(graph))

    def checkpoint(self, graph=None):
        """Checkpoint the durable tenant on the primary."""
        return self._write("checkpoint", graph=self._graph_name(graph))

    def create_graph(self, name, labels=(), edges=(), exist_ok=False):
        """Create a tenant on the primary (replicas pick it up when tailed)."""
        info = self._write(
            "create_graph", name, labels=labels, edges=edges, exist_ok=exist_ok
        )
        if self._graph is None:
            self._graph = name
        self._note_write(name, info.get("head_version"))
        return info

    def drop_graph(self, name, force=False, delete_storage=False):
        """Drop a tenant on the primary."""
        result = self._write(
            "drop_graph", name, force=force, delete_storage=delete_storage
        )
        if self._graph == name:
            self._graph = None
        return result

    def save(self, path, graph=None):
        """Persist the tenant's head on the primary; returns the path."""
        return self._write("save", path, graph=self._graph_name(graph))

    def note_version(self, version, graph=None) -> None:
        """Manually advance the read-your-writes floor (async fold results)."""
        self._note_write(self._graph_name(graph), version)

    # ------------------------------------------------------------------ #
    # reads -> replicas (primary fallback); the six Reader verbs arrive
    # through _read as well
    # ------------------------------------------------------------------ #

    def info(self, graph=None):
        """Head version / node / edge counts from a qualified node."""
        return self._read("info", graph=graph)

    # ------------------------------------------------------------------ #
    # topology introspection
    # ------------------------------------------------------------------ #

    def replica_status(self, graph=None) -> List[Dict[str, object]]:
        """Replication status of every configured replica, probed now.

        Each entry is the ``replication`` entry of the tenant in the
        replica's ``health`` reply — its tail's status (``head_version``,
        ``lag_versions``, ``connected``, ...) — plus ``target`` and
        ``reachable``.  The probe is the router's own health probe, so it
        refreshes the routing view (heads, lag, state) as well.
        """
        name = self._graph_name(graph)
        statuses: List[Dict[str, object]] = []
        with self._lock:
            for node in self._replicas:
                client = self._connect(node)
                document = self._probe_health(node, client) if client is not None else None
                if document is None:
                    statuses.append({"target": node.label, "reachable": False})
                    continue
                tenant = (document.get("tenants") or {}).get(name) or {}
                status = dict(tenant.get("replication") or {})
                status.update(target=node.label, reachable=True)
                statuses.append(status)
        return statuses

    def health(self) -> List[Dict[str, object]]:
        """Probe every configured node's ``health`` op right now.

        Each entry carries the node's ``target`` / ``endpoint`` and its
        verdict: the server-reported document for nodes that answered,
        ``status="unreachable"`` for nodes that did not (down, or frozen
        past ``probe_timeout``).
        """
        out: List[Dict[str, object]] = []
        with self._lock:
            for node in [self._primary, *self._replicas]:
                entry: Dict[str, object] = {
                    "target": node.label,
                    "endpoint": list(node.endpoint),
                }
                client = self._connect(node)
                document = (
                    self._probe_health(node, client) if client is not None else None
                )
                if document is not None:
                    entry.update(document)
                else:
                    entry["status"] = health_states.UNREACHABLE
                out.append(entry)
        return out

    def trace_spans(
        self, trace_id: Optional[str] = None, graph: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """Every span of one trace visible from this router.

        Merges the router's own root spans with the span rings (the
        ``trace`` op) of the primary and every reachable replica; feed the
        result to :func:`repro.obs.assemble_trace` for the cross-node tree.
        ``trace_id`` defaults to the router's most recent traced write.
        """
        name = self._graph_name(graph)
        trace_id = trace_id or self.last_trace_id
        collected: List[Dict[str, object]] = [
            span
            for span in self.spans.recent()
            if trace_id is None or span.get("trace_id") == trace_id
        ]
        with self._lock:
            for node in [self._primary, *self._replicas]:
                client = self._connect(node)
                if client is None:
                    continue
                try:
                    collected.extend(client.trace(trace_id=trace_id, graph=name)["spans"])
                except Exception:
                    continue  # a node missing from the sweep shows up as orphans
        return collected

    def stats(self) -> Dict[str, object]:
        """Routing state at a glance: per-node health, observed lag, counts."""
        with self._lock:
            replicas = []
            for node in self._replicas:
                replicas.append(
                    {
                        "target": node.label,
                        "endpoint": list(node.endpoint),
                        "status": node.state,
                        "connected": node.client is not None,
                        "lag_versions": dict(node.lag),
                    }
                )
            reads = {
                key[0]: child.value
                for key, child in self._m_reads.children()
                if key
            }
            return {
                "primary": {
                    "endpoint": list(self._primary.endpoint),
                    "status": self._primary.state,
                    "connected": self._primary.client is not None,
                },
                "replicas": replicas,
                "reads_by_target": reads,
                "writes": self._m_writes.value,
                "evictions": self._m_evictions.value,
                "known_heads": dict(self._known_head),
                "last_written": dict(self._last_written),
            }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Close every node connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for node in [self._primary, *self._replicas]:
            if node.client is not None:
                try:
                    node.client.close()
                except Exception:
                    pass
                node.client = None

    def __enter__(self) -> "RoutedClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoutedClient(primary={self._primary.endpoint}, "
            f"replicas={[node.endpoint for node in self._replicas]}, "
            f"graph={self._graph!r})"
        )
