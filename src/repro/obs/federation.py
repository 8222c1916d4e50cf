"""Metrics federation: one scraper over every node's tenant registries.

A cluster is a primary plus N replicas, each serving per-tenant
:class:`~repro.obs.MetricsRegistry` documents over the ``metrics`` wire
op and a role/lag summary over ``health``.  :class:`ClusterMonitor`
scrapes them all — once on demand (:meth:`scrape_once`) or on an
interval (:meth:`start`) — and merges the per-tenant families into one
cluster document where every sample carries ``node`` / ``role`` /
``tenant`` labels, so ``replication_lag_versions{node="replica-0",
tenant="social"}`` means what it says regardless of which process
exported it.

On top of the merged families the monitor derives fleet-level gauges:

* ``cluster_replication_lag_max_versions`` — the worst replica lag
  anywhere (the number a routing SLO cares about);
* ``cluster_read_requests_total`` / ``cluster_write_requests_total`` —
  the fleet's read/write split, classified from the per-op request
  counters by the ``write`` flag of :data:`repro.server.protocol.OPS`;
* ``cluster_error_rate`` — fleet-wide errored fraction of requests;
* ``cluster_nodes_reachable`` / ``cluster_nodes_total``.

Both surfaces are exposed as JSON (:meth:`snapshot`) and Prometheus
text exposition (:meth:`to_prometheus`).  The monitor is thread-safe:
scrapes build a fresh document and swap it in under a lock, so readers
never observe a half-merged snapshot.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs import health as health_states
from repro.obs.events import tail
from repro.obs.metrics import render_prometheus

#: A scrape target: ``(host, port)`` or ``(host, port, label)``.
NodeSpec = Union[Tuple[str, int], Tuple[str, int, str]]

class _Target:
    """One scrape target's endpoint, label and cached client."""

    def __init__(self, host: str, port: int, label: Optional[str] = None) -> None:
        self.host = str(host)
        self.port = int(port)
        self.label = label or f"{self.host}:{self.port}"
        self.client = None

    def connect(self, timeout: Optional[float]):
        """The cached wire client, connecting lazily; raises on failure."""
        if self.client is None:
            # Lazy import: repro.client imports obs submodules; importing
            # it at module scope would cycle through the obs package.
            from repro.client.client import GraphClient

            self.client = GraphClient(
                self.host, self.port, timeout=timeout, reconnect=False
            )
        return self.client

    def drop(self) -> None:
        if self.client is not None:
            try:
                self.client.close()
            except Exception:
                pass
            self.client = None


class ClusterMonitor:
    """Scrape, merge and derive: the cluster's one observability surface.

    Parameters
    ----------
    nodes:
        Scrape targets, ``(host, port)`` or ``(host, port, label)``.
        Labels default to ``host:port``; the *server-reported* node name
        (``health``'s ``node`` field) is used for the ``node`` metric
        label when available, so federated samples match the names spans
        carry.
    interval:
        Background scrape period for :meth:`start` (seconds).
    probe_timeout:
        Socket wait bound per request while scraping — an unresponsive
        node costs one timeout, not a hung scrape.
    """

    def __init__(
        self,
        nodes: Sequence[NodeSpec],
        interval: float = 2.0,
        probe_timeout: float = 5.0,
    ) -> None:
        self._targets = [
            _Target(*node) if len(node) >= 3 else _Target(node[0], node[1])
            for node in nodes
        ]
        self.interval = float(interval)
        self.probe_timeout = float(probe_timeout)
        self._lock = threading.Lock()
        self._document: Optional[Dict[str, object]] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self.scrapes = 0
        self.scrape_errors = 0

    # ------------------------------------------------------------------ #
    # scraping
    # ------------------------------------------------------------------ #

    def _scrape_node(self, target: _Target) -> Dict[str, object]:
        """One node's health + per-tenant metric documents (or unreachable)."""
        try:
            client = target.connect(self.probe_timeout)
            health = client.health(timeout=self.probe_timeout)
        except Exception as exc:
            target.drop()
            self.scrape_errors += 1
            return {
                "label": target.label,
                "reachable": False,
                "status": health_states.UNREACHABLE,
                "error": str(exc),
            }
        node_name = str(health.get("node") or target.label)
        entry: Dict[str, object] = {
            "label": target.label,
            "node": node_name,
            "reachable": True,
            "role": str(health.get("role") or "unknown"),
            "status": str(health.get("status") or "unknown"),
            "uptime_seconds": health.get("uptime_seconds"),
            "health": health,
            "tenants": {},
        }
        for tenant in sorted((health.get("tenants") or {})):
            try:
                entry["tenants"][tenant] = client.server_metrics(graph=tenant)
            except Exception:
                # The tenant was dropped mid-scrape: its families are
                # simply absent this round.
                continue
        return entry

    def scrape_once(self) -> Dict[str, object]:
        """Scrape every node now; merge, derive, publish and return."""
        nodes = [self._scrape_node(target) for target in self._targets]
        document = self._merge(nodes)
        with self._lock:
            self._document = document
            self.scrapes += 1
        return document

    def _merge(self, nodes: List[Dict[str, object]]) -> Dict[str, object]:
        # Lazy import: repro.server imports the obs package.
        from repro.server.protocol import OPS

        families: Dict[str, Dict[str, object]] = {}
        max_lag = 0.0
        reads = writes = errors = requests = 0.0
        for node in nodes:
            if not node.get("reachable"):
                continue
            node_name = str(node["node"])
            role = str(node["role"])
            for tenant, snapshot in (node.get("tenants") or {}).items():
                if not isinstance(snapshot, Mapping):
                    continue
                for name, family in sorted(snapshot.items()):
                    merged = families.setdefault(
                        name,
                        {
                            "type": family.get("type", "untyped"),
                            "help": family.get("help", ""),
                            "values": [],
                        },
                    )
                    for value in family.get("values", ()):
                        labels = dict(value.get("labels") or {})
                        labels.update(node=node_name, role=role, tenant=tenant)
                        stamped = dict(value)
                        stamped["labels"] = labels
                        merged["values"].append(stamped)
                        if name == "replication_lag_versions":
                            max_lag = max(max_lag, float(value.get("value") or 0.0))
                        elif name == "server_requests_total":
                            count = float(value.get("value") or 0.0)
                            requests += count
                            flags = OPS.get(labels.get("op"))
                            if flags is not None and flags.write:
                                writes += count
                            else:
                                reads += count
                        elif name == "server_errors_total":
                            errors += float(value.get("value") or 0.0)
        reachable = sum(1 for node in nodes if node.get("reachable"))
        derived = {
            "cluster_replication_lag_max_versions": {
                "type": "gauge",
                "help": "Worst replica lag (versions) across the fleet",
                "values": [{"labels": {}, "value": max_lag}],
            },
            "cluster_read_requests_total": {
                "type": "counter",
                "help": "Fleet-wide wire requests classified as reads",
                "values": [{"labels": {}, "value": reads}],
            },
            "cluster_write_requests_total": {
                "type": "counter",
                "help": (
                    "Fleet-wide wire requests classified as writes (ops whose "
                    "protocol.OPS row sets write; save counts as a read)"
                ),
                "values": [{"labels": {}, "value": writes}],
            },
            "cluster_error_rate": {
                "type": "gauge",
                "help": "Fleet-wide errored fraction of wire requests",
                "values": [
                    {"labels": {}, "value": errors / requests if requests else 0.0}
                ],
            },
            "cluster_nodes_reachable": {
                "type": "gauge",
                "help": "Scrape targets that answered this round",
                "values": [{"labels": {}, "value": float(reachable)}],
            },
            "cluster_nodes_total": {
                "type": "gauge",
                "help": "Scrape targets configured",
                "values": [{"labels": {}, "value": float(len(nodes))}],
            },
        }
        return {
            "scraped_at": time.time(),
            "status": health_states.worst(
                str(node.get("status", health_states.UNREACHABLE)) for node in nodes
            ),
            "nodes": {str(node["label"]): node for node in nodes},
            "metrics": families,
            "derived": derived,
        }

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, object]:
        """The latest merged cluster document (scraping first if none yet)."""
        with self._lock:
            document = self._document
        if document is None:
            document = self.scrape_once()
        return document

    def to_prometheus(self) -> str:
        """The merged families + derived gauges in text exposition format."""
        document = self.snapshot()
        return render_prometheus(
            {**(document.get("metrics") or {}), **(document.get("derived") or {})}
        )

    def health(self) -> Dict[str, object]:
        """Per-node health from the latest scrape: ``label -> status``."""
        document = self.snapshot()
        return {
            label: {
                "status": node.get("status"),
                "role": node.get("role"),
                "reachable": bool(node.get("reachable")),
            }
            for label, node in (document.get("nodes") or {}).items()
        }

    def events(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Live-tail every reachable node's event ring, merged by timestamp."""
        collected: List[Dict[str, object]] = []
        for target in self._targets:
            try:
                client = target.connect(self.probe_timeout)
                payload = client.events(limit=limit)
            except Exception:
                target.drop()
                continue
            for event in payload.get("events", ()):
                stamped = dict(event)
                stamped["node"] = target.label
                collected.append(stamped)
        collected.sort(key=lambda event: float(event.get("ts") or 0.0))
        return tail(collected, limit)

    def _trace_replies(self, **fields) -> Iterator[Tuple[str, str, Dict[str, list]]]:
        """``(node label, tenant, reply)`` of one ``trace`` op per reachable
        node × tenant; a node that fails any request is dropped whole."""
        for target in self._targets:
            try:
                client = target.connect(self.probe_timeout)
                health = client.health(timeout=self.probe_timeout)
                replies = [
                    (tenant, client.trace(graph=tenant, **fields))
                    for tenant in sorted(health.get("tenants") or {})
                ]
            except Exception:
                target.drop()
                continue
            for tenant, reply in replies:
                yield target.label, tenant, reply

    def slow_queries(
        self, limit: Optional[int] = None
    ) -> List[Dict[str, object]]:
        """The fleet's slow-query tail, merged across nodes and tenants,
        oldest first."""
        collected = [
            dict(entry, node=node, tenant=tenant)
            for node, tenant, reply in self._trace_replies(limit=limit)
            for entry in reply["slow_queries"]
        ]
        collected.sort(key=lambda entry: float(entry.get("ts") or 0.0))
        return tail(collected, limit)

    def trace_spans(self, trace_id: str) -> List[Dict[str, object]]:
        """Every span of one trace across all reachable nodes and tenants."""
        return [
            span
            for _, _, reply in self._trace_replies(trace_id=trace_id)
            for span in reply["spans"]
        ]

    # ------------------------------------------------------------------ #
    # background scraping
    # ------------------------------------------------------------------ #

    def start(self) -> "ClusterMonitor":
        """Scrape on :attr:`interval` until :meth:`stop` (daemon thread)."""
        if self._thread is not None:
            return self
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                try:
                    self.scrape_once()
                except Exception:
                    self.scrape_errors += 1
                self._stop.wait(self.interval)

        self._thread = threading.Thread(
            target=loop, name="cluster-monitor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the background scraper and drop every cached connection."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=10.0)
        for target in self._targets:
            target.drop()

    def __enter__(self) -> "ClusterMonitor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterMonitor({len(self._targets)} node(s), "
            f"scrapes={self.scrapes}, errors={self.scrape_errors})"
        )
