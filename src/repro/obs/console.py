"""``python -m repro.obs.console`` — a top-style live cluster dashboard.

One screen, refreshed in place, over a :class:`~repro.obs.federation.
ClusterMonitor`: per-node role / health / QPS / p99 / replication lag /
queue depth, the fleet's slow-query tail, and the most recent lifecycle
events from each node's event ring.

::

    python -m repro.obs.console \\
        --node 127.0.0.1:7687 --node 127.0.0.1:7688 --node 127.0.0.1:7689 \\
        --interval 2.0

``--once`` renders a single frame and exits (scriptable / testable);
otherwise the console loops until interrupted.  Rendering is a pure
function of two consecutive cluster snapshots (:func:`render_dashboard`),
so tests drive it without sockets or timers.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.federation import ClusterMonitor


def _family_values(document: Mapping, name: str) -> List[Mapping]:
    family = (document.get("metrics") or {}).get(name) or {}
    return list(family.get("values", ()))


def _node_requests(document: Mapping) -> Dict[str, float]:
    """Total wire requests per node label (for QPS deltas)."""
    totals: Dict[str, float] = {}
    for value in _family_values(document, "server_requests_total"):
        node = str((value.get("labels") or {}).get("node", "?"))
        totals[node] = totals.get(node, 0.0) + float(value.get("value") or 0.0)
    return totals


def _node_p99(document: Mapping) -> Dict[str, float]:
    """Approximate p99 query seconds per node from histogram buckets."""
    merged: Dict[str, Tuple[int, List[Tuple[float, int]]]] = {}
    for value in _family_values(document, "service_query_seconds"):
        node = str((value.get("labels") or {}).get("node", "?"))
        count = int(value.get("count") or 0)
        buckets: Dict[float, int] = {}
        for bound, cumulative in (value.get("buckets") or {}).items():
            bbound = float("inf") if bound in ("+Inf", "inf") else float(bound)
            buckets[bbound] = buckets.get(bbound, 0) + int(cumulative)
        prior_count, prior = merged.get(node, (0, []))
        combined: Dict[float, int] = dict(prior)
        for bound, cumulative in buckets.items():
            combined[bound] = combined.get(bound, 0) + cumulative
        merged[node] = (prior_count + count, sorted(combined.items()))
    out: Dict[str, float] = {}
    for node, (count, buckets) in merged.items():
        if count <= 0:
            continue
        target = 0.99 * count
        for bound, cumulative in buckets:
            if cumulative >= target:
                out[node] = bound
                break
    return out


def _node_gauge_max(document: Mapping, family: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for value in _family_values(document, family):
        node = str((value.get("labels") or {}).get("node", "?"))
        out[node] = max(out.get(node, 0.0), float(value.get("value") or 0.0))
    return out


def _format_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == float("inf"):
        return ">max"
    if value < 0.001:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def render_dashboard(
    document: Mapping,
    events: List[Mapping] = (),
    slow: List[Mapping] = (),
    previous: Optional[Mapping] = None,
    dt: Optional[float] = None,
    width: int = 100,
) -> str:
    """One dashboard frame as text (pure: snapshots in, string out).

    ``previous``/``dt`` (the prior scrape and the seconds between them)
    turn the monotone request counters into QPS; without them the QPS
    column shows ``-``.
    """
    lines: List[str] = []
    derived = document.get("derived") or {}

    def derived_value(name: str) -> float:
        values = (derived.get(name) or {}).get("values") or [{}]
        return float(values[0].get("value") or 0.0)

    status = str(document.get("status", "?"))
    lines.append(
        f"cluster status: {status}   "
        f"nodes {derived_value('cluster_nodes_reachable'):.0f}"
        f"/{derived_value('cluster_nodes_total'):.0f} reachable   "
        f"max lag {derived_value('cluster_replication_lag_max_versions'):.0f}v   "
        f"error rate {derived_value('cluster_error_rate') * 100:.2f}%   "
        f"r/w {derived_value('cluster_read_requests_total'):.0f}"
        f"/{derived_value('cluster_write_requests_total'):.0f}"
    )
    lines.append("-" * width)

    requests = _node_requests(document)
    qps: Dict[str, float] = {}
    if previous is not None and dt:
        prior = _node_requests(previous)
        for node, total in requests.items():
            qps[node] = max(0.0, total - prior.get(node, 0.0)) / dt
    p99 = _node_p99(document)
    lag = _node_gauge_max(document, "replication_lag_versions")
    queue = _node_gauge_max(document, "service_queue_depth")

    header = (
        f"{'node':<28} {'role':<8} {'status':<12} {'qps':>8} "
        f"{'p99':>8} {'lag':>6} {'queue':>6}"
    )
    lines.append(header)
    for label, node in sorted((document.get("nodes") or {}).items()):
        if not node.get("reachable"):
            lines.append(
                f"{label:<28} {'-':<8} {str(node.get('status', '?')):<12} "
                f"{'-':>8} {'-':>8} {'-':>6} {'-':>6}"
            )
            continue
        name = str(node.get("node", label))
        qps_text = f"{qps[name]:.1f}" if name in qps else "-"
        lines.append(
            f"{label:<28} {str(node.get('role', '?')):<8} "
            f"{str(node.get('status', '?')):<12} {qps_text:>8} "
            f"{_format_seconds(p99.get(name)):>8} "
            f"{lag.get(name, 0.0):>6.0f} {queue.get(name, 0.0):>6.0f}"
        )

    if slow:
        lines.append("")
        lines.append("slow queries (newest last):")
        for entry in slow[-5:]:
            lines.append(
                f"  {str(entry.get('node', '?')):<20} "
                f"{str(entry.get('tenant', entry.get('graph', '?'))):<12} "
                f"{_format_seconds(entry.get('seconds')):>8}  "
                f"{str(entry.get('query', entry.get('name', '?')))[:40]}"
            )
    if events:
        lines.append("")
        lines.append("recent events (newest last):")
        for event in events[-8:]:
            lines.append(
                f"  {str(event.get('node', '?')):<20} "
                f"{str(event.get('kind', '?')):<18} "
                f"{str(event.get('message', ''))[:56]}"
            )
    return "\n".join(lines)


def _parse_endpoint(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected host:port, got {text!r}"
        )
    return host, int(port)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.console",
        description="Live cluster dashboard over the graph-serving fleet.",
    )
    parser.add_argument(
        "--node",
        dest="nodes",
        type=_parse_endpoint,
        action="append",
        required=True,
        metavar="HOST:PORT",
        help="a serving node to watch (repeat per node; primary first)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    parser.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    parser.add_argument(
        "--events", type=int, default=8, help="lifecycle events to tail"
    )
    parser.add_argument(
        "--slow", type=int, default=5, help="slow-query entries to tail"
    )
    args = parser.parse_args(argv)

    monitor = ClusterMonitor(args.nodes, interval=args.interval)
    previous = None
    previous_at = None
    try:
        while True:
            document = monitor.scrape_once()
            now = time.monotonic()
            frame = render_dashboard(
                document,
                events=monitor.events(limit=args.events),
                slow=monitor.slow_queries(limit=args.slow),
                previous=previous,
                dt=(now - previous_at) if previous_at is not None else None,
            )
            if args.once:
                print(frame)
                return 0
            # Clear + home, like top: one frame always fills the screen.
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
            previous, previous_at = document, now
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        monitor.stop()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
