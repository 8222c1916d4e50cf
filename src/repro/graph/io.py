"""Persistence for data graphs.

Three formats are supported:

* **edge list** — one ``source target`` pair per line, ``#`` comments allowed
  (the SNAP collection distributes its graphs this way);
* **label file** — one ``node label`` pair per line;
* **JSON** — a single self-describing document carrying the graph *plus its
  dynamic metadata*: the monotone data version and, optionally, a pending
  :class:`repro.dynamic.GraphDelta` — so an evolving graph can be
  checkpointed mid-update-stream and resumed exactly.

:func:`save_graph` / :func:`load_graph` bundle the two plain-text files
under a shared stem (``<stem>.edges`` and ``<stem>.labels``);
:func:`save_graph_json` / :func:`load_graph_json` /
:func:`load_graph_delta_json` handle the JSON document.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import GraphError
from repro.graph.digraph import DataGraph

#: Format tag and version written into every JSON graph document.
JSON_FORMAT = "repro-graph"
JSON_FORMAT_VERSION = 1


def write_edge_list(graph: DataGraph, path: str) -> None:
    """Write the graph's edges to ``path`` in SNAP edge-list format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# {graph.name}: {graph.num_nodes} nodes, {graph.num_edges} edges\n")
        for source, target in graph.edges():
            handle.write(f"{source}\t{target}\n")


def read_edge_list(path: str) -> List[Tuple[int, int]]:
    """Read ``(source, target)`` pairs from an edge-list file."""
    edges: List[Tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise GraphError(f"{path}:{line_number}: expected 'source target', got {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
    return edges


def write_labels(graph: DataGraph, path: str) -> None:
    """Write node labels to ``path``, one ``node label`` pair per line."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# {graph.name}: labels for {graph.num_nodes} nodes\n")
        for node in graph.nodes():
            handle.write(f"{node}\t{graph.label(node)}\n")


def read_labels(path: str) -> Dict[int, str]:
    """Read a node-to-label mapping from a label file."""
    labels: Dict[int, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise GraphError(f"{path}:{line_number}: expected 'node label', got {line!r}")
            labels[int(parts[0])] = parts[1]
    return labels


def save_graph(graph: DataGraph, stem: str) -> Tuple[str, str]:
    """Persist ``graph`` as ``<stem>.edges`` and ``<stem>.labels``.

    Returns the pair of file paths written.
    """
    edge_path = stem + ".edges"
    label_path = stem + ".labels"
    write_edge_list(graph, edge_path)
    write_labels(graph, label_path)
    return edge_path, label_path


def load_graph(stem: str, name: str | None = None) -> DataGraph:
    """Load a graph previously written by :func:`save_graph`."""
    edge_path = stem + ".edges"
    label_path = stem + ".labels"
    if not os.path.exists(edge_path):
        raise GraphError(f"missing edge file {edge_path}")
    if not os.path.exists(label_path):
        raise GraphError(f"missing label file {label_path}")
    edges = read_edge_list(edge_path)
    label_map = read_labels(label_path)
    return graph_from_parts(label_map, edges, name=name or os.path.basename(stem))


def _write_json_atomic(payload: Dict, path: str) -> str:
    """Write ``payload`` to ``path`` atomically (temp file + ``os.replace``).

    A reader (or a crash-recovery pass) therefore only ever observes either
    the previous complete document or the new complete document — never a
    truncated half-written one.  The temp file lives in the destination
    directory so the replace stays on one filesystem, and is fsync'd before
    the rename so the checkpoint path can rely on the bytes being durable.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def save_graph_json(graph, path: str, delta=None) -> str:
    """Persist a graph (and optional pending delta) as one JSON document.

    ``graph`` may be a :class:`DataGraph` or a
    :class:`repro.dynamic.MutableDataGraph` recorder — its *current* state
    (labels, edges) and version are written either way.  ``delta`` is an
    optional :class:`repro.dynamic.GraphDelta` serialised alongside, e.g.
    the not-yet-applied tail of an update stream.  The document is written
    atomically (temp file + rename), so a crash mid-save never leaves a
    truncated, unloadable file behind.  Returns ``path``.
    """
    payload = {
        "format": JSON_FORMAT,
        "format_version": JSON_FORMAT_VERSION,
        "name": graph.name,
        "version": getattr(graph, "version", 0),
        "labels": list(graph.labels),
        "edges": [[source, target] for source, target in graph.edges()],
    }
    if delta is not None:
        payload["delta"] = delta.to_dict()
    return _write_json_atomic(payload, path)


def _read_graph_payload(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise GraphError(f"{path}: not valid JSON: {exc}") from exc
    if payload.get("format") != JSON_FORMAT:
        raise GraphError(f"{path}: not a {JSON_FORMAT} document")
    if payload.get("format_version", 0) > JSON_FORMAT_VERSION:
        raise GraphError(
            f"{path}: format version {payload['format_version']} is newer "
            f"than supported ({JSON_FORMAT_VERSION})"
        )
    return payload


def _graph_from_payload(payload: Dict, path: str, name: Optional[str]) -> DataGraph:
    return DataGraph(
        payload["labels"],
        [(int(source), int(target)) for source, target in payload["edges"]],
        name=name or payload.get("name", os.path.basename(path)),
        version=int(payload.get("version", 0)),
    )


def load_graph_json(path: str, name: Optional[str] = None) -> DataGraph:
    """Load a :class:`DataGraph` written by :func:`save_graph_json`.

    Labels, edges, ``I_label`` ordering (a function of node ids, which are
    preserved verbatim) and the data version all round-trip.  A stored
    pending delta, if any, is ignored — use :func:`load_graph_delta_json`
    to recover it.
    """
    return _graph_from_payload(_read_graph_payload(path), path, name)


def load_graph_delta_json(path: str, name: Optional[str] = None):
    """Load ``(graph, pending_delta_or_None)`` from a JSON document.

    Replay is version-checked: a stored delta whose
    :attr:`~repro.dynamic.GraphDelta.base_version` is *older* than the
    saved graph's version was already folded into the graph before the
    save, so returning it would invite a double-apply — it comes back as
    ``None`` instead.  Deltas without a recorded base version (hand-built,
    or written by an older format) are returned as-is.
    """
    from repro.dynamic.delta import GraphDelta

    payload = _read_graph_payload(path)
    graph = _graph_from_payload(payload, path, name)
    raw_delta = payload.get("delta")
    delta = GraphDelta.from_dict(raw_delta) if raw_delta is not None else None
    if (
        delta is not None
        and delta.base_version is not None
        and delta.base_version < graph.version
    ):
        delta = None
    return graph, delta


def graph_from_parts(
    label_map: Dict[int, str], edges: Iterable[Tuple[int, int]], name: str = "graph"
) -> DataGraph:
    """Assemble a :class:`DataGraph` from a label mapping and an edge list.

    Node ids referenced by edges but absent from ``label_map`` are rejected,
    because every node of a data graph must carry a label (Definition 2.1).
    """
    if not label_map:
        return DataGraph([], [], name=name)
    max_node = max(label_map)
    labels: List[str] = ["" for _ in range(max_node + 1)]
    for node, label in label_map.items():
        if node < 0:
            raise GraphError(f"negative node id {node}")
        labels[node] = label
    missing = [node for node, label in enumerate(labels) if label == ""]
    if missing:
        raise GraphError(f"nodes without a label: {missing[:10]}")
    for source, target in edges:
        if source > max_node or target > max_node or source < 0 or target < 0:
            raise GraphError(f"edge ({source}, {target}) references an unlabelled node")
    return DataGraph(labels, edges, name=name)
