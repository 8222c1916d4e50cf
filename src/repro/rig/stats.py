"""RIG size statistics (for the Fig. 13 experiment)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.graph.digraph import DataGraph
from repro.rig.graph import RuntimeIndexGraph


@dataclass(frozen=True)
class RIGStatistics:
    """Size of a RIG relative to its data graph."""

    query_name: str
    rig_nodes: int
    rig_edges: int
    #: Adjacency entries stored (both directions, shared sets once); the
    #: per-pair layout would store ``2 * rig_edges``.
    rig_physical_edges: int
    rig_size: int
    graph_size: int
    size_ratio: float
    per_query_node: Dict[int, int]

    def ratio_percent(self) -> float:
        """RIG size as a percentage of the data-graph size."""
        return 100.0 * self.size_ratio


def rig_statistics(rig: RuntimeIndexGraph, graph: DataGraph) -> RIGStatistics:
    """Measure ``rig`` against ``graph`` (size = nodes + edges for both)."""
    rig_nodes = rig.num_rig_nodes()
    rig_edges = rig.num_rig_edges()
    graph_size = graph.num_nodes + graph.num_edges
    rig_size = rig_nodes + rig_edges
    return RIGStatistics(
        query_name=rig.query.name,
        rig_nodes=rig_nodes,
        rig_edges=rig_edges,
        rig_physical_edges=rig.num_physical_edges(),
        rig_size=rig_size,
        graph_size=graph_size,
        size_ratio=(rig_size / graph_size) if graph_size else 0.0,
        per_query_node={node: rig.candidate_count(node) for node in rig.query.nodes()},
    )
