"""Factory for reachability indexes.

The matching algorithms accept any :class:`ReachabilityIndex`; this factory
keeps the string-to-class mapping in one place so benchmarks and examples can
select a scheme by name (``"bfl"`` is the default, as in the paper).
"""

from __future__ import annotations

from typing import Dict, Type

from repro.exceptions import ReachabilityError
from repro.graph.digraph import DataGraph
from repro.reachability.base import BFSReachability, ReachabilityIndex
from repro.reachability.bfl import BloomFilterLabeling
from repro.reachability.interval import IntervalIndex
from repro.reachability.transitive_closure import TransitiveClosureIndex

REACHABILITY_KINDS: Dict[str, Type[ReachabilityIndex]] = {
    "bfl": BloomFilterLabeling,
    "interval": IntervalIndex,
    "tc": TransitiveClosureIndex,
    "bfs": BFSReachability,
}


def build_reachability_index(graph: DataGraph, kind: str = "bfl", **kwargs) -> ReachabilityIndex:
    """Build a reachability index of the requested kind for ``graph``.

    Parameters
    ----------
    graph:
        The data graph to index.
    kind:
        One of ``"bfl"`` (Bloom Filter Labeling, the paper's choice),
        ``"interval"`` (DFS intervals on the condensation), ``"tc"``
        (materialised transitive closure) or ``"bfs"`` (no index).
    kwargs:
        Extra keyword arguments forwarded to the index constructor
        (e.g. ``num_bits`` for BFL).
    """
    return index_class(kind)(graph, **kwargs)


def index_class(kind: str) -> Type[ReachabilityIndex]:
    """The index class registered as ``kind``; :class:`ReachabilityError`
    if there is none."""
    try:
        return REACHABILITY_KINDS[kind]
    except KeyError as exc:
        raise ReachabilityError(
            f"unknown reachability index kind {kind!r}; "
            f"available: {', '.join(sorted(REACHABILITY_KINDS))}"
        ) from exc
