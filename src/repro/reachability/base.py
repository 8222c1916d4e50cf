"""Common interface for reachability indexes."""

from __future__ import annotations

import time
from abc import ABC, abstractmethod

from repro.graph.digraph import DataGraph


class ReachabilityIndex(ABC):
    """Answers ``reaches(u, v)``: is there a path from ``u`` to ``v``?

    By convention every node reaches itself (``reaches(u, u)`` is True),
    matching the behaviour the query-evaluation algorithms expect for
    descendant edges mapped to paths of length >= 1 between *distinct*
    candidate pairs — self-pairs only arise when a query maps two query
    nodes to the same data node, which a homomorphism permits.

    Concrete indexes record their construction time so the benchmark for
    Fig. 18(a) (BFL vs transitive closure vs catalog build time) can report
    it without re-measuring.
    """

    def __init__(self, graph: DataGraph) -> None:
        self._graph = graph
        self._build_seconds = 0.0
        start = time.perf_counter()
        self._build(graph)
        self._build_seconds = time.perf_counter() - start

    @property
    def graph(self) -> DataGraph:
        """The data graph this index was built for."""
        return self._graph

    @property
    def build_seconds(self) -> float:
        """Wall-clock seconds spent building the index."""
        return self._build_seconds

    @abstractmethod
    def _build(self, graph: DataGraph) -> None:
        """Construct the index structures for ``graph``."""

    @abstractmethod
    def reaches(self, source: int, target: int) -> bool:
        """Return True if ``source`` reaches ``target`` (or they are equal)."""

    def reaches_strict(self, source: int, target: int) -> bool:
        """Reachability through a path of length >= 1.

        ``reaches_strict(u, u)`` is True only if ``u`` lies on a cycle.
        """
        if source != target:
            return self.reaches(source, target)
        return any(
            self.reaches(child, source) for child in self._graph.successors(source)
        )

    def index_name(self) -> str:
        """Short name for reports."""
        return type(self).__name__


class BFSReachability(ReachabilityIndex):
    """Index-free reachability: answer each query with a fresh BFS.

    Used as the ground truth in tests and as the no-precomputation baseline;
    it has zero build cost and O(V + E) query cost.
    """

    def _build(self, graph: DataGraph) -> None:
        # Nothing to precompute.
        return

    def reaches(self, source: int, target: int) -> bool:
        return self._graph.reaches_bfs(source, target)
