"""Unit tests for the reachability indexes."""

import pytest

from repro.exceptions import ReachabilityError
from repro.dynamic import GraphDelta
from repro.graph.digraph import DataGraph
from repro.graph.transform import condensation
from repro.reachability.base import BFSReachability
from repro.reachability.bfl import BloomFilterLabeling
from repro.reachability.factory import REACHABILITY_KINDS, build_reachability_index
from repro.reachability.transitive_closure import TransitiveClosureIndex
from repro.simulation.context import MatchContext


def BFLOnAFoldedCondensation(graph):
    """BFL over the condensation a match context folded up to ``graph``:
    the edgeless version first, then one insert delta per edge, so the
    labelled arrays have sparse ranks and the ids a merge emptied."""
    version = DataGraph([graph.label(node) for node in graph.nodes()], [])
    context = MatchContext(version)
    context._components()
    for edge in graph.edges():
        version, effective = version.with_delta(GraphDelta.for_graph(version).add_edge(*edge))
        context = context.with_delta(version, effective)
    index = context.reachability
    assert isinstance(index, BloomFilterLabeling) and index._cond is context._components()
    return index


ALL_INDEX_CLASSES = [
    BFSReachability,
    TransitiveClosureIndex,
    BloomFilterLabeling,
    BFLOnAFoldedCondensation,
]


@pytest.fixture()
def diamond_with_cycle():
    # 0 -> 1 -> 3, 0 -> 2 -> 3, 3 -> 4, and a cycle 4 -> 5 -> 4; 6 isolated.
    edges = [(0, 1), (1, 3), (0, 2), (2, 3), (3, 4), (4, 5), (5, 4)]
    return DataGraph(["X"] * 7, edges, name="diamond")


@pytest.mark.parametrize("index_class", ALL_INDEX_CLASSES)
class TestAllIndexes:
    def test_reflexive(self, diamond_with_cycle, index_class):
        index = index_class(diamond_with_cycle)
        assert index.reaches(3, 3)

    def test_direct_edge(self, diamond_with_cycle, index_class):
        index = index_class(diamond_with_cycle)
        assert index.reaches(0, 1)

    def test_path(self, diamond_with_cycle, index_class):
        index = index_class(diamond_with_cycle)
        assert index.reaches(0, 4)
        assert index.reaches(1, 5)

    def test_not_reachable(self, diamond_with_cycle, index_class):
        index = index_class(diamond_with_cycle)
        assert not index.reaches(4, 0)
        assert not index.reaches(6, 0)
        assert not index.reaches(0, 6)

    def test_cycle_members_reach_each_other(self, diamond_with_cycle, index_class):
        index = index_class(diamond_with_cycle)
        assert index.reaches(4, 5)
        assert index.reaches(5, 4)

    def test_reaches_strict(self, diamond_with_cycle, index_class):
        index = index_class(diamond_with_cycle)
        # 4 is on a cycle, 0 is not.
        assert index.reaches_strict(4, 4)
        assert not index.reaches_strict(0, 0)
        assert index.reaches_strict(0, 3)

    def test_agrees_with_bfs_everywhere(self, diamond_with_cycle, index_class):
        index = index_class(diamond_with_cycle)
        graph = diamond_with_cycle
        for u in graph.nodes():
            for v in graph.nodes():
                assert index.reaches(u, v) == graph.reaches_bfs(u, v), (u, v)

    def test_build_time_recorded(self, diamond_with_cycle, index_class):
        index = index_class(diamond_with_cycle)
        assert index.build_seconds >= 0.0


class TestTransitiveClosureSpecifics:
    def test_reachable_set(self, diamond_with_cycle):
        index = TransitiveClosureIndex(diamond_with_cycle)
        assert set(index.reachable_set(3)) == {3, 4, 5}

    def test_closure_edges_exclude_self(self, diamond_with_cycle):
        index = TransitiveClosureIndex(diamond_with_cycle)
        edges = index.closure_edges()
        assert (0, 4) in edges
        assert all(u != v for u, v in edges)
        assert index.num_closure_edges() == len(edges)


class TestBFLSpecifics:
    def test_label_size(self, diamond_with_cycle):
        index = BloomFilterLabeling(diamond_with_cycle, num_bits=32)
        assert index.label_size_bits() == 2 * 32 * 6  # 6 SCC components

    def test_fallback_counter_monotone(self, diamond_with_cycle):
        index = BloomFilterLabeling(diamond_with_cycle)
        before = index.dfs_fallback_count
        for u in diamond_with_cycle.nodes():
            for v in diamond_with_cycle.nodes():
                index.reaches(u, v)
        assert index.dfs_fallback_count >= before

    def test_given_condensation_is_labelled_not_recomputed(self, diamond_with_cycle, monkeypatch):
        given = condensation(diamond_with_cycle)
        monkeypatch.setattr("repro.reachability.bfl.condensation", None)
        index = BloomFilterLabeling(diamond_with_cycle, condensation=given)
        assert index._cond is given
        for u in diamond_with_cycle.nodes():
            for v in diamond_with_cycle.nodes():
                assert index.reaches(u, v) == diamond_with_cycle.reaches_bfs(u, v)

    def test_custom_parameters(self, diamond_with_cycle):
        index = BloomFilterLabeling(diamond_with_cycle, num_bits=16, num_hashes=3, seed=99)
        for u in diamond_with_cycle.nodes():
            for v in diamond_with_cycle.nodes():
                assert index.reaches(u, v) == diamond_with_cycle.reaches_bfs(u, v)


class TestFactory:
    def test_all_kinds_registered(self):
        assert set(REACHABILITY_KINDS) == {"bfl", "tc", "bfs"}

    def test_build_by_name(self, diamond_with_cycle):
        for kind, expected in (("bfl", BloomFilterLabeling), ("tc", TransitiveClosureIndex),
                               ("bfs", BFSReachability)):
            index = build_reachability_index(diamond_with_cycle, kind=kind)
            assert isinstance(index, expected)

    def test_kwargs_forwarded(self, diamond_with_cycle):
        index = build_reachability_index(diamond_with_cycle, kind="bfl", num_bits=16)
        assert isinstance(index, BloomFilterLabeling)

    def test_unknown_kind(self, diamond_with_cycle):
        with pytest.raises(ReachabilityError):
            build_reachability_index(diamond_with_cycle, kind="nope")

    def test_index_name(self, diamond_with_cycle):
        assert build_reachability_index(diamond_with_cycle, kind="bfl").index_name() == "BloomFilterLabeling"
