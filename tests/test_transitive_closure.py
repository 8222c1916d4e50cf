"""The transitive closure's int masks across machine-word boundaries.

``TransitiveClosureIndex`` keeps one Python ``int`` per node, bit ``v`` set
when ``v`` is reachable.  Every graph family below is drawn at sizes on both
sides of 64 and 128 nodes, so masks span one, two and three words, and each
query method is checked against a DFS computed independently of the index.
"""

from typing import Callable, Dict, List, Set, Tuple

import pytest

from repro.graph.digraph import DataGraph
from repro.reachability.transitive_closure import TransitiveClosureIndex, _members


def _graph(num_nodes: int, edges) -> DataGraph:
    return DataGraph(["X"] * num_nodes, sorted(set(edges)))


def chain(n: int) -> DataGraph:
    return _graph(n, [(v, v + 1) for v in range(n - 1)])


def reversed_chain(n: int) -> DataGraph:
    return _graph(n, [(v + 1, v) for v in range(n - 1)])


def cycle(n: int) -> DataGraph:
    return _graph(n, [(v, (v + 1) % n) for v in range(n)])


def out_star(n: int) -> DataGraph:
    return _graph(n, [(0, v) for v in range(1, n)])


def in_star(n: int) -> DataGraph:
    return _graph(n, [(v, 0) for v in range(1, n)])


def binary_tree(n: int) -> DataGraph:
    return _graph(n, [(v, child) for v in range(n) for child in (2 * v + 1, 2 * v + 2) if child < n])


def bridged_cycles(n: int) -> DataGraph:
    """Two cycles of ``n // 2`` nodes, the first feeding the second through
    one bridge; an odd ``n`` leaves the last node isolated."""
    half = n // 2
    edges = [(v, (v + 1) % half) for v in range(half)]
    edges += [(half + v, half + (v + 1) % half) for v in range(half)]
    edges.append((half - 1, half))
    return _graph(n, edges)


FAMILIES: Dict[str, Callable[[int], DataGraph]] = {
    "chain": chain,
    "reversed_chain": reversed_chain,
    "cycle": cycle,
    "out_star": out_star,
    "in_star": in_star,
    "binary_tree": binary_tree,
    "bridged_cycles": bridged_cycles,
}

#: One word, exactly one word, just over one word, three words.
SIZES = [63, 64, 65, 130]


def dfs_reachable(graph: DataGraph) -> List[Set[int]]:
    """Every node's reachable set, itself included, by one DFS per node."""
    reachable = []
    for source in graph.nodes():
        seen = {source}
        stack = [source]
        while stack:
            for child in graph.successors(stack.pop()):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        reachable.append(seen)
    return reachable


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_method_matches_dfs(family, size):
    graph = FAMILIES[family](size)
    index = TransitiveClosureIndex(graph)
    truth = dfs_reachable(graph)
    expected_edges: List[Tuple[int, int]] = []
    for source in graph.nodes():
        assert index.reachable_set(source) == sorted(truth[source])
        assert [v for v in graph.nodes() if index.reaches(source, v)] == sorted(truth[source])
        expected_edges.extend((source, v) for v in sorted(truth[source]) if v != source)
    # Row-major, heads ascending: the order the expanded graph is built in.
    assert index.closure_edges() == expected_edges
    assert index.num_closure_edges() == len(expected_edges)


@pytest.mark.parametrize(
    "mask, members",
    [
        (0, []),
        (1, [0]),
        (0b1011, [0, 1, 3]),
        (1 << 63, [63]),
        (1 << 64, [64]),
        ((1 << 64) | (1 << 63), [63, 64]),
        ((1 << 200) | (1 << 130) | 1, [0, 130, 200]),
        ((1 << 150) - 1, list(range(150))),
    ],
)
def test_members_decodes_set_bits_ascending(mask, members):
    assert _members(mask) == members


def test_empty_graph_has_an_empty_closure():
    index = TransitiveClosureIndex(_graph(0, []))
    assert index.closure_edges() == []
    assert index.num_closure_edges() == 0


def test_isolated_nodes_reach_only_themselves():
    index = TransitiveClosureIndex(_graph(70, []))
    for node in range(70):
        assert index.reaches(node, node)
        assert index.reachable_set(node) == [node]
        assert not any(index.reaches(node, other) for other in range(70) if other != node)
    assert index.closure_edges() == []
    assert index.num_closure_edges() == 0


def test_edges_across_word_boundaries_set_the_high_bits():
    # 63 <-> 64 straddles the first word boundary, 127 -> 128 the second,
    # 129 -> 0 wraps from the third word back to bit 0.
    index = TransitiveClosureIndex(_graph(130, [(63, 64), (64, 63), (127, 128), (129, 0)]))
    assert index.reachable_set(63) == index.reachable_set(64) == [63, 64]
    assert index.reachable_set(127) == [127, 128]
    assert index.reachable_set(129) == [0, 129]
    assert not index.reaches(128, 127) and not index.reaches(0, 129)
    assert index.closure_edges() == [(63, 64), (64, 63), (127, 128), (129, 0)]
    assert index.num_closure_edges() == 4
