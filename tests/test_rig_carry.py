"""Cached RIGs carried across a write equal cold builds.

``QuerySession.apply`` moves a cached RIG to the new graph version when the
folded match context's ``Gains`` (the label pairs the delta can have given an
edge or a path) avoid every edge of the RIG's query.  The oracle drives random
graphs through random deltas — weighted toward back edges that merge SCCs,
forward edges that add reachability, edges reachability already implied and
self-loops, with some new nodes, relabels and removals — through a bare
session and through a ``VersionedGraphStore`` whose RIG caches are warm.
After every delta, every RIG the new version serves from a carried entry
must equal a cold ``build_rig`` on that version (the same candidate sets and
the same adjacency in both directions), the fold's gains must hold every
label pair brute force finds newly joined by an edge or a path, every GM
variant must answer like brute force, and a version pinned before the write
must answer as before.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import bruteforce_homomorphisms
from repro.dynamic import GraphDelta
from repro.graph.digraph import DataGraph
from repro.matching.gm import GMVariant, GraphMatcher
from repro.query.pattern import PatternQuery
from repro.session import QuerySession
from repro.store import VersionedGraphStore

LABELS = "ABCDE"

#: Op kinds, weighted toward the inserts whose gains are subtle.
OPS = (
    "back", "back", "back", "forward", "forward", "forward", "implied", "implied",
    "self", "node", "relabel", "remove",
)

VARIANTS = {
    "GM": GMVariant.GM,
    "GM-S": GMVariant.GM_S,
    "GM-F": GMVariant.GM_F,
    "GM-NR": GMVariant.GM_NR,
}


@st.composite
def query(draw):
    """A tree-shaped query of 1-3 nodes, each edge of either kind, plus at
    most one extra edge (a triangle gives GM's transitive reduction work).
    Half the queries use one label throughout: a new cycle's first self-pair
    ``(label, label)`` is the gain easiest to miss."""
    size = draw(st.integers(1, 3))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=size, max_size=size))
    if draw(st.booleans()):
        labels = labels[:1] * size
    kind = st.sampled_from(("->", "=>"))
    edges = {}
    for node in range(1, size):
        other = draw(st.integers(0, node - 1))
        pair = (other, node) if draw(st.booleans()) else (node, other)
        edges[pair] = draw(kind)
    if size == 3 and draw(st.booleans()):
        pair = draw(st.sampled_from([(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]))
        if pair not in edges and pair[::-1] not in edges:
            edges[pair] = draw(kind)
    return PatternQuery(labels, [(s, t, k) for (s, t), k in edges.items()])


@st.composite
def graph_queries_and_deltas(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=10))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    edges = draw(st.sets(st.tuples(node, node), max_size=num_nodes))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=num_nodes, max_size=num_nodes))
    queries = draw(st.lists(query(), min_size=1, max_size=5, unique=True))
    op = st.tuples(st.sampled_from(OPS), st.integers(0, 999), st.integers(0, 999))
    deltas = draw(st.lists(st.lists(op, min_size=1, max_size=3), min_size=1, max_size=5))
    return DataGraph(labels, sorted(edges), name="carry"), queries, deltas


def build_delta(graph, ops):
    """The concrete delta the drawn ops mean on ``graph``."""
    delta = GraphDelta.for_graph(graph)
    edges = sorted(graph.edges())
    reached = {node: sorted(graph.bfs_forward(node)) for node in graph.nodes()}
    removed = set()
    for kind, first, second in ops:
        count = delta.base_num_nodes + delta.num_added_nodes
        source = first % count
        if kind == "node":
            delta.add_node(LABELS[first % len(LABELS)])
            if second % 2:  # wire the new node in
                delta.add_edge(count, second % count)
        elif kind == "relabel":
            delta.relabel(source, LABELS[second % len(LABELS)])
        elif kind == "remove":
            left = [edge for edge in edges if edge not in removed]
            if left:
                edge = left[first % len(left)]
                removed.add(edge)
                delta.remove_edge(*edge)
        elif kind == "self":
            delta.add_edge(source, source)
        elif kind == "forward":
            # Between two nodes unrelated so far, either way round: some of
            # these agree with the condensation's ranks, some go against them.
            pairs = [
                (u, v)
                for u in graph.nodes()
                for v in graph.nodes()
                if v not in reached[u] and u not in reached[v]
            ]
            if pairs:
                delta.add_edge(*pairs[first % len(pairs)])
        elif source >= graph.num_nodes:
            delta.add_edge(source, second % count)
        else:
            if kind == "back":  # from a node ``source`` reaches back to it
                pool = reached[source]
            else:  # "implied": to a node ``source`` already reaches
                pool = [n for n in reached[source] if n != source and not graph.has_edge(source, n)]
            if pool:
                target = pool[second % len(pool)]
                delta.add_edge(*((target, source) if kind == "back" else (source, target)))
    return delta


def strict_pairs(graph):
    """Every (u, v) with a path of length >= 1 from u to v."""
    return {
        (node, reached)
        for node in graph.nodes()
        for child in graph.successors(node)
        for reached in graph.bfs_forward(child)
    }


def assert_gains_cover(old, new, gains):
    """Every label pair that gained an edge or a path is in ``gains``."""
    label = new.label
    for pairs, gained in (
        (set(new.edges()) - set(old.edges()), gains.edges),
        (strict_pairs(new) - strict_pairs(old), gains.paths),
    ):
        assert {(label(u), label(v)) for u, v in pairs} <= gained


def assert_same_rig(carried, cold):
    rig, reference = carried.rig, cold.rig
    assert carried.query == cold.query
    for node in carried.query.nodes():
        assert set(rig.candidates(node)) == set(reference.candidates(node))
    for edge in carried.query.edges():
        for index in ("forward_index", "backward_index"):
            mine = getattr(rig, index)(*edge.endpoints())
            theirs = getattr(reference, index)(*edge.endpoints())
            assert {n: set(s) for n, s in mine.items()} == {n: set(s) for n, s in theirs.items()}


def check_carried(session, queries):
    """Every RIG the session holds at its version equals a cold build; the
    number checked is returned."""
    checked = 0
    for name, variant in VARIANTS.items():
        for query in queries:
            carried = session.cached_rig(query, variant)
            if carried is not None:
                cold = GraphMatcher(session.graph, variant=variant).build_rig(query)
                assert_same_rig(carried, cold)
                checked += 1
    return checked


def answers(reader, queries):
    return [
        reader.query(query, engine=name).occurrence_set() for name in VARIANTS for query in queries
    ]


def expected(graph, queries):
    cold = DataGraph(list(graph.labels), list(graph.edges()))
    return [frozenset(bruteforce_homomorphisms(cold, query)) for _ in VARIANTS for query in queries]


@settings(max_examples=200, deadline=None)
@given(data=graph_queries_and_deltas())
def test_carried_rigs_equal_cold_builds(data):
    graph, queries, deltas = data
    session = QuerySession(graph)
    assert answers(session, queries) == expected(graph, queries)
    with VersionedGraphStore(graph) as store:
        before = store.pin()
        assert answers(before, queries) == expected(graph, queries)
        for ops in deltas:
            old = session.graph
            delta = build_delta(old, ops)
            carried_before = session.cache_counts("rig")["patches"]
            report = session.apply(delta)
            if session.context.gains is not None:
                assert_gains_cover(old, session.graph, session.context.gains)
            store.apply(delta)
            carried = session.cache_counts("rig")["patches"] - carried_before
            checked = check_carried(session, queries)
            if report.new_version != report.old_version:
                assert checked == carried
            with store.pin() as head:
                check_carried(head.session, queries)
                truth = expected(session.graph, queries)
                assert answers(session, queries) == truth
                assert answers(head, queries) == truth
            # Written past, the pinned version still answers for its graph.
            assert answers(before, queries) == expected(before.graph, queries)
            before.release()
            before = store.pin()
        before.release()


# --------------------------------------------------------------------------- #
# fixed cases: what is carried, what is dropped, and how each is counted
# --------------------------------------------------------------------------- #

def _chain():
    """A -> B -> C, and a lone D -> E."""
    return DataGraph(["A", "B", "C", "D", "E"], [(0, 1), (1, 2), (3, 4)], name="chain")


AB = PatternQuery(["A", "B"], [(0, 1, "->")])
A_TO_C = PatternQuery(["A", "C"], [(0, 1, "=>")])
D_TO_E = PatternQuery(["D", "E"], [(0, 1, "=>")])
C_TO_D = PatternQuery(["C", "D"], [(0, 1, "=>")])


def test_a_write_keeps_the_rigs_whose_label_pairs_it_avoids():
    session = QuerySession(_chain())
    for query in (AB, A_TO_C, D_TO_E, C_TO_D):
        session.query(query)
    # C -> D joins {A, B, C} above to {D, E} below: every path pair it adds
    # crosses those sets, so only the D => E RIG and the direct A -> B RIG
    # keep their answers.
    delta = GraphDelta.for_graph(session.graph).add_edge(2, 3)
    counts = session.cache_counts("rig")
    report = session.apply(delta)
    after = session.cache_counts("rig")
    assert after["patches"] - counts["patches"] == 3
    assert after["invalidations"] - counts["invalidations"] == 1
    assert "rig" in report.patched and "rig" in report.invalidated
    for query, cached in ((AB, True), (A_TO_C, True), (D_TO_E, True), (C_TO_D, False)):
        assert session.query(query).extra["rig_cached"] is cached
    assert session.query(C_TO_D).occurrence_set() == {(2, 3)}


def test_an_edge_reachability_already_implied_changes_only_its_direct_pair():
    session = QuerySession(_chain())
    ac_direct = PatternQuery(["A", "C"], [(0, 1, "->")])
    for query in (A_TO_C, ac_direct):
        session.query(query)
    session.apply(GraphDelta.for_graph(session.graph).add_edge(0, 2))
    assert session.query(A_TO_C).extra["rig_cached"] is True
    assert session.query(ac_direct).extra["rig_cached"] is False
    assert session.query(ac_direct).occurrence_set() == {(0, 2)}


def test_a_new_cycle_gains_the_self_pair():
    # B -> A closes A -> B -> A: A now reaches A, B reaches B.
    session = QuerySession(_chain())
    a_to_a = PatternQuery(["A", "A"], [(0, 1, "=>")])
    assert not session.query(a_to_a).occurrence_set()
    session.apply(GraphDelta.for_graph(session.graph).add_edge(1, 0))
    assert session.query(a_to_a).extra["rig_cached"] is False
    assert session.query(a_to_a).occurrence_set() == {(0, 0)}


def test_removals_relabels_and_new_nodes_drop_every_rig():
    for change in (
        lambda delta: delta.remove_edge(3, 4),
        lambda delta: delta.relabel(4, "A"),
        lambda delta: delta.add_node("E"),
    ):
        session = QuerySession(_chain())
        session.query(AB)
        counts = session.cache_counts("rig")
        delta = GraphDelta.for_graph(session.graph)
        change(delta)
        report = session.apply(delta)
        after = session.cache_counts("rig")
        assert after["invalidations"] - counts["invalidations"] == 1
        assert after["patches"] == counts["patches"]
        assert "rig" not in report.patched
        assert session.query(AB).extra["rig_cached"] is False


def test_the_store_path_counts_each_rig_it_carries_or_drops():
    with VersionedGraphStore(_chain()) as store:
        with store.pin() as old:
            for query in (AB, A_TO_C, D_TO_E, C_TO_D):
                old.query(query)
            counts = old.session.cache_counts("rig")
            store.apply(GraphDelta.for_graph(store.graph).add_edge(2, 3))
            after = old.session.cache_counts("rig")
            assert after["patches"] - counts["patches"] == 3
            assert after["invalidations"] - counts["invalidations"] == 1
            # The old epoch keeps its own RIGs, and its answers.
            assert old.query(C_TO_D).extra["rig_cached"] is True
            assert not old.query(C_TO_D).occurrence_set()
        with store.pin() as head:
            assert head.query(D_TO_E).extra["rig_cached"] is True
            assert head.query(C_TO_D).extra["rig_cached"] is False
            assert head.query(C_TO_D).occurrence_set() == {(2, 3)}


def test_pattern_query_hash_is_computed_once_and_agrees_with_equality():
    first = PatternQuery(["A", "B", "C"], [(0, 1, "->"), (1, 2, "=>")], name="one")
    second = PatternQuery(["A", "B", "C"], [(1, 2, "=>"), (0, 1, "child")], name="two")
    assert first._hash is None  # nothing hashed until the first probe
    assert first == second and hash(first) == hash(second) == first._hash
    assert hash(first.with_edges([(0, 1, "=>"), (1, 2, "=>")])) != hash(first)
