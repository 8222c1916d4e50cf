"""Property tests: every engine equals brute force on every version.

The invariant of the dynamic subsystem: after any sequence of writes —
edge inserts, back edges that merge SCCs, removals, relabels and new
nodes — every matcher served through the store answers exactly what brute
force answers on that version's graph, however warm the version it was
forked from.  A write carries the match context and the RIGs it spares
and drops the comparator artifacts (closure, expanded graph, catalog,
partitions), so the comparator engines here answer from artifacts rebuilt
on the new version, while a snapshot pinned before the writes keeps the
artifacts of its own.

The comparator engines match a child edge on the data graph and a
descendant edge on the closure-expanded graph, edge by edge, so all eight
evaluators are checked against brute force of the query itself — C-, D-
and hybrid queries alike.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import bruteforce_homomorphisms
from repro.dynamic import GraphDelta
from repro.graph.generators import random_labeled_graph
from repro.query.generators import random_pattern_query
from repro.store import VersionedGraphStore

#: Matchers exercised by the property: the RIG pipeline, one ablation, the
#: four comparator engines and two navigational baselines.
ENGINES = ("GM", "GM-F", "Neo4j", "EH", "GF", "RM", "JM", "TM")

#: The session properties that build the four comparator artifacts.
COMPARATOR_ARTIFACTS = ("transitive_closure", "expanded_graph", "catalog", "partitions")

LABELS = st.sampled_from(["A", "B", "C"])
OPS = st.sampled_from(["insert", "back", "remove", "relabel", "node"])


def _node(total):
    return st.integers(min_value=0, max_value=total - 1)


@st.composite
def _delta(draw, graph):
    """One delta against ``graph`` mixing every kind of write."""
    delta = GraphDelta.for_graph(graph)
    removed = set()
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(OPS)
        total = graph.num_nodes + delta.num_added_nodes
        if kind == "insert":
            delta.add_edge(draw(_node(total)), draw(_node(total)))
        elif kind == "back":
            # An edge back to a node that reaches the tail closes a cycle:
            # the SCCs along it merge.
            tail = draw(_node(graph.num_nodes))
            ancestors = [u for u in graph.nodes() if u != tail and graph.reaches_bfs(u, tail)]
            if ancestors:
                delta.add_edge(tail, draw(st.sampled_from(ancestors)))
        elif kind == "remove":
            edges = sorted(set(graph.edges()) - removed)
            if edges:
                edge = draw(st.sampled_from(edges))
                removed.add(edge)
                delta.remove_edge(*edge)
        elif kind == "relabel":
            delta.relabel(draw(_node(graph.num_nodes)), draw(LABELS))
        else:
            node = delta.add_node(draw(LABELS))
            delta.add_edge(draw(_node(total)), node)
    return delta


@st.composite
def mutation_case(draw):
    """Random graph + a sequence of one to four deltas + a small hybrid
    query.  Each delta is written against the version the ones before it
    produce."""
    num_nodes = draw(st.integers(min_value=4, max_value=12))
    num_edges = draw(st.integers(min_value=3, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    graph = random_labeled_graph(
        num_nodes,
        min(num_edges, num_nodes * (num_nodes - 1)),
        num_labels=3,
        seed=seed,
        name=f"mut-{seed}",
    )
    deltas = []
    version = graph
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        delta = draw(_delta(version))
        deltas.append(delta)
        version, _ = version.with_delta(delta)
    query = random_pattern_query(
        graph,
        num_nodes=draw(st.integers(min_value=2, max_value=3)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        descendant_probability=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    return graph, deltas, query


def _answers(snapshot, query):
    return {engine: snapshot.query(query, engine=engine).occurrence_set() for engine in ENGINES}


def _bruteforce(graph, query):
    """The answer every engine must return on ``graph``, by brute force."""
    return set(bruteforce_homomorphisms(graph, query))


@given(mutation_case())
@settings(max_examples=25, deadline=None)
def test_every_version_answers_like_brute_force(case):
    graph, deltas, query = case
    store = VersionedGraphStore(graph)
    try:
        pinned = store.pin()
        for artifact in COMPARATOR_ARTIFACTS:
            getattr(pinned.session, artifact)
        before = _answers(pinned, query)
        assert before == dict.fromkeys(ENGINES, _bruteforce(graph, query))

        for delta in deltas:
            head_version = store.head_version
            report = store.apply(delta)
            if report.new_version == report.old_version:
                # every op was a no-op: nothing may change
                assert store.head_version == head_version
                assert report.patched == [] and report.invalidated == []
            with store.pin() as head:
                expected = _bruteforce(head.graph, query)
                for engine, answer in _answers(head, query).items():
                    assert answer == expected, (
                        f"{engine} diverged at version {head.version}: "
                        f"extra={sorted(answer - expected)[:5]} "
                        f"missing={sorted(expected - answer)[:5]}"
                    )

        assert pinned.version == 0
        assert _answers(pinned, query) == before
        pinned.release()
    finally:
        store.close()
