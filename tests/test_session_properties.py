"""Property-based tests: QuerySession answers must equal standalone answers.

On random generated graphs and queries, pushing a query through a
:class:`QuerySession` (cached indexes, shared context, RIG reuse) must give
exactly the answers of a from-scratch standalone matcher:

* GM and its ablations, JM and TM support hybrid queries — compared against
  a standalone :class:`GraphMatcher` on the same query;
* the comparator engines natively support the child-only query class —
  compared on the child-only variant of the query.
"""

import random
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import random_labeled_graph
from repro.matching.gm import GraphMatcher
from repro.query.generators import random_pattern_query, to_child_only
from repro.session import QuerySession

#: GM-pipeline matchers that support the full hybrid query class.
HYBRID_MATCHERS = ("GM", "GM-S", "GM-F", "GM-NR", "JM", "TM")

#: Comparator engines: natively support the child-only query class.
CHILD_ONLY_ENGINES = ("Neo4j", "EH", "GF", "RM")


@st.composite
def graph_and_query(draw, max_nodes: int = 24):
    """A small random labelled graph plus a random connected query on it."""
    num_nodes = draw(st.integers(min_value=4, max_value=max_nodes))
    num_edges = draw(st.integers(min_value=num_nodes, max_value=4 * num_nodes))
    num_labels = draw(st.integers(min_value=2, max_value=4))
    graph_seed = draw(st.integers(min_value=0, max_value=10_000))
    query_seed = draw(st.integers(min_value=0, max_value=10_000))
    query_nodes = draw(st.integers(min_value=2, max_value=4))
    graph = random_labeled_graph(
        num_nodes=num_nodes,
        num_edges=num_edges,
        num_labels=num_labels,
        seed=graph_seed,
        name=f"prop-{graph_seed}",
    )
    query = random_pattern_query(graph, query_nodes, seed=query_seed)
    return graph, query


@settings(max_examples=15, deadline=None)
@given(data=graph_and_query())
def test_session_hybrid_matchers_equal_standalone_gm(data):
    graph, query = data
    expected = GraphMatcher(graph).match(query).occurrence_set()
    session = QuerySession(graph)
    for name in HYBRID_MATCHERS:
        report = session.query(query, engine=name)
        assert report.occurrence_set() == expected, name


@settings(max_examples=15, deadline=None)
@given(data=graph_and_query())
def test_session_engines_equal_standalone_gm_on_child_queries(data):
    graph, query = data
    child_query = to_child_only(query, name="child")
    expected = GraphMatcher(graph).match(child_query).occurrence_set()
    session = QuerySession(graph)
    for name in CHILD_ONLY_ENGINES:
        report = session.query(child_query, engine=name)
        assert report.occurrence_set() == expected, name


@settings(max_examples=10, deadline=None)
@given(data=graph_and_query(), repeats=st.integers(min_value=2, max_value=4))
def test_repeated_session_queries_are_stable_and_cached(data, repeats):
    """Cache-served repetitions return identical answers and rebuild nothing."""
    graph, query = data
    session = QuerySession(graph)
    first = session.query(query)
    misses_after_first = session.cache_counts()["misses"]
    for _ in range(repeats):
        again = session.query(query)
        assert again.occurrence_set() == first.occurrence_set()
        assert again.extra["rig_cached"] is True
    assert session.cache_counts()["misses"] == misses_after_first


@settings(max_examples=8, deadline=None)
@given(data=graph_and_query(), workers=st.integers(min_value=2, max_value=4))
def test_parallel_queries_equal_serial(data, workers):
    graph, query = data
    rng = random.Random(7)
    queries = [random_pattern_query(graph, 3, seed=rng.randrange(10_000)) for _ in range(4)]
    queries.append(query)
    serial = QuerySession(graph)
    expected = [serial.query(q).occurrence_set() for q in queries]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        reports = list(pool.map(QuerySession(graph).query, queries))
    assert [report.occurrence_set() for report in reports] == expected
