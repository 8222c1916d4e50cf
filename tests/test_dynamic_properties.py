"""Property tests: cross-engine agreement under mutation.

The satellite invariant of the dynamic subsystem: after a random
insert-only delta, every matcher served through the *patched* session
returns bit-identical matches to a *cold* session constructed on the
materialised post-delta graph.  Covers both the incremental-patch path
(reachability/closure updated in place) and the invalidation path (the
cold session builds everything from scratch either way).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import GraphDelta, MutableDataGraph
from repro.graph.generators import random_labeled_graph
from repro.query.generators import random_pattern_query
from repro.session import QuerySession

#: Matchers exercised by the cross-engine property: the RIG pipeline, one
#: ablation, the join engines and a navigational baseline.
ENGINES = ("GM", "GM-F", "Neo4j", "GF", "JM")


@st.composite
def mutation_case(draw):
    """Random graph + insert-only delta + a small hybrid query."""
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
    delta = GraphDelta.for_graph(graph)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        delta.add_node(draw(st.sampled_from(["A", "B", "C"])))
    total = graph.num_nodes + delta.num_added_nodes
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        delta.add_edge(
            draw(st.integers(min_value=0, max_value=total - 1)),
            draw(st.integers(min_value=0, max_value=total - 1)),
        )
    query = random_pattern_query(
        graph,
        num_nodes=draw(st.integers(min_value=2, max_value=3)),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        descendant_probability=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    return graph, delta, query


@given(mutation_case())
@settings(max_examples=25, deadline=None)
def test_patched_session_equals_cold_session(case):
    graph, delta, query = case
    warm = QuerySession(graph)
    warm.query(query)  # build artifacts at version 0 so apply has work to do
    warm.transitive_closure
    effective = MutableDataGraph(
        graph, GraphDelta.from_dict(delta.to_dict())
    ).delta_since_base()
    report = warm.apply(delta)
    if effective:
        assert report.new_version == report.old_version + 1
    else:
        # all ops were no-ops (e.g. duplicate edges): nothing may change
        assert report.new_version == report.old_version
        assert report.patched == [] and report.invalidated == []

    cold_graph = MutableDataGraph(
        graph, GraphDelta.from_dict(delta.to_dict())
    ).materialize()
    cold = QuerySession(cold_graph)

    for engine in ENGINES:
        patched_answer = warm.query(query, engine=engine).occurrence_set()
        cold_answer = cold.query(query, engine=engine).occurrence_set()
        assert patched_answer == cold_answer, (
            f"{engine} diverged after apply(): "
            f"only-patched={sorted(patched_answer - cold_answer)[:5]} "
            f"only-cold={sorted(cold_answer - patched_answer)[:5]}"
        )
