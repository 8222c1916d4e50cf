"""Property-based tests for double simulation and the RIG.

The two central invariants of the paper:

* the sandwich property (§4.2): for every query node ``q``,
  ``os(q) ⊆ FB(q) ⊆ ms(q)``;
* RIG losslessness (Proposition 4.1): if a homomorphism maps adjacent query
  nodes ``p, q`` to data nodes ``vp, vq``, then ``(vp, vq)`` is an edge of
  the RIG — so enumerating on the RIG loses no occurrence.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import bruteforce_homomorphisms
from repro.graph.digraph import DataGraph
from repro.matching.mjoin import mjoin
from repro.matching.result import Budget
from repro.query.generators import random_pattern_query
from repro.rig.build import build_match_rig, build_rig
from repro.simulation.context import MatchContext
from repro.simulation.fbsim import fbsim, fbsim_basic

UNLIMITED = Budget(max_matches=None, time_limit_seconds=None, max_intermediate_results=None)


@st.composite
def graph_and_query(draw):
    """A small random labelled graph plus a random hybrid query over it."""
    num_nodes = draw(st.integers(min_value=4, max_value=16))
    num_edges = draw(st.integers(min_value=3, max_value=40))
    num_labels = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    labels = [f"L{rng.randrange(num_labels)}" for _ in range(num_nodes)]
    edges = set()
    for _ in range(num_edges):
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u != v:
            edges.add((u, v))
    graph = DataGraph(labels, sorted(edges), name=f"prop-{seed}")
    query_nodes = draw(st.integers(min_value=2, max_value=4))
    query = random_pattern_query(graph, query_nodes, seed=seed + 1)
    return graph, query


@settings(max_examples=40, deadline=None)
@given(data=graph_and_query())
def test_double_simulation_sandwich_property(data):
    graph, query = data
    context = MatchContext(graph)
    result = fbsim(context, query)
    answer = bruteforce_homomorphisms(graph, query)
    for node in query.nodes():
        occurrence_set = {occurrence[node] for occurrence in answer}
        match_set = set(context.match_set(query, node))
        assert occurrence_set <= result.candidates[node] <= match_set


@settings(max_examples=40, deadline=None)
@given(data=graph_and_query())
def test_fbsim_variants_agree(data):
    graph, query = data
    context = MatchContext(graph)
    assert fbsim(context, query).candidates == fbsim_basic(context, query).candidates


@settings(max_examples=30, deadline=None)
@given(data=graph_and_query())
def test_rig_losslessness(data):
    """Proposition 4.1: every homomorphism edge appears in the refined RIG."""
    graph, query = data
    context = MatchContext(graph)
    rig = build_rig(context, query).rig
    answer = bruteforce_homomorphisms(graph, query)
    # BuildRIG applies transitive reduction, so the RIG is built for an
    # equivalent query whose edges are a subset of the original's; Proposition
    # 4.1 applies to the RIG's own query edges.
    for occurrence in answer:
        for edge in rig.query.edges():
            vp, vq = occurrence[edge.source], occurrence[edge.target]
            assert vp in rig.candidates(edge.source)
            assert vq in rig.forward_index(edge.source, edge.target)[vp]


@settings(max_examples=30, deadline=None)
@given(data=graph_and_query())
def test_mjoin_over_rig_equals_bruteforce(data):
    graph, query = data
    context = MatchContext(graph)
    rig = build_rig(context, query).rig
    occurrences, _, _ = mjoin(rig, budget=UNLIMITED)
    expected = set(bruteforce_homomorphisms(graph, query))
    assert set(occurrences) == expected


@settings(max_examples=30, deadline=None)
@given(data=graph_and_query())
def test_rig_prune_leaves_every_candidate_a_partner_and_keeps_occurrences(data):
    graph, query = data
    rig = build_match_rig(MatchContext(graph), query).rig  # built without the prune
    before = sum(map(rig.candidate_count, query.nodes()))
    removed = rig.prune_unmatched_candidates()
    assert removed == before - sum(map(rig.candidate_count, query.nodes()))
    for edge in query.edges():
        tails, heads = rig.candidates(edge.source), rig.candidates(edge.target)
        forward = rig.forward_index(edge.source, edge.target)
        backward = rig.backward_index(edge.source, edge.target)
        assert all(forward.get(tail, frozenset()) & heads for tail in tails)
        assert all(backward.get(head, frozenset()) & tails for head in heads)
    for occurrence in bruteforce_homomorphisms(graph, query):
        assert all(occurrence[node] in rig.candidates(node) for node in query.nodes())


@settings(max_examples=25, deadline=None)
@given(data=graph_and_query())
def test_mjoin_over_match_rig_equals_bruteforce(data):
    """Even the unfiltered match RIG loses no occurrences (it is only larger)."""
    graph, query = data
    context = MatchContext(graph)
    rig = build_match_rig(context, query).rig
    occurrences, _, _ = mjoin(rig, budget=UNLIMITED)
    expected = set(bruteforce_homomorphisms(graph, query))
    assert set(occurrences) == expected
