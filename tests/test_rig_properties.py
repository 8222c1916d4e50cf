"""The RIG invariant, on random graphs and queries, for every way a RIG is built.

Every adjacency key lies in its own ``cos``, every adjacency list inside its
partner's ``cos``, and the adjacency of a query edge is exactly the edge's
relation restricted to ``cos × cos`` — so :meth:`num_rig_edges` counts live
pairs.  The MJoin kernel relies on it: a position with probes never
intersects with ``cos`` again.  A pruning build (GM-F, a ``max_passes`` cut)
used to keep adjacency that named pruned candidates.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import bruteforce_homomorphisms
from repro.matching.mjoin import mjoin_iter
from repro.reachability.base import BFSReachability
from repro.rig.build import GMVariant, build_match_rig, build_rig
from repro.simulation.context import MatchContext
from repro.simulation.fbsim import SimulationOptions
from test_simulation_properties import graph_and_query

#: (label, build) for every variant, a one-pass simulation cut and the match RIG.
BUILDS = [
    *((variant.value, lambda context, query, v=variant: build_rig(context, query, v)) for variant in GMVariant),
    (
        "max_passes=1",
        lambda context, query: build_rig(context, query, simulation=SimulationOptions(max_passes=1)),
    ),
    ("match", build_match_rig),
]


def _related(graph, reachability, edge, tail: int, head: int) -> bool:
    if edge.is_child:
        return graph.has_edge(tail, head)
    if tail == head:
        return reachability.reaches_strict(tail, head)
    return reachability.reaches(tail, head)


@settings(max_examples=60, deadline=None)
@given(data=graph_and_query(), build=st.sampled_from(BUILDS))
def test_adjacency_is_the_edge_relation_inside_cos(data, build):
    graph, query = data
    _, make = build
    rig = make(MatchContext(graph), query).rig
    reachability = BFSReachability(graph)
    live_pairs = 0
    for edge in rig.query.edges():
        source, target = edge.endpoints()
        tails, heads = rig.candidates(source), rig.candidates(target)
        forward, backward = rig.forward_index(source, target), rig.backward_index(source, target)
        assert set(forward) <= tails and set(backward) <= heads
        assert all(partners and partners <= heads for partners in forward.values())
        assert all(partners and partners <= tails for partners in backward.values())
        pairs = {(tail, head) for tail, partners in forward.items() for head in partners}
        assert pairs == {(tail, head) for head, partners in backward.items() for tail in partners}
        if not rig.is_empty():
            expected = {
                (tail, head)
                for tail in tails
                for head in heads
                if _related(graph, reachability, edge, tail, head)
            }
            assert pairs == expected
        live_pairs += len(pairs)
    assert rig.num_rig_edges() == live_pairs


@settings(max_examples=40, deadline=None)
@given(data=graph_and_query(), build=st.sampled_from(BUILDS))
def test_every_build_enumerates_the_answer(data, build):
    # The adjacency-only kernel over pruned, unpruned and match RIGs alike.
    graph, query = data
    _, make = build
    report = make(MatchContext(graph), query)
    assert set(mjoin_iter(report.rig)) == set(bruteforce_homomorphisms(graph, query))
