"""Property tests for the simulation checks' semijoin and FBSim's change flags.

``MatchContext.tails_reaching`` / ``heads_reached`` keep the candidates with
a partner on the other side of a query edge: on a direct edge by testing each
candidate's adjacency set (stopping at the first partner), on a reachability
edge on the SCC condensation.  Here they are held to their definitions — the
union of the partners' adjacency for a direct edge, one whole-graph BFS
(``forward_reachable_set`` / ``backward_reachable_set``) for a reachability
edge — on random labelled digraphs with hubs, cycles and self-loops.

FBSim's change flags (DagMap) re-run a check only when its partner side
changed.  A skipped check must be one that could not have pruned, so a run
with the flags equals the run without them after every pass; and every
``ChildCheckMethod`` must prune the same nodes in the same passes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DataGraph
from repro.query.pattern import EdgeType, PatternEdge, PatternQuery
from repro.simulation.context import ChildCheckMethod, MatchContext
from repro.simulation.fbsim import SimulationOptions, fbsim, fbsim_basic


@st.composite
def labelled_digraph(draw):
    """A digraph on up to 14 nodes: random edges (self-loops allowed), a
    cycle, and up to two hubs joined to and from many nodes."""
    num_nodes = draw(st.integers(min_value=1, max_value=14))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    edges = set(draw(st.sets(st.tuples(node, node), max_size=2 * num_nodes)))
    cycle = draw(st.lists(node, max_size=5, unique=True))
    edges.update(zip(cycle, cycle[1:] + cycle[:1]))
    for hub in draw(st.lists(node, max_size=2, unique=True)):
        edges.update((hub, other) for other in draw(st.sets(node)))
        edges.update((other, hub) for other in draw(st.sets(node)))
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=num_nodes, max_size=num_nodes))
    return DataGraph(labels, sorted(edges), name="semijoin")


@st.composite
def graph_with_candidates(draw):
    """A digraph plus two random candidate subsets (usually overlapping)."""
    graph = draw(labelled_digraph())
    node = st.integers(min_value=0, max_value=graph.num_nodes - 1)
    return graph, draw(st.sets(node)), draw(st.sets(node))


@st.composite
def graph_and_query(draw):
    """A digraph plus a connected query of 2-4 nodes whose edges are of
    either kind and may close cycles.  Its label ``D`` matches nothing: the
    emptiness it starts spreads a hop per check, over several passes."""
    graph = draw(labelled_digraph())
    size = draw(st.integers(min_value=2, max_value=4))
    labels = draw(st.lists(st.sampled_from("ABCD"), min_size=size, max_size=size))
    kind = st.sampled_from(["child", "descendant"])
    edges = {}
    for node in range(1, size):  # a random spanning tree keeps it connected
        other = draw(st.integers(min_value=0, max_value=node - 1))
        pair = (other, node) if draw(st.booleans()) else (node, other)
        edges[pair] = draw(kind)
    pairs = [(u, v) for u in range(size) for v in range(size) if u != v]
    for pair in draw(st.lists(st.sampled_from(pairs), max_size=3)):
        edges.setdefault(pair, draw(kind))
    query = PatternQuery(labels, [(u, v, kind) for (u, v), kind in sorted(edges.items())])
    return graph, query


def edge_of(kind):
    return PatternEdge(0, 1, EdgeType(kind))


@settings(max_examples=150, deadline=None)
@given(data=graph_with_candidates())
def test_child_semijoin_is_the_adjacency_union(data):
    graph, keep, partners = data
    context = MatchContext(graph)
    edge = edge_of("child")
    parents = {u for v in partners for u in graph.predecessors(v)}
    children = {v for u in partners for v in graph.successors(u)}
    assert context.tails_reaching(edge, keep, partners) == keep & parents
    assert context.heads_reached(edge, keep, partners) == keep & children


@settings(max_examples=150, deadline=None)
@given(data=graph_with_candidates())
def test_descendant_semijoin_is_bfs_reachability(data):
    graph, keep, partners = data
    context = MatchContext(graph)
    edge = edge_of("descendant")
    assert context.tails_reaching(edge, keep, partners) == keep & context.backward_reachable_set(
        partners
    )
    assert context.heads_reached(edge, keep, partners) == keep & context.forward_reachable_set(
        partners
    )


@settings(max_examples=100, deadline=None)
@given(data=graph_and_query())
def test_every_child_check_method_prunes_alike(data):
    graph, query = data
    context = MatchContext(graph)
    results = {
        simulate: [
            simulate(context, query, options=SimulationOptions(child_check=method))
            for method in ChildCheckMethod
        ]
        for simulate in (fbsim, fbsim_basic)
    }
    for runs in results.values():
        for run in runs[1:]:
            assert run.candidates == runs[0].candidates
            assert run.pruned_per_pass == runs[0].pruned_per_pass
            assert run.checks == runs[0].checks
    assert results[fbsim][0].candidates == results[fbsim_basic][0].candidates


@settings(max_examples=100, deadline=None)
@given(data=graph_and_query(), method=st.sampled_from(list(ChildCheckMethod)))
def test_change_flags_skip_only_checks_that_cannot_prune(data, method):
    """DagMap (flags on) equals Dag (flags off) after every pass."""
    graph, query = data
    context = MatchContext(graph)
    unflagged = SimulationOptions(use_change_flags=False, child_check=method)
    full = fbsim(context, query, options=unflagged)
    for cut in range(1, full.passes + 1):
        dag = fbsim(context, query, options=SimulationOptions(
            max_passes=cut, use_change_flags=False, child_check=method
        ))
        dag_map = fbsim(context, query, options=SimulationOptions(
            max_passes=cut, use_change_flags=True, child_check=method
        ))
        assert dag_map.candidates == dag.candidates
        assert dag_map.pruned_per_pass == dag.pruned_per_pass == full.pruned_per_pass[:cut]
        assert dag_map.checks <= dag.checks


#: One C node on a self-loop; B matches nothing.  Pass 1 empties the C the B
#: points at, pass 2 empties a second C by the check of an edge into it, and
#: the check whose partner is that second C must then run in pass 2 although
#: it did not change in pass 1 — a forward check, then a backward one.
PARTNER_CHANGED_EARLIER = {
    "forward": ("CCCB", [(0, 2, "child"), (1, 0, "child"), (3, 2, "child")]),
    "backward": ("CCBC", [(1, 0, "descendant"), (1, 3, "child"), (2, 0, "descendant")]),
}


@pytest.mark.parametrize("labels, edges", PARTNER_CHANGED_EARLIER.values(), ids=PARTNER_CHANGED_EARLIER)
def test_a_check_runs_when_its_partner_changed_earlier_in_the_pass(labels, edges):
    context = MatchContext(DataGraph("C", [(0, 0)]))
    query = PatternQuery(list(labels), edges)
    flagged = fbsim(context, query, options=SimulationOptions(max_passes=2))
    unflagged = fbsim(context, query, options=SimulationOptions(max_passes=2, use_change_flags=False))
    assert flagged.candidates == unflagged.candidates == {node: set() for node in range(4)}
    assert flagged.pruned_per_pass == unflagged.pruned_per_pass == [1, 2]
