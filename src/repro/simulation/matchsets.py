"""Match sets and node pre-filtering.

Node pre-filtering is the technique of [11, 63] (applied to JM and TM, and
to GM in its GM-F ablation): before any join or simulation, prune from the
inverted list of each query node the data nodes that cannot satisfy the
query node's local structural constraints — the labels required among its
children / parents (for direct edges) and among its descendants / ancestors
(for reachability edges).  This is strictly weaker than double simulation
(it ignores which *specific* candidate provides the support), which is what
the Fig. 13 experiment demonstrates.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.query.pattern import PatternQuery
from repro.simulation.context import MatchContext


def match_sets(context: MatchContext, query: PatternQuery) -> Dict[int, Set[int]]:
    """``ms(q)`` for every query node: mutable copies of the inverted lists."""
    return context.match_sets(query)


def node_prefilter(context: MatchContext, query: PatternQuery) -> Dict[int, Set[int]]:
    """Prune match sets with label-level structural constraints.

    For every query node ``q`` and candidate data node ``v``:

    * for each outgoing direct edge ``(q, q')``, some child of ``v`` must
      carry ``label(q')``;
    * for each outgoing reachability edge, some strict descendant of ``v``
      must carry ``label(q')``;
    * symmetrically for incoming edges with parents / ancestors.

    Candidates violating any constraint are dropped — all of them when a
    required label does not occur in the graph at all.  The filter is
    label-based only, so it cannot prune nodes whose support is itself
    pruned — that is double simulation's job.
    """
    candidates = context.match_sets(query)
    for node in query.nodes():
        wanted = [(True, query.edge(node, c).is_child, query.label(c)) for c in query.children(node)]
        wanted += [(False, query.edge(p, node).is_child, query.label(p)) for p in query.parents(node)]
        # (outgoing?, direct?) -> the label bits a candidate's table entry needs.
        # A label the graph lacks has no bit; -1 (every bit) is a need no table
        # entry meets, so it empties the set.
        needs: Dict[Tuple[bool, bool], int] = {}
        for outgoing, direct, label in wanted:
            bit = context.label_bit(label) or -1
            needs[outgoing, direct] = needs.get((outgoing, direct), 0) | bit
        survivors = candidates[node]
        for (outgoing, direct), need in needs.items():
            table = context.label_bits(outgoing, direct)
            survivors = {c for c in survivors if table[c] & need == need}
        candidates[node] = survivors
    return candidates
