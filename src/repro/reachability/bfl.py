"""Bloom Filter Labeling (BFL) reachability index.

BFL (Su, Zhu, Wei, Yu — TKDE 2017) assigns every node two small Bloom
filters: ``L_out(u)`` summarises the set of nodes reachable *from* ``u`` and
``L_in(u)`` summarises the set of nodes that *reach* ``u``.  Both are built
in two linear passes over the SCC condensation.  A reachability query
``u ≺ v`` is answered as follows:

* negative cuts — if ``L_out(v) ⊄ L_out(u)`` then ``u`` cannot reach ``v``
  (anything reachable from ``v`` would also be reachable from ``u``);
  symmetrically if ``L_in(u) ⊄ L_in(v)``; the DFS interval labels give a
  third cut (``end(u) < begin(v)``);
* otherwise a pruned DFS from ``u`` confirms or refutes the answer, using
  the same cuts to avoid exploring branches that cannot contain ``v``.

This mirrors the original design: constant-time negative answers for the
overwhelming majority of non-reachable pairs (which dominate real query
workloads), small labels, and near-linear construction — the property the
Fig. 18(a) benchmark contrasts with transitive-closure construction.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.dynamic.overlay import MutableDataGraph
from repro.graph.digraph import DataGraph
from repro.graph.transform import Condensation, condensation
from repro.reachability.base import ReachabilityIndex

#: Hash-mixing constants shared by :meth:`BloomFilterLabeling._hash_bits`.
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9


class BloomFilterLabeling(ReachabilityIndex):
    """BFL-style reachability with Bloom-filter negative cuts.

    Parameters
    ----------
    graph:
        The data graph to index.
    num_bits:
        Width of each Bloom filter in bits (default 64: one machine word,
        as in the original paper's in-word configuration).
    num_hashes:
        Number of hash functions per element.
    seed:
        Seed for the hash mixing constants (deterministic by default).
    """

    def __init__(self, graph: DataGraph, num_bits: int = 64, num_hashes: int = 2, seed: int = 7) -> None:
        self._num_bits = num_bits
        self._num_hashes = num_hashes
        self._seed = seed
        super().__init__(graph)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def _hash_bits(self, value: int) -> int:
        """Return the Bloom mask for one element."""
        mask = 0
        for i in range(self._num_hashes):
            mixed = (value * _MIX_A + (i + 1) * self._seed * _MIX_B) & 0xFFFFFFFFFFFFFFFF
            mixed ^= mixed >> 31
            mask |= 1 << (mixed % self._num_bits)
        return mask

    def _build(self, graph: DataGraph) -> None:
        self._cond: Condensation = condensation(graph)
        dag = self._cond.dag
        n = dag.num_nodes

        # Assign every component a random "interval-set" style token, as in
        # BFL, so that hub components do not all hash to the same bits.
        rng = random.Random(self._seed)
        self._tokens = [rng.randrange(1 << 30) for _ in range(n)]
        tokens = self._tokens

        # L_out: propagate bottom-up; L_in: top-down (needs the topo order).
        self._index_dag(dag)
        order = self._topo_order
        l_out = [0] * n
        for node in reversed(order):
            bits = self._hash_bits(tokens[node])
            for child in dag.successors(node):
                bits |= l_out[child]
            l_out[node] = bits

        l_in = [0] * n
        for node in order:
            bits = self._hash_bits(tokens[node])
            for parent in dag.predecessors(node):
                bits |= l_in[parent]
            l_in[node] = bits

        self._l_out = l_out
        self._l_in = l_in
        self._query_dfs_count = 0
        self._patch_count = 0

    def _index_dag(self, dag) -> None:
        """(Re)compute the topo order/positions and DFS interval labels.

        These two negative cuts depend on a global order over the whole
        condensation, so unlike the Bloom labels they cannot be patched a
        node at a time — but both are single linear passes, which is what
        keeps :meth:`apply_delta` cheap.  ``dag`` is the condensation as
        built, or as :meth:`apply_delta` folded it.
        """
        n = dag.num_nodes

        # Topological order (Kahn).
        in_degree = [dag.in_degree(node) for node in dag.nodes()]
        order: List[int] = [node for node in dag.nodes() if in_degree[node] == 0]
        head = 0
        while head < len(order):
            node = order[head]
            head += 1
            for child in dag.successors(node):
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    order.append(child)
        self._topo_order = order
        topo_position = [0] * n
        for position, node in enumerate(order):
            topo_position[node] = position
        self._topo_position = topo_position

        # DFS interval labels as an extra negative cut (standard in BFL).
        begin = [0] * n
        end = [0] * n
        visited = [False] * n
        clock = 0
        for root in order:
            if visited[root]:
                continue
            stack: List[Tuple[int, int]] = [(root, 0)]
            visited[root] = True
            clock += 1
            begin[root] = clock
            while stack:
                node, child_index = stack[-1]
                children = dag.successors(node)
                advanced = False
                while child_index < len(children):
                    child = children[child_index]
                    child_index += 1
                    if not visited[child]:
                        stack[-1] = (node, child_index)
                        visited[child] = True
                        clock += 1
                        begin[child] = clock
                        stack.append((child, 0))
                        advanced = True
                        break
                else:
                    stack[-1] = (node, child_index)
                if advanced:
                    continue
                clock += 1
                end[node] = clock
                stack.pop()

        self._begin = begin
        self._end = end

    # ------------------------------------------------------------------ #
    # incremental maintenance
    # ------------------------------------------------------------------ #

    def apply_delta(self, graph, delta) -> bool:
        """Patch the index in place for an insertion-only delta.

        The session no longer calls this: GM runs on the match context's
        condensation, which ``MatchContext.with_delta`` folds across every
        insert (SCC merges included), and a per-pair index is built lazily
        per version.  It stays for direct callers of the index.

        ``graph`` is the already-patched data graph (the state *after* the
        delta); ``delta`` is the effective change log.  Returns True on
        success; returns False — leaving the index untouched — when the
        delta contains edge removals or an inserted edge merges two
        strongly connected components, in which case the caller must
        rebuild.

        The patch exploits that insertions only ever add reachable pairs:

        * new nodes become fresh singleton components with fresh tokens;
        * for each inserted cross-component edge ``(cx, cy)``, the Bloom
          bits of ``cy``'s ``L_out`` flow up to every ancestor of ``cx``
          and the bits of ``cx``'s ``L_in`` flow down to every descendant
          of ``cy`` — a targeted traversal touching only affected
          components, instead of the full two-pass propagation;
        * the topological and DFS-interval cuts are global orders, so they
          are recomputed — but those are single linear passes over the
          (usually much smaller) condensation.

        Relabels are irrelevant to reachability and therefore allowed.
        """
        if delta.has_removals:
            return False

        cond = self._cond
        if delta.base_num_nodes != len(cond.component_of):
            return False  # delta written against a different graph state
        component_of = list(cond.component_of)
        components = list(cond.components)
        tokens = list(self._tokens)
        l_out = list(self._l_out)
        l_in = list(self._l_in)
        dag = MutableDataGraph(cond.dag)

        rng = random.Random(self._seed ^ (0x5BF03635 + len(tokens)))
        for node_id, _label in delta.added_nodes:
            comp = dag.add_node("SCC")
            component_of.append(comp)
            components.append((node_id,))
            token = rng.randrange(1 << 30)
            tokens.append(token)
            bits = self._hash_bits(token)
            l_out.append(bits)
            l_in.append(bits)

        for source, target in delta.added_edges:
            cs, ct = component_of[source], component_of[target]
            if cs == ct or dag.has_edge(cs, ct):
                continue
            if dag.reaches_bfs(ct, cs):
                # The new edge closes a cycle: components merge, the
                # condensation changes shape — rebuild.  No state has been
                # committed to ``self`` yet, so the index stays valid.
                return False
            dag.add_edge(cs, ct)
            # Targeted propagation on the dag-so-far: sound because after
            # each step the labels over-approximate exactly the reachability
            # of the graph with the edges applied so far.
            out_bits = l_out[ct]
            for ancestor in dag.bfs_backward(cs):
                l_out[ancestor] |= out_bits
            in_bits = l_in[cs]
            for descendant in dag.bfs_forward(ct):
                l_in[descendant] |= in_bits

        # Commit the folded condensation and recompute the global
        # order-based cuts (linear in the condensation size).
        new_dag = dag.materialize()
        self._cond = Condensation(
            dag=new_dag,
            component_of=tuple(component_of),
            components=tuple(components),
        )
        self._tokens = tokens
        self._l_out = l_out
        self._l_in = l_in
        self._index_dag(new_dag)
        self._graph = graph
        self._patch_count += 1
        return True

    @property
    def patch_count(self) -> int:
        """Number of successful :meth:`apply_delta` patches."""
        return self._patch_count

    def copy(self) -> "BloomFilterLabeling":
        """Aliasing-safe copy (see :meth:`ReachabilityIndex.copy`).

        :meth:`apply_delta` already stages its changes in fresh lists and
        commits by attribute rebinding, so a shallow copy would suffice
        today; the label/interval lists are copied anyway so the clone
        stays safe even if a future patch path mutates them in place.
        """
        clone = super().copy()
        clone._tokens = list(self._tokens)
        clone._l_out = list(self._l_out)
        clone._l_in = list(self._l_in)
        clone._topo_order = list(self._topo_order)
        clone._topo_position = list(self._topo_position)
        clone._begin = list(self._begin)
        clone._end = list(self._end)
        return clone

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def _component_reaches(self, source: int, target: int) -> bool:
        """Pruned DFS over the condensation, using the negative cuts."""
        if source == target:
            return True
        l_out = self._l_out
        l_in = self._l_in
        begin = self._begin
        end = self._end
        topo_position = self._topo_position
        target_out = l_out[target]
        target_begin = begin[target]
        target_position = topo_position[target]
        dag = self._cond.dag
        self._query_dfs_count += 1

        stack = [source]
        visited = {source}
        while stack:
            node = stack.pop()
            for child in dag.successors(node):
                if child == target:
                    return True
                if child in visited:
                    continue
                # Negative cuts: prune children that cannot lead to target.
                if end[child] < target_begin:
                    continue
                if topo_position[child] > target_position:
                    continue
                if (target_out & ~l_out[child]) != 0:
                    continue
                if (l_in[child] & ~l_in[target]) != 0:
                    continue
                visited.add(child)
                stack.append(child)
        return False

    def reaches(self, source: int, target: int) -> bool:
        if source == target:
            return True
        cs = self._cond.component_of[source]
        ct = self._cond.component_of[target]
        if cs == ct:
            return True
        # Constant-time negative cuts.
        if self._end[cs] < self._begin[ct]:
            return False
        if self._topo_position[cs] > self._topo_position[ct]:
            return False
        if (self._l_out[ct] & ~self._l_out[cs]) != 0:
            return False
        if (self._l_in[cs] & ~self._l_in[ct]) != 0:
            return False
        return self._component_reaches(cs, ct)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    @property
    def dfs_fallback_count(self) -> int:
        """Number of queries that could not be decided by the filters alone."""
        return self._query_dfs_count

    def label_size_bits(self) -> int:
        """Total label storage in bits (both filters over all components)."""
        return 2 * self._num_bits * self._cond.dag.num_nodes
