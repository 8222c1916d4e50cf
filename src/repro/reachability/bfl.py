"""Bloom Filter Labeling (BFL) reachability index.

BFL (Su, Zhu, Wei, Yu — TKDE 2017) assigns every node two small Bloom
filters: ``L_out(u)`` summarises the set of nodes reachable *from* ``u`` and
``L_in(u)`` summarises the set of nodes that *reach* ``u``.  Both are built
in two linear passes over the SCC condensation
(:class:`~repro.graph.transform.Condensation`, given or computed), in the
topological order of its ranks.  A reachability query ``u ≺ v`` is answered
as follows:

* negative cuts — if ``L_out(v) ⊄ L_out(u)`` then ``u`` cannot reach ``v``
  (anything reachable from ``v`` would also be reachable from ``u``);
  symmetrically if ``L_in(u) ⊄ L_in(v)``; the DFS interval labels give a
  third cut (``end(u) < begin(v)``) and the ranks a fourth
  (``rank(u) > rank(v)``);
* otherwise a pruned DFS from ``u`` confirms or refutes the answer, using
  the same cuts to avoid exploring branches that cannot contain ``v``.

This mirrors the original design: constant-time negative answers for the
overwhelming majority of non-reachable pairs (which dominate real query
workloads), small labels, and near-linear construction — the property the
Fig. 18(a) benchmark contrasts with transitive-closure construction.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

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
    condensation:
        The condensation of ``graph`` to label, cold or folded (a match
        context passes its own); computed from ``graph`` when omitted.
        Only read, never modified.
    """

    def __init__(
        self,
        graph: DataGraph,
        num_bits: int = 64,
        num_hashes: int = 2,
        seed: int = 7,
        condensation: Optional[Condensation] = None,
    ) -> None:
        self._num_bits = num_bits
        self._num_hashes = num_hashes
        self._seed = seed
        self._cond = condensation
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
        if self._cond is None:
            self._cond = condensation(graph)
        children, parents, rank = self._cond.children, self._cond.parents, self._cond.rank
        n = len(rank)

        # Assign every component a random "interval-set" style token, as in
        # BFL, so that hub components do not all hash to the same bits.
        rng = random.Random(self._seed)
        tokens = [rng.randrange(1 << 30) for _ in range(n)]

        # L_out: propagate bottom-up; L_in: top-down.
        order = sorted(range(n), key=rank.__getitem__)
        l_out = [0] * n
        for node in reversed(order):
            bits = self._hash_bits(tokens[node])
            for child in children[node]:
                bits |= l_out[child]
            l_out[node] = bits

        l_in = [0] * n
        for node in order:
            bits = self._hash_bits(tokens[node])
            for parent in parents[node]:
                bits |= l_in[parent]
            l_in[node] = bits

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
                below = children[node]
                advanced = False
                while child_index < len(below):
                    child = below[child_index]
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

        self._l_out = l_out
        self._l_in = l_in
        self._begin = begin
        self._end = end
        self._query_dfs_count = 0

    # Nothing patches a reachability index: a write drops it and the next
    # reader rebuilds.  This always-False stub is kept by name only because
    # ``perf/trace.py``'s ``dynamic.patch`` row wraps it and
    # ``tests/test_trace_patch_points.py`` requires every row to resolve.
    def apply_delta(self, graph: DataGraph, delta) -> bool:
        return False

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
        rank = self._cond.rank
        target_out = l_out[target]
        target_begin = begin[target]
        target_rank = rank[target]
        children = self._cond.children
        self._query_dfs_count += 1

        stack = [source]
        visited = {source}
        while stack:
            node = stack.pop()
            for child in children[node]:
                if child == target:
                    return True
                if child in visited:
                    continue
                # Negative cuts: prune children that cannot lead to target.
                if end[child] < target_begin:
                    continue
                if rank[child] > target_rank:
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
        if self._cond.rank[cs] > self._cond.rank[ct]:
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
        """Total label storage in bits (both filters over all live components)."""
        return 2 * self._num_bits * sum(1 for members in self._cond.members if members)
