"""Answer checking: every run verifies a seeded sample of what it timed.

Untimed, after the last repetition.  For each sampled read op:

* a **complete** answer (fewer rows than the op's match cap) must equal, as a
  set of occurrences, what the join-based baseline ``repro.baselines.JMMatcher``
  computes on the graph version the op observed — and, for wire ops, what an
  in-process ``GraphMatcher`` computes on that version;
* a **truncated** answer must have exactly ``max_matches`` distinct rows, each
  carrying the query's labels and satisfying every pattern edge under
  ``MatchContext.edge_match`` (any prefix of the full answer is legal, so
  set equality is not required).

Durability (``serve_mixed_rw``) is checked in :mod:`perf.workloads` right
after the reopen.  Every miss is a failed op: it counts into ``failed`` and
makes the command exit non-zero.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro import Budget, DataGraph, GraphMatcher, JMMatcher, MatchContext, parse_query

from perf.inputs import Inputs
from perf.workloads import Repetition, Sample

#: Read ops sampled per run (the issue asks for at least 20).
SAMPLE_SIZE = 24


def sample_positions(inputs: Inputs) -> frozenset:
    """Schedule positions whose answers the run keeps for checking.

    Seeded by the inputs' digest; distinct queries first, so the sample
    covers as many templates as it can.
    """
    rng = random.Random(inputs.sha256)
    reads = [p for p, (kind, _) in enumerate(inputs.schedule) if kind in ("query", "stream")]
    rng.shuffle(reads)
    chosen: List[int] = []
    seen = set()
    for position in reads:
        if inputs.schedule[position] not in seen:
            seen.add(inputs.schedule[position])
            chosen.append(position)
    return frozenset(chosen[:SAMPLE_SIZE])


def _graph_at(inputs: Inputs, version: int) -> DataGraph:
    """The data graph after the first ``version`` acknowledged writes."""
    edges = list(inputs.edges)
    for batch in inputs.inserts[:version]:
        edges.extend(batch)
    return DataGraph(inputs.labels, edges, name=f"truth-v{version}")


def check_answers(inputs: Inputs, repetition: Repetition) -> Tuple[int, Dict[int, str]]:
    """Verify the repetition's kept answers; returns ``(checked, {position: error})``."""
    wire = not inputs.workload.startswith("kernel")
    contexts: Dict[int, MatchContext] = {}
    errors: Dict[int, str] = {}
    checked = 0
    unbounded = Budget(max_matches=None, time_limit_seconds=60.0)
    for sample in repetition.samples:
        if sample.answer is None or sample.error is not None:
            continue
        kind, index = inputs.schedule[sample.position]
        generated = inputs.queries[index]
        cap = inputs.stream_max if kind == "stream" else generated.max_matches
        context = contexts.get(sample.version)
        if context is None:
            context = contexts[sample.version] = MatchContext(_graph_at(inputs, sample.version))
        query = parse_query(generated.text, name=generated.name)
        error = _check_one(sample, query, cap, context, unbounded, wire)
        checked += 1
        if error:
            errors[sample.position] = f"{generated.name} at v{sample.version}: {error}"
    return checked, errors


def _check_one(
    sample: Sample, query, cap: int, context: MatchContext, unbounded: Budget, wire: bool
) -> str:
    rows = [tuple(row) for row in sample.answer]
    distinct = set(rows)
    if len(distinct) != len(rows):
        return f"{len(rows) - len(distinct)} duplicate rows"
    if len(rows) > cap:
        return f"{len(rows)} rows exceed the cap {cap}"
    if len(rows) == cap:
        graph = context.graph
        for row in rows:
            if len(row) != query.num_nodes:
                return f"row {row} has the wrong arity"
            for node in query.nodes():
                if graph.label(row[node]) != query.label(node):
                    return f"row {row}: node {node} has the wrong label"
            for edge in query.edges():
                if not context.edge_match(edge, row[edge.source], row[edge.target]):
                    return f"row {row} violates {edge!r}"
        return ""
    baseline = JMMatcher(context.graph, context=context).match(query, budget=unbounded)
    if not baseline.solved:
        return f"baseline could not finish ({baseline.status.value})"
    if baseline.occurrence_set() != distinct:
        return f"{len(rows)} rows, baseline JM has {baseline.num_matches}"
    if wire:
        local = GraphMatcher(context.graph, context=context).match(query, budget=unbounded)
        if local.occurrence_set() != distinct:
            return f"{len(rows)} rows, in-process GM has {local.num_matches}"
    return ""
