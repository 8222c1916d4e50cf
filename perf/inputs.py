"""Seeded input generators: graphs, queries and op schedules.

Everything a workload feeds the program is made here from ``--seed`` and
nothing else; the program only ever sees the generated ``(labels, edges)``,
DSL query text and edge inserts.  The same seed gives byte-identical inputs
(``Inputs.sha256`` is recorded with every result).

Two graph shapes (see README for why):

* ``sparse`` — the ``em`` shape: uniform random, 2.6 edges/node, 20 labels.
  Long reachability chains through one giant component, selective labels.
* ``dense`` — the ``am`` shape: Zipf-attached targets, 6.3 edges/node,
  3 labels.  Huge match sets.

Queries are the 20 Fig. 7 templates in their C (all direct), H (as drawn)
and D (all reachability) variants; labels come from a random walk over the
data graph along the template's spanning tree, so tree-shaped instances are
never empty and most cyclic ones are not either.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import astuple, dataclass, field
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

Edge = Tuple[int, int]

#: The 20 templates of Fig. 7: name -> (nodes, ((source, target, kind), ...))
#: with kind "C" (direct edge) or "D" (reachability edge) as in the H variant.
TEMPLATES: Dict[str, Tuple[int, Tuple[Tuple[int, int, str], ...]]] = {
    "Q0": (4, ((0, 1, "C"), (1, 2, "D"), (2, 3, "C"))),
    "Q1": (5, ((0, 1, "C"), (0, 2, "D"), (0, 3, "C"), (0, 4, "D"))),
    "Q2": (6, ((0, 1, "C"), (0, 2, "D"), (1, 3, "C"), (1, 4, "D"), (2, 5, "C"))),
    "Q3": (8, ((0, 1, "C"), (0, 2, "D"), (1, 3, "C"), (2, 4, "D"), (2, 5, "C"),
               (4, 6, "D"), (5, 7, "C"))),
    "Q4": (4, ((0, 1, "C"), (0, 2, "D"), (1, 3, "C"), (2, 3, "D"))),
    "Q5": (7, ((0, 1, "D"), (1, 2, "C"), (1, 3, "D"), (0, 4, "C"), (4, 5, "D"),
               (4, 6, "C"))),
    "Q6": (4, ((0, 1, "C"), (1, 2, "D"), (0, 2, "C"), (2, 3, "D"))),
    "Q7": (5, ((0, 1, "D"), (0, 2, "C"), (1, 3, "C"), (2, 3, "D"), (3, 4, "C"))),
    "Q8": (5, ((0, 1, "C"), (1, 2, "D"), (2, 3, "C"), (0, 3, "D"), (3, 4, "C"))),
    "Q9": (6, ((0, 1, "C"), (1, 2, "D"), (2, 3, "C"), (3, 4, "D"), (4, 5, "C"))),
    "Q10": (6, ((0, 1, "C"), (0, 2, "D"), (1, 2, "C"), (1, 3, "D"), (2, 3, "C"),
                (2, 4, "D"), (3, 4, "C"), (3, 5, "D"), (4, 5, "C"))),
    "Q11": (4, ((0, 1, "C"), (0, 2, "D"), (0, 3, "C"), (1, 2, "C"), (1, 3, "D"),
                (2, 3, "C"))),
    "Q12": (5, ((0, 1, "C"), (0, 2, "D"), (0, 3, "C"), (0, 4, "D"), (1, 2, "C"),
                (1, 3, "D"), (1, 4, "C"), (2, 3, "C"), (2, 4, "D"), (3, 4, "C"))),
    "Q13": (7, ((0, 1, "C"), (0, 2, "D"), (1, 2, "C"), (1, 3, "D"), (2, 3, "C"),
                (3, 4, "D"), (3, 5, "C"), (4, 5, "D"), (4, 6, "C"), (5, 6, "D"))),
    "Q14": (8, ((0, 1, "C"), (0, 2, "D"), (1, 2, "C"), (1, 3, "D"), (2, 4, "C"),
                (3, 4, "D"), (3, 5, "C"), (4, 5, "D"), (4, 6, "C"), (5, 6, "D"),
                (5, 7, "C"), (6, 7, "D"))),
    "Q15": (5, ((0, 1, "C"), (1, 2, "D"), (0, 2, "C"), (2, 3, "C"), (3, 4, "D"),
                (2, 4, "C"))),
    "Q16": (8, ((0, 1, "C"), (0, 2, "D"), (0, 3, "C"), (1, 2, "C"), (1, 4, "D"),
                (2, 4, "C"), (2, 5, "D"), (3, 5, "C"), (4, 6, "D"), (5, 6, "C"),
                (5, 7, "D"), (6, 7, "C"), (3, 7, "D"))),
    "Q17": (6, ((0, 1, "C"), (1, 2, "D"), (0, 2, "C"), (2, 3, "D"), (3, 4, "C"),
                (2, 4, "D"), (4, 5, "C"))),
    "Q18": (6, ((0, 1, "D"), (1, 2, "C"), (2, 3, "D"), (0, 3, "C"), (3, 4, "D"),
                (4, 5, "C"), (1, 5, "D"))),
    "Q19": (7, ((0, 1, "C"), (0, 2, "D"), (0, 3, "C"), (0, 4, "D"), (0, 5, "C"),
                (0, 6, "D"), (1, 2, "C"), (1, 3, "D"), (1, 4, "C"), (1, 5, "D"),
                (1, 6, "C"), (2, 3, "C"), (2, 4, "D"), (2, 5, "C"), (2, 6, "D"),
                (3, 4, "C"), (3, 5, "D"), (3, 6, "C"), (4, 5, "C"), (4, 6, "D"),
                (5, 6, "C"))),
}

#: Full-size workload parameters.  ``--smoke`` divides the op counts by 20;
#: graph sizes stay, so the smoke run exercises the same code on the same data.
#: ``variants`` maps a query variant to how many label patterns per template
#: get it.  The mixes are deliberately lopsided (2:1): a percentile of a
#: bimodal cost distribution is only steady when it lies inside one mode.
SIZES = {
    "kernel_build": dict(shape="sparse", nodes=1000, variants={"D": 6, "H": 2},
                         max_matches=1000),
    "kernel_enum": dict(shape="dense", nodes=600, variants={"H": 4, "C": 4},
                        max_matches=3000),
    "serve_read": dict(shape="sparse", nodes=600, slots=1100, stream_every=20,
                       query_max=500, stream_max=5000, page_size=1000),
    "serve_mixed_rw": dict(shape="sparse", nodes=600, writes=80, reads_per_write=4,
                           edges_per_write=4, stream_every=10, query_max=500,
                           stream_max=5000, page_size=1000),
}

WORKLOADS = tuple(SIZES)

#: ``(stride, offset)`` of the fixed label patterns used on few-label graphs:
#: query node ``v`` gets label number ``(v * stride + offset) mod |labels|``.
PATTERNS = ((1, 0), (2, 1), (1, 2), (0, 0))


@dataclass(frozen=True)
class Query:
    """One generated query: DSL text plus the match cap its ops run under."""

    name: str
    text: str
    max_matches: int


@dataclass
class Inputs:
    """Everything one workload run feeds the program."""

    workload: str
    labels: List[str]
    edges: List[Edge]
    queries: List[Query]
    #: ``(kind, index)`` ops in issue order; kind is ``query`` / ``stream``
    #: (index into ``queries``), ``apply`` (index into ``inserts``) or
    #: ``checkpoint``.
    schedule: List[Tuple[str, int]]
    inserts: List[List[Edge]] = field(default_factory=list)
    #: Stream ops: rows per page and the match cap (rows shipped per stream).
    page_size: int = 0
    stream_max: int = 0
    sha256: str = ""


# ---------------------------------------------------------------------- #
# graphs
# ---------------------------------------------------------------------- #


def _relabel(
    rng: random.Random, labels: List[str], edges: Sequence[Edge]
) -> Tuple[List[str], List[Edge]]:
    """Renumber the nodes by a seeded permutation, so an id says nothing
    about a node's label or degree rank."""
    new_id = list(range(len(labels)))
    rng.shuffle(new_id)
    shuffled = [""] * len(labels)
    for old, new in enumerate(new_id):
        shuffled[new] = labels[old]
    return shuffled, sorted((new_id[u], new_id[v]) for u, v in edges)


def sparse_graph(rng: random.Random, nodes: int) -> Tuple[List[str], List[Edge]]:
    """Uniform random digraph, 2.6 edges/node, 20 equal-sized label classes."""
    labels = [f"L{node % 20}" for node in range(nodes)]
    edges = set()
    while len(edges) < int(nodes * 2.6):
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u != v:
            edges.add((u, v))
    return _relabel(rng, labels, edges)


def dense_graph(rng: random.Random, nodes: int) -> Tuple[List[str], List[Edge]]:
    """Zipf-attached digraph (in-degree hubs), 6.3 edges/node, 3 labels.

    Labels go round-robin down the attachment ranking, so every seed gives
    each label the same share of hubs; which nodes link to them is random.
    """
    labels = [f"L{rank % 3}" for rank in range(nodes)]
    cumulative = list(accumulate((rank + 1) ** -1.4 for rank in range(nodes)))
    population = range(nodes)
    edges = set()
    while len(edges) < int(nodes * 6.3):
        u = rng.randrange(nodes)
        v = rng.choices(population, cum_weights=cumulative)[0]
        if u != v:
            edges.add((u, v))
    return _relabel(rng, labels, edges)


# ---------------------------------------------------------------------- #
# queries
# ---------------------------------------------------------------------- #


def _walk_labels(
    rng: random.Random,
    template: str,
    labels: Sequence[str],
    succ: Sequence[Sequence[int]],
    pred: Sequence[Sequence[int]],
) -> List[str]:
    """Labels of data nodes visited by a walk along the template's spanning tree."""
    num_nodes, edges = TEMPLATES[template]
    neighbours: Dict[int, List[Tuple[int, bool]]] = {v: [] for v in range(num_nodes)}
    for source, target, _ in edges:
        neighbours[source].append((target, True))
        neighbours[target].append((source, False))
    for _ in range(16):
        mapped = {0: rng.randrange(len(labels))}
        frontier = [0]
        while frontier:
            parent = frontier.pop(0)
            for node, forward in neighbours[parent]:
                if node in mapped:
                    continue
                steps = succ[mapped[parent]] if forward else pred[mapped[parent]]
                if not steps:
                    frontier = []
                    break
                mapped[node] = steps[rng.randrange(len(steps))]
                frontier.append(node)
        if len(mapped) == num_nodes:
            return [labels[mapped[v]] for v in range(num_nodes)]
    return [labels[rng.randrange(len(labels))] for _ in range(num_nodes)]


def query_text(template: str, variant: str, node_labels: Sequence[str]) -> str:
    """DSL text of ``template`` in variant C / H / D with the given labels."""
    _, edges = TEMPLATES[template]
    lines = [f"node n{index} {label}" for index, label in enumerate(node_labels)]
    for source, target, kind in edges:
        descendant = variant == "D" or (variant == "H" and kind == "D")
        lines.append(f"edge n{source} {'=>' if descendant else '->'} n{target}")
    return "\n".join(lines) + "\n"


def _queries(
    rng: random.Random,
    labels: Sequence[str],
    edges: Sequence[Edge],
    variants: Dict[str, int],
    max_matches: int,
) -> List[Query]:
    """Every template, in each variant, under that variant's number of label patterns."""
    succ: List[List[int]] = [[] for _ in labels]
    pred: List[List[int]] = [[] for _ in labels]
    for u, v in edges:
        succ[u].append(v)
        pred[v].append(u)
    alphabet = sorted(set(labels))
    queries: List[Query] = []
    for template in TEMPLATES:
        num_nodes = TEMPLATES[template][0]
        patterns: List[Tuple[str, ...]] = []
        if len(alphabet) <= 3:
            # Few labels: every pattern has matches, but which pattern a walk
            # lands on decides the cost by a factor of four, so a handful of
            # walks per seed would make seeds incomparable.  Use fixed
            # arithmetic patterns instead (the last is single-label).
            for stride, offset in PATTERNS:
                patterns.append(tuple(
                    alphabet[(node * stride + offset) % len(alphabet)] for node in range(num_nodes)
                ))
        while len(patterns) < max(variants.values()):
            walked = tuple(_walk_labels(rng, template, labels, succ, pred))
            if walked not in patterns:
                patterns.append(walked)
        for instance, node_labels in enumerate(patterns):
            for variant in (v for v, count in variants.items() if instance < count):
                queries.append(
                    Query(
                        name=f"{variant}{template}.{instance}",
                        text=query_text(template, variant, node_labels),
                        max_matches=max_matches,
                    )
                )
    return queries


def _fresh_edges(
    rng: random.Random, nodes: int, existing: set, batches: int, per_batch: int
) -> List[List[Edge]]:
    """``batches`` lists of edges present neither in the graph nor in each other."""
    taken = set(existing)
    result = []
    for _ in range(batches):
        batch = []
        while len(batch) < per_batch:
            edge = (rng.randrange(nodes), rng.randrange(nodes))
            if edge[0] != edge[1] and edge not in taken:
                taken.add(edge)
                batch.append(edge)
        result.append(batch)
    return result


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #


def make_inputs(workload: str, seed: int, smoke: bool = False) -> Inputs:
    """Generate the inputs of ``workload`` from ``seed``."""
    size = SIZES[workload]
    # One stream per workload so adding a workload never shifts another's inputs.
    rng = random.Random(f"{workload}/{seed}")
    shrink = 20 if smoke else 1
    graph = sparse_graph if size["shape"] == "sparse" else dense_graph
    labels, edges = graph(rng, size["nodes"])
    inputs = Inputs(workload, labels, edges, [], [])

    if workload.startswith("kernel"):
        inputs.queries = _queries(rng, labels, edges, size["variants"], size["max_matches"])
        order = list(range(len(inputs.queries)))
        rng.shuffle(order)
        inputs.schedule = [("query", index) for index in order[: max(8, len(order) // shrink)]]
    else:
        # The 60-query working set: every template as two D instances and one
        # H — small enough that every RIG stays in the session cache.
        inputs.queries = _queries(rng, labels, edges, {"D": 2, "H": 1}, size["query_max"])
        picks = range(len(inputs.queries))
        streams = [i for i in picks if inputs.queries[i].name.startswith("D")]
        inputs.page_size = size["page_size"]
        inputs.stream_max = size["stream_max"]
        reads = 0

        def add_read() -> None:
            # Every ``stream_every``-th read is a stream of a D-variant
            # (reachability-only queries have the largest answers to ship).
            nonlocal reads
            reads += 1
            if reads % size["stream_every"] == 0:
                inputs.schedule.append(("stream", rng.choice(streams)))
            else:
                inputs.schedule.append(("query", rng.choice(picks)))

        if workload == "serve_read":
            for _ in range(size["slots"] // shrink):
                add_read()
        else:
            writes = max(2, size["writes"] // shrink)
            inputs.inserts = _fresh_edges(
                rng, size["nodes"], set(edges), writes, size["edges_per_write"]
            )
            for write in range(writes):
                if write == writes // 2:
                    inputs.schedule.append(("checkpoint", 0))
                inputs.schedule.append(("apply", write))
                for _ in range(size["reads_per_write"]):
                    add_read()

    digest = hashlib.sha256()
    digest.update(
        json.dumps(
            [labels, edges, [astuple(query) for query in inputs.queries],
             inputs.schedule, inputs.inserts],
            separators=(",", ":"),
        ).encode()
    )
    inputs.sha256 = digest.hexdigest()
    return inputs


