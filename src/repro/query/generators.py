"""Query templates and random query generators.

The paper's evaluation (§7.1) uses, for each dataset, query sets of three
types — child-only (C), hybrid (H) and descendant-only (D) — drawn from 20
designed templates ``HQ0 .. HQ19`` grouped into acyclic, cyclic, clique and
combo classes (Fig. 7), plus randomly generated queries of 4–32 nodes for
the biological datasets.  Fig. 7 specifies the templates only pictorially,
so this module defines structurally equivalent templates with the same class
membership used throughout the figures (HQ0/3/5 acyclic, HQ6/8/17 cyclic,
HQ11/12/19 clique with HQ19 a 7-clique, HQ10/13/14/16 combo, HQ2 a tree).

Template edges carry the hybrid (H) edge-type mix; :func:`to_child_only` and
:func:`to_descendant_only` derive the C and D variants, exactly as the paper
derives its C-/D-query sets from the H templates.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import QueryError
from repro.graph.digraph import DataGraph
from repro.query.classify import QueryClass, classify_query
from repro.query.pattern import EdgeType, PatternEdge, PatternQuery

C = EdgeType.CHILD
D = EdgeType.DESCENDANT

# Each template: (number of nodes, ((source, target, edge_type), ...)).
# The hybrid mix keeps roughly half of the edges as descendant edges, as the
# paper does when deriving H-queries from C-queries ("with 50% probability").
_TEMPLATE_DEFINITIONS: Dict[str, Tuple[int, Tuple[Tuple[int, int, EdgeType], ...]]] = {
    # --- acyclic -------------------------------------------------------- #
    "HQ0": (4, ((0, 1, C), (1, 2, D), (2, 3, C))),
    "HQ1": (5, ((0, 1, C), (0, 2, D), (0, 3, C), (0, 4, D))),
    "HQ2": (6, ((0, 1, C), (0, 2, D), (1, 3, C), (1, 4, D), (2, 5, C))),
    "HQ3": (8, ((0, 1, C), (0, 2, D), (1, 3, C), (2, 4, D), (2, 5, C), (4, 6, D), (5, 7, C))),
    "HQ5": (7, ((0, 1, D), (1, 2, C), (1, 3, D), (0, 4, C), (4, 5, D), (4, 6, C))),
    "HQ9": (6, ((0, 1, C), (1, 2, D), (2, 3, C), (3, 4, D), (4, 5, C))),
    # --- cyclic (one or two undirected cycles) --------------------------- #
    "HQ4": (4, ((0, 1, C), (0, 2, D), (1, 3, C), (2, 3, D))),
    "HQ6": (4, ((0, 1, C), (1, 2, D), (0, 2, C), (2, 3, D))),
    "HQ7": (5, ((0, 1, D), (0, 2, C), (1, 3, C), (2, 3, D), (3, 4, C))),
    "HQ8": (5, ((0, 1, C), (1, 2, D), (2, 3, C), (0, 3, D), (3, 4, C))),
    "HQ15": (5, ((0, 1, C), (1, 2, D), (0, 2, C), (2, 3, C), (3, 4, D), (2, 4, C))),
    "HQ17": (6, ((0, 1, C), (1, 2, D), (0, 2, C), (2, 3, D), (3, 4, C), (2, 4, D), (4, 5, C))),
    "HQ18": (6, ((0, 1, D), (1, 2, C), (2, 3, D), (0, 3, C), (3, 4, D), (4, 5, C), (1, 5, D))),
    # --- clique ----------------------------------------------------------- #
    "HQ11": (4, ((0, 1, C), (0, 2, D), (0, 3, C), (1, 2, C), (1, 3, D), (2, 3, C))),
    "HQ12": (
        5,
        (
            (0, 1, C), (0, 2, D), (0, 3, C), (0, 4, D),
            (1, 2, C), (1, 3, D), (1, 4, C),
            (2, 3, C), (2, 4, D),
            (3, 4, C),
        ),
    ),
    "HQ19": (
        7,
        (
            (0, 1, C), (0, 2, D), (0, 3, C), (0, 4, D), (0, 5, C), (0, 6, D),
            (1, 2, C), (1, 3, D), (1, 4, C), (1, 5, D), (1, 6, C),
            (2, 3, C), (2, 4, D), (2, 5, C), (2, 6, D),
            (3, 4, C), (3, 5, D), (3, 6, C),
            (4, 5, C), (4, 6, D),
            (5, 6, C),
        ),
    ),
    # --- combo (more than two undirected cycles) -------------------------- #
    "HQ10": (
        6,
        (
            (0, 1, C), (0, 2, D), (1, 2, C), (1, 3, D),
            (2, 3, C), (2, 4, D), (3, 4, C), (3, 5, D), (4, 5, C),
        ),
    ),
    "HQ13": (
        7,
        (
            (0, 1, C), (0, 2, D), (1, 2, C),
            (1, 3, D), (2, 3, C), (3, 4, D),
            (3, 5, C), (4, 5, D), (4, 6, C), (5, 6, D),
        ),
    ),
    "HQ14": (
        8,
        (
            (0, 1, C), (0, 2, D), (1, 2, C), (1, 3, D), (2, 4, C),
            (3, 4, D), (3, 5, C), (4, 5, D), (4, 6, C), (5, 6, D),
            (5, 7, C), (6, 7, D),
        ),
    ),
    "HQ16": (
        8,
        (
            (0, 1, C), (0, 2, D), (0, 3, C), (1, 2, C), (1, 4, D),
            (2, 4, C), (2, 5, D), (3, 5, C), (4, 6, D), (5, 6, C),
            (5, 7, D), (6, 7, C), (3, 7, D),
        ),
    ),
}

#: Public registry of template names in numeric order.
QUERY_TEMPLATES: Tuple[str, ...] = tuple(
    sorted(_TEMPLATE_DEFINITIONS, key=lambda key: int(key[2:]))
)

#: Templates grouped by their structural class (used to pick the three
#: representatives per class that the paper's figures show).
TEMPLATES_BY_CLASS: Dict[QueryClass, Tuple[str, ...]] = {}


def template_query(name: str) -> PatternQuery:
    """Return the structural template ``name`` with placeholder labels.

    Placeholder labels are ``X0, X1, ...``; use :func:`instantiate_template`
    to draw labels from a data graph.
    """
    try:
        num_nodes, edges = _TEMPLATE_DEFINITIONS[name]
    except KeyError as exc:
        raise QueryError(f"unknown query template {name!r}") from exc
    labels = [f"X{i}" for i in range(num_nodes)]
    return PatternQuery(labels, edges, name=name)


def _fill_templates_by_class() -> None:
    grouping: Dict[QueryClass, List[str]] = {cls: [] for cls in QueryClass}
    for name in QUERY_TEMPLATES:
        grouping[classify_query(template_query(name))].append(name)
    for cls, names in grouping.items():
        TEMPLATES_BY_CLASS[cls] = tuple(names)


_fill_templates_by_class()


# ---------------------------------------------------------------------- #
# edge-type conversions (C / H / D query sets)
# ---------------------------------------------------------------------- #


def to_child_only(query: PatternQuery, name: Optional[str] = None) -> PatternQuery:
    """Replace every edge with a direct (child) edge — the C-query variant."""
    edges = [PatternEdge(edge.source, edge.target, EdgeType.CHILD) for edge in query.edges()]
    return query.with_edges(edges, name=name or query.name.replace("HQ", "CQ"))


def to_descendant_only(query: PatternQuery, name: Optional[str] = None) -> PatternQuery:
    """Replace every edge with a reachability edge — the D-query variant."""
    edges = [PatternEdge(edge.source, edge.target, EdgeType.DESCENDANT) for edge in query.edges()]
    return query.with_edges(edges, name=name or query.name.replace("HQ", "DQ"))


def to_hybrid(query: PatternQuery, probability: float = 0.5, seed: int = 0,
              name: Optional[str] = None) -> PatternQuery:
    """Turn each edge into a reachability edge with the given probability.

    This is how the paper derives H-queries from C-queries for the random
    biological-dataset workloads ("with 50% probability").
    """
    rng = random.Random(seed)
    edges = [
        PatternEdge(
            edge.source,
            edge.target,
            EdgeType.DESCENDANT if rng.random() < probability else EdgeType.CHILD,
        )
        for edge in query.edges()
    ]
    return query.with_edges(edges, name=name or query.name)


# ---------------------------------------------------------------------- #
# instantiation against a data graph
# ---------------------------------------------------------------------- #


def instantiate_template(
    name: str,
    graph: DataGraph,
    seed: int = 0,
    bias_frequent_labels: bool = True,
) -> PatternQuery:
    """Instantiate template ``name`` with labels drawn from ``graph``.

    Labels are sampled from the graph's alphabet; by default the sampling is
    weighted by inverted-list size, which makes instances likely to have
    non-empty (and interesting) answers, matching how the paper instantiates
    its templates on each dataset.
    """
    template = template_query(name)
    rng = random.Random(seed)
    alphabet = list(graph.label_alphabet())
    if not alphabet:
        raise QueryError("cannot instantiate a template on an unlabelled graph")
    if bias_frequent_labels:
        weights = [len(graph.inverted_list(label)) for label in alphabet]
        labels = rng.choices(alphabet, weights=weights, k=template.num_nodes)
    else:
        labels = [rng.choice(alphabet) for _ in range(template.num_nodes)]
    return template.relabeled(labels, name=f"{name}")


def all_template_queries(
    graph: DataGraph, seed: int = 0, kinds: Sequence[str] = ("H",)
) -> Dict[str, PatternQuery]:
    """Instantiate every template on ``graph`` in the requested variants.

    ``kinds`` selects among ``"H"`` (hybrid, as defined), ``"C"``
    (child-only) and ``"D"`` (descendant-only).  The returned mapping is
    keyed by query name (``HQ3``, ``CQ3``, ``DQ3``, ...).
    """
    result: Dict[str, PatternQuery] = {}
    for index, name in enumerate(QUERY_TEMPLATES):
        base = instantiate_template(name, graph, seed=seed + index)
        for kind in kinds:
            if kind == "H":
                result[base.name] = base
            elif kind == "C":
                converted = to_child_only(base)
                result[converted.name] = converted
            elif kind == "D":
                converted = to_descendant_only(base)
                result[converted.name] = converted
            else:
                raise QueryError(f"unknown query kind {kind!r} (use 'C', 'H' or 'D')")
    return result


# ---------------------------------------------------------------------- #
# random queries
# ---------------------------------------------------------------------- #


def random_pattern_query(
    graph: DataGraph,
    num_nodes: int,
    seed: int = 0,
    dense: bool = False,
    descendant_probability: float = 0.5,
    name: Optional[str] = None,
) -> PatternQuery:
    """Generate a random connected pattern query over ``graph``'s labels.

    ``dense=True`` targets an average degree of at least 3 per query node
    (the paper's "dense query sets"); otherwise the degree stays below 3
    ("sparse query sets").  Edge directions are random, edge types follow
    ``descendant_probability``.
    """
    if num_nodes < 2:
        raise QueryError("random queries need at least two nodes")
    rng = random.Random(seed)
    alphabet = list(graph.label_alphabet())
    weights = [len(graph.inverted_list(label)) for label in alphabet]
    labels = rng.choices(alphabet, weights=weights, k=num_nodes)

    # Spanning tree first to guarantee connectivity.
    edges: List[Tuple[int, int, EdgeType]] = []
    existing: set = set()

    def add_edge(u: int, v: int) -> bool:
        if u == v or (u, v) in existing or (v, u) in existing:
            return False
        edge_type = D if rng.random() < descendant_probability else C
        if rng.random() < 0.5:
            u, v = v, u
        edges.append((u, v, edge_type))
        existing.add((u, v))
        return True

    for node in range(1, num_nodes):
        add_edge(rng.randrange(node), node)

    if dense:
        target_edges = max(num_nodes * 3 // 2, num_nodes)
    else:
        target_edges = num_nodes - 1 + max(0, num_nodes // 4)
    attempts = 0
    while len(edges) < target_edges and attempts < 20 * target_edges:
        attempts += 1
        add_edge(rng.randrange(num_nodes), rng.randrange(num_nodes))

    return PatternQuery(labels, edges, name=name or f"rand{num_nodes}N-{seed}")
