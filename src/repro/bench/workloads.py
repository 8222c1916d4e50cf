"""Benchmark datasets and query workloads.

Builds the scaled-down dataset stand-ins and the query sets each experiment
needs: per-class representative templates (the paper's figures show three
queries from each of the acyclic / cyclic / clique / combo classes), the
C/H/D variants, and random dense/sparse query sets for the biological
datasets.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence

from repro.graph.datasets import load_dataset
from repro.graph.digraph import DataGraph
from repro.query.classify import QueryClass, classify_query
from repro.query.generators import (
    TEMPLATES_BY_CLASS,
    instantiate_template,
    random_pattern_query,
    template_query,
    to_child_only,
    to_descendant_only,
)
from repro.query.pattern import PatternQuery

#: Default size multiplier for benchmark graphs (kept small so the whole
#: benchmark suite completes in minutes in pure Python).
BENCH_SCALE = 0.25


@lru_cache(maxsize=32)
def bench_graph(key: str, scale: float = BENCH_SCALE, seed: int = 17) -> DataGraph:
    """Build (and cache) the benchmark stand-in for dataset ``key``."""
    return load_dataset(key, scale=scale, seed=seed)


def representative_templates(per_class: int = 3) -> List[str]:
    """Template names: ``per_class`` representatives from each structural class.

    Matches the figures' selection ("three queries from each of the acyclic,
    cyclic, clique, and combo pattern classes").
    """
    chosen: List[str] = []
    for query_class in (QueryClass.ACYCLIC, QueryClass.CYCLIC, QueryClass.CLIQUE, QueryClass.COMBO):
        names = TEMPLATES_BY_CLASS.get(query_class, ())
        chosen.extend(names[:per_class])
    return chosen


def query_set(
    graph: DataGraph,
    kind: str = "H",
    templates: Sequence[str] | None = None,
    seed: int = 11,
) -> Dict[str, PatternQuery]:
    """Instantiate a template query set of the given kind on ``graph``.

    ``kind`` is ``"H"`` (hybrid), ``"C"`` (child-only) or ``"D"``
    (descendant-only); the returned mapping is keyed by instantiated query
    name (``HQ3`` / ``CQ3`` / ``DQ3`` ...).
    """
    templates = list(templates) if templates is not None else representative_templates()
    queries: Dict[str, PatternQuery] = {}
    for index, name in enumerate(templates):
        base = instantiate_template(name, graph, seed=seed + index)
        if kind == "H":
            queries[base.name] = base
        elif kind == "C":
            converted = to_child_only(base)
            queries[converted.name] = converted
        elif kind == "D":
            converted = to_descendant_only(base)
            queries[converted.name] = converted
        else:
            raise ValueError(f"unknown query kind {kind!r}")
    return queries


def random_query_set(
    graph: DataGraph,
    node_counts: Sequence[int],
    kind: str = "H",
    dense: bool = False,
    per_size: int = 2,
    seed: int = 23,
) -> Dict[str, PatternQuery]:
    """Random query sets by node count (the biological-dataset workloads)."""
    queries: Dict[str, PatternQuery] = {}
    for num_nodes in node_counts:
        for repeat in range(per_size):
            query = random_pattern_query(
                graph,
                num_nodes,
                seed=seed + num_nodes * 10 + repeat,
                dense=dense,
                descendant_probability=0.5 if kind == "H" else (1.0 if kind == "D" else 0.0),
                name=f"{num_nodes}N-{repeat}",
            )
            if kind == "C":
                query = to_child_only(query, name=query.name)
            elif kind == "D":
                query = to_descendant_only(query, name=query.name)
            queries[query.name] = query
    return queries


def template_class(name: str) -> str:
    """Structural class of a template (for table grouping)."""
    return classify_query(template_query(name)).value
