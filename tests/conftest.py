"""Shared fixtures for the test suite.

The central fixture is the paper's running example (Fig. 2): the hybrid
query ``Q`` over nodes A, B, C and a data graph ``G`` engineered so that its
forward / backward / double simulations equal Table 1 of the paper and its
answer equals Fig. 2(c).  The constants and builders live in
``fixtures_paper`` so that test modules can import them without relying on
``conftest`` being importable by name (which depends on the pytest rootdir).
"""

from __future__ import annotations

import pytest

from fixtures_paper import (  # noqa: F401  (re-exported for older imports)
    A0, A1, A2, B0, B1, B2, B3, C0, C1, C2,
    PAPER_ANSWER,
    PAPER_NODE_NAMES,
    build_paper_graph,
    build_paper_query,
)
from repro.graph.digraph import DataGraph
from repro.graph.generators import random_labeled_graph, random_dag
from repro.simulation.context import MatchContext
from repro.query.pattern import PatternQuery


@pytest.fixture(scope="session")
def paper_graph() -> DataGraph:
    """Session-scoped paper-example data graph."""
    return build_paper_graph()


@pytest.fixture(scope="session")
def paper_query() -> PatternQuery:
    """Session-scoped paper-example query."""
    return build_paper_query()


@pytest.fixture(scope="session")
def paper_answer() -> frozenset:
    """The expected answer of the paper-example query."""
    return PAPER_ANSWER


@pytest.fixture(scope="session")
def paper_context(paper_graph) -> MatchContext:
    """MatchContext (BFL reachability) over the paper-example graph."""
    return MatchContext(paper_graph)


@pytest.fixture(scope="session")
def small_random_graph() -> DataGraph:
    """A small random labelled graph shared by several module tests."""
    return random_labeled_graph(num_nodes=60, num_edges=180, num_labels=4, seed=3, name="small")


@pytest.fixture(scope="session")
def small_dag() -> DataGraph:
    """A small random dag shared by reachability tests."""
    return random_dag(num_nodes=50, num_edges=120, num_labels=4, seed=5, name="small-dag")


@pytest.fixture(scope="session")
def small_context(small_random_graph) -> MatchContext:
    """MatchContext over the small random graph."""
    return MatchContext(small_random_graph)
