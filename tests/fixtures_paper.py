"""The paper's running example (Fig. 2) as an importable fixture module.

Test modules import the node-id constants and the expected answer from here
explicitly (``from fixtures_paper import A1, ...``) instead of from
``conftest`` — a ``conftest`` import resolves to whichever conftest pytest
put on ``sys.path`` first (the ``benchmarks/`` one when the rootdir spans
both directories), which broke collection of the seed suite.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Make the package importable even when it has not been pip-installed.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.graph.digraph import DataGraph
from repro.query.pattern import EdgeType, PatternQuery

# Node ids of the paper-example data graph.
A0, A1, A2 = 0, 1, 2
B0, B1, B2, B3 = 3, 4, 5, 6
C0, C1, C2 = 7, 8, 9

PAPER_NODE_NAMES = {
    A0: "a0", A1: "a1", A2: "a2",
    B0: "b0", B1: "b1", B2: "b2", B3: "b3",
    C0: "c0", C1: "c1", C2: "c2",
}


def build_paper_graph() -> DataGraph:
    """The data graph of the paper's running example (Fig. 2(b)).

    Engineered so that:

    * F(A)={a1,a2}, B(A)={a0,a1,a2}, FB(A)={a1,a2}
    * F(B)={b0,b1,b2}, B(B)={b0,b2,b3}, FB(B)={b0,b2}
    * F(C)=B(C)=FB(C)={c0,c1,c2}
    * the answer of Q is {(a1,b0,c0), (a1,b0,c1), (a2,b2,c0), (a2,b2,c2)}
    * the refined RIG contains the redundant edge (b2, c1).
    """
    labels = ["A", "A", "A", "B", "B", "B", "B", "C", "C", "C"]
    edges = [
        (A1, B0), (A2, B2), (A0, B3),
        (A1, C0), (A1, C1), (A2, C0), (A2, C2),
        (B0, C0), (B0, C1),
        (B1, C0), (B1, C2),
        (B2, C0), (B2, C1), (B2, C2),
    ]
    return DataGraph(labels, edges, name="paper-example")


def one_more_occurrence(base: int) -> dict:
    """``ingest`` kwargs that add exactly one occurrence of the paper query.

    A fresh A -> B, A -> C, B -> C triangle on the next three node ids
    (``base`` is the graph's ``num_nodes`` before the write).
    """
    return dict(
        labels=["A", "B", "C"],
        edges=[(base, base + 1), (base, base + 2), (base + 1, base + 2)],
    )


def build_paper_query() -> PatternQuery:
    """The hybrid query Q of Fig. 2(a): A->B, A->C direct; B=>C reachability."""
    return PatternQuery(
        labels=["A", "B", "C"],
        edges=[
            (0, 1, EdgeType.CHILD),
            (0, 2, EdgeType.CHILD),
            (1, 2, EdgeType.DESCENDANT),
        ],
        name="Q-paper",
    )


PAPER_ANSWER = frozenset(
    {
        (A1, B0, C0),
        (A1, B0, C1),
        (A2, B2, C0),
        (A2, B2, C2),
    }
)
