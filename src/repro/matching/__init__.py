"""GM: the RIG-based hybrid graph pattern matcher.

This package assembles the paper's contribution: search-order selection
(``JO``, ``RI``, ``BJ``), the MJoin multiway-intersection enumerator
(Algorithm 5) and the :class:`GraphMatcher` pipeline (GM) with its ablation
variants (GM-S, GM-F, GM-NR and the per-ordering variants).
"""

from repro.matching.result import Budget, MatchReport, MatchStatus
from repro.matching.ordering import (
    OrderingMethod,
    jo_order,
    ri_order,
    bj_order,
    search_order,
)
from repro.matching.mjoin import mjoin, mjoin_iter, count_matches
from repro.matching.stream import Evaluator, MatchStream
from repro.matching.gm import GraphMatcher, GMVariant

__all__ = [
    "Budget",
    "MatchReport",
    "MatchStatus",
    "Evaluator",
    "MatchStream",
    "OrderingMethod",
    "jo_order",
    "ri_order",
    "bj_order",
    "search_order",
    "mjoin",
    "mjoin_iter",
    "count_matches",
    "GraphMatcher",
    "GMVariant",
]
