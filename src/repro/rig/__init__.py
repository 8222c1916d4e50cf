"""Runtime Index Graph (RIG) construction.

A RIG (Definition 4.1) is a k-partite graph with one independent node set —
the *candidate occurrence set* ``cos(q)`` — per query node, and one edge set
``cos(e)`` per query edge, sandwiched between the query answer's occurrence
sets and the label-only match sets.  It losslessly encodes every
homomorphism from the query to the data graph (Proposition 4.1) and serves
as the search space for the enumeration phase.

:func:`build_rig` implements Algorithm 4 (BuildRIG): node selection by
double simulation (or by the weaker node pre-filter, for the GM-F ablation;
the :class:`GMVariant` picks) followed by node expansion into edges.
:func:`build_match_rig` builds the unfiltered match RIG.
"""

from repro.rig.graph import RuntimeIndexGraph
from repro.rig.build import GMVariant, RIGBuildReport, build_rig, build_match_rig
from repro.rig.stats import RIGStatistics, rig_statistics

__all__ = [
    "RuntimeIndexGraph",
    "GMVariant",
    "RIGBuildReport",
    "build_rig",
    "build_match_rig",
    "RIGStatistics",
    "rig_statistics",
]
