"""Double simulation and node filtering.

Double simulation (Definition 1 / §4.2 of the paper) is the largest binary
relation between query nodes and data nodes that respects, for every query
edge, the existence of a forward match (outgoing constraint) and a backward
match (incoming constraint), where a match is edge-to-edge for direct edges
and edge-to-path for reachability edges.  It sandwiches the query answer:
``os(q) ⊆ FB(q) ⊆ ms(q)`` for every query node ``q``.

This package provides:

* :class:`MatchContext` — match sets, edge-match tests, batch forward /
  backward expansion sets, and node pre-filtering;
* :func:`fbsim_basic` (FBSimBas) and :func:`fbsim` (FBSim: the FBSimDag
  loop over a dag decomposition, plus a sweep of its back edges), tuned by
  :class:`SimulationOptions` (§4.4–4.5);
* :func:`dual_simulation` — the classic edge-to-edge dual simulation,
  kept as a point of comparison.
"""

from repro.simulation.context import MatchContext, ChildCheckMethod
from repro.simulation.matchsets import match_sets, node_prefilter
from repro.simulation.fbsim import (
    SimulationOptions,
    SimulationResult,
    fbsim_basic,
    fbsim,
    forward_simulation,
    backward_simulation,
)
from repro.simulation.dual import dual_simulation

__all__ = [
    "MatchContext",
    "ChildCheckMethod",
    "match_sets",
    "node_prefilter",
    "SimulationOptions",
    "SimulationResult",
    "fbsim_basic",
    "fbsim",
    "forward_simulation",
    "backward_simulation",
    "dual_simulation",
]
