"""The outcome record of a write: what it carried and what it dropped.

The dynamic subsystem keeps part of the :class:`repro.session.QuerySession`
caches alive across graph updates.  Each cached artifact falls into one of
three maintenance classes:

* **folded** — the match context, which
  :meth:`repro.simulation.context.MatchContext.with_delta` folds forward for
  every delta without a removal (the SCC condensation with its merges, the
  label tables);
* **rebuilt per version, on first use** — the context's per-pair
  reachability index (built only for the matchers that ask per-pair
  questions), the whole context after a removal, and the comparator
  engines' artifacts: the transitive closure, the closure-expanded graph,
  the GF catalog and the EH edge partitions, which every write drops;
* **per-query** — cached RIGs, carried to the new version when the
  fold's :class:`~repro.simulation.context.Gains` avoid every label pair of
  their query and dropped otherwise, and matcher instances, dropped on
  every version bump.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class ApplyReport:
    """Outcome of one :meth:`repro.session.QuerySession.apply` call.

    ``patched`` artifacts were carried to the new version (their build cost
    was saved); ``invalidated`` artifacts were dropped and will rebuild
    lazily on next use; artifacts that had never been built appear in
    neither list.
    """

    old_version: int
    new_version: int
    num_ops: int
    seconds: float
    patched: List[str] = field(default_factory=list)
    invalidated: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """One-line human-readable outcome."""
        return (
            f"apply v{self.old_version}->v{self.new_version}: {self.num_ops} ops "
            f"in {self.seconds * 1000:.2f}ms; patched=[{', '.join(self.patched)}] "
            f"invalidated=[{', '.join(self.invalidated)}]"
        )
