"""Compare benchmark reports: the A/A noise floor and the paired gain rule.

``aa_report`` (used by ``python3 -m perf --aa``) takes two runs of the same
code on the same seed and prints, per workload and end-to-end metric, both
values, their relative gap and the metric's bound; a gap over the bound is
``UNRESOLVED`` — the benchmark cannot tell a change of that size from noise.
It also asserts that every count metric repeated exactly.

``python3 -m perf.compare --parent A.json ... --change B.json ...`` applies
the choosing-metrics rule to ``perf/out/report.json`` files from the parent
commit and from a change, paired in the order given: a **gain** needs at
least ten pairs, the change winning at least nine tenths of them (ties count
for neither), and medians further apart than the parent's own inter-quartile
distance; a **regression** is a change median worse than the parent's by more
than the metric's bound.  Every ratio is printed with its base.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional, Tuple

from perf.layers import EXACT
from perf.metrics import WORKLOAD_SPECIFIC, load_spec


def metric_specs() -> Dict[str, Tuple[str, str, float]]:
    """``name -> (unit, better, bound)`` for every end-to-end metric."""
    specs = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in load_spec()["end_to_end"]}
    specs.update(WORKLOAD_SPECIFIC)
    return specs


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``."""
    gap = (change - parent) / parent
    return gap if better == "lower" else -gap


def aa_report(first: Dict, second: Dict, stream=sys.stdout) -> List[str]:
    """Print the A/A table; returns the ``workload/metric`` names over their bound."""
    specs = metric_specs()
    unresolved: List[str] = []
    print(f"{'workload':<16}{'metric':<22}{'run A':>13}{'run B':>13}{'gap':>9}{'bound':>8}",
          file=stream)
    for workload, modes in first.items():
        a_values = modes["untraced"]["end_to_end"]
        b_values = second[workload]["untraced"]["end_to_end"]
        for name, (unit, _, bound) in specs.items():
            a, b = a_values[name]["value"], b_values[name]["value"]
            if a is None or b is None:
                continue
            gap = abs(b - a) / a
            flag = ""
            if gap > bound:
                flag = "  UNRESOLVED"
                unresolved.append(f"{workload}/{name}")
            print(f"{workload:<16}{name:<22}{a:>13.6g}{b:>13.6g}{gap:>9.2%}{bound:>8.0%}{flag}",
                  file=stream)
        if "traced" in modes:
            a_layers = modes["traced"]["per_layer"]
            b_layers = second[workload]["traced"]["per_layer"]
            for name in EXACT:
                if a_layers.get(name) != b_layers.get(name):
                    unresolved.append(f"{workload}/{name}")
                    print(f"{workload:<16}{name:<22}{a_layers.get(name):>13.6g}"
                          f"{b_layers.get(name):>13.6g}  COUNT DIFFERS", file=stream)
        if modes["untraced"]["inputs_sha256"] != second[workload]["untraced"]["inputs_sha256"]:
            unresolved.append(f"{workload}/inputs_sha256")
    print("A/A: " + (f"{len(unresolved)} unresolved: {', '.join(unresolved)}" if unresolved
                     else "every metric within its bound, every count exact"), file=stream)
    return unresolved


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _values(reports: List[Dict], workload: str, name: str) -> List[Optional[float]]:
    return [r["runs"][0][workload]["untraced"]["end_to_end"][name]["value"] for r in reports]


def compare(parents: List[Dict], changes: List[Dict], stream=sys.stdout) -> int:
    """Print one row per metric x workload; returns the number of regressions."""
    specs = metric_specs()
    pairs = min(len(parents), len(changes))
    regressions = 0
    print(f"{pairs} pairs; ratio = change median / parent median (base: parent median)",
          file=stream)
    print(f"{'workload':<16}{'metric':<22}{'parent q1/med/q3':>34}{'change med':>13}"
          f"{'ratio':>8}{'wins':>7}  verdict", file=stream)
    for workload in parents[0]["runs"][0]:
        for name, (unit, better, bound) in specs.items():
            a, b = _values(parents, workload, name), _values(changes, workload, name)
            if any(v is None for v in a + b):
                continue
            q1, a_median, q3 = quartiles(a)
            b_median = statistics.median(b)
            wins = sum(1 for x, y in zip(a, b) if worse_by(x, y, better) < 0)
            losses = sum(1 for x, y in zip(a, b) if worse_by(x, y, better) > 0)
            spread = q3 - q1
            worse = worse_by(a_median, b_median, better)
            if a_median and spread / a_median > bound:
                verdict = "unresolved (parent spread over bound)"
            elif worse > bound:
                verdict = f"REGRESSION (+{worse:.1%} worse, bound {bound:.0%})"
                regressions += 1
            elif pairs >= 10 and wins >= 0.9 * pairs and abs(b_median - a_median) > spread:
                verdict = "gain"
            elif pairs >= 10 and losses >= 0.9 * pairs and abs(b_median - a_median) > spread:
                verdict = "worse, within bound"
            else:
                verdict = "no change shown"
            print(f"{workload:<16}{name:<22}{q1:>11.5g}/{a_median:>10.5g}/{q3:>10.5g}"
                  f"{b_median:>13.5g}{b_median / a_median:>8.3f}{wins:>4}/{pairs:<2}  {verdict}",
                  file=stream)
    if pairs < 10:
        print(f"fewer than ten pairs ({pairs}): no gain can be claimed", file=stream)
    return regressions


def main() -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perf.compare", description=__doc__)
    parser.add_argument("--parent", nargs="+", required=True, help="report.json files of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="report.json files of the change")
    args = parser.parse_args()

    def load(paths: List[str]) -> List[Dict]:
        reports = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                reports.append(json.load(handle))
        return reports

    return 1 if compare(load(args.parent), load(args.change)) else 0


if __name__ == "__main__":
    sys.exit(main())
