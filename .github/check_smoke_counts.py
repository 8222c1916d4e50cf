"""Compare a traced perf smoke run with the counters pinned for its seed.

Run ``python3 -m perf --smoke --traced`` and then
``python3 .github/check_smoke_counts.py default``, or
``python3 -m perf --smoke --traced --seed 7919`` and then
``python3 .github/check_smoke_counts.py held_out``.  RIG sizes, simulation
passes / pruning, MJoin rows and work (candidates, intersections) and, on the
serving workloads, frames, stream pages, requests, round trips and WAL bytes
per pass are properties of the inputs and the search order, not of the
machine, so ``perf/out/result-*-trace1.json`` must equal
``.github/perf-smoke-counts.json`` (its top-level entry for the default seed,
its ``held_out`` entry for the held-out one).  Exits 1 and names every
counter that differs.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(which: str) -> list:
    """One line per counter of ``which`` ("default" / "held_out") that differs."""
    with open(os.path.join(ROOT, ".github", "perf-smoke-counts.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)
    if which == "held_out":
        pinned = pinned["held_out"]
    elif which != "default":
        raise SystemExit(f"usage: {sys.argv[0]} default|held_out")
    wrong = []
    for workload, expected in pinned["workloads"].items():
        path = os.path.join(ROOT, "perf", "out", f"result-{workload}-trace1.json")
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        if result["seed"] != pinned["seed"]:
            wrong.append(f"{workload}: ran seed {result['seed']}, pinned seed {pinned['seed']}")
            continue
        measured = {
            "inputs_sha256": result["inputs_sha256"],
            **{name: entry["value"] for name, entry in result["end_to_end"].items()},
            **result["per_layer"],
        }
        wrong += [
            f"{workload}: {name} = {measured[name]!r}, pinned {value!r}"
            for name, value in expected.items()
            if measured[name] != value
        ]
    return wrong


if __name__ == "__main__":
    which = sys.argv[1] if len(sys.argv) > 1 else "default"
    wrong = check(which)
    print("\n".join(wrong) if wrong else f"{which}: every pinned counter matches")
    sys.exit(1 if wrong else 0)
