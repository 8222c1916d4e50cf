"""Run one workload in this process and report it.

``run_workload`` repeats the workload's repetition (set-up, timed pass,
tear-down) until at least ``seconds`` of timed work and ``MIN_REPETITIONS``
are done.  With tracing on, repetitions alternate untraced / traced: the untraced
ones give the end-to-end numbers and the reference for
``trace.overhead_frac``, the traced ones the per-layer numbers.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

from perf import check, layers, metrics, trace
from perf.inputs import make_inputs
from perf.workloads import Repetition, run_repetition

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Every op is timed at least this often; its time is the minimum (see
#: ``perf.metrics.Op``), so more repetitions reject more machine noise.
MIN_REPETITIONS = 5


def run_workload(workload: str, seed: int, seconds: float, traced: bool, smoke: bool) -> Dict:
    """Measure ``workload``; returns the full result document."""
    os.makedirs(OUT_DIR, exist_ok=True)
    inputs = make_inputs(workload, seed, smoke)
    keep = check.sample_positions(inputs)
    tracer = trace.Tracer()
    plain: List[Repetition] = []
    under_trace: List[Repetition] = []
    views: List[layers.PassView] = []
    spans: List[trace.Span] = []
    timed = 0.0
    rss_mb = 0.0
    minimum = 1 if smoke else MIN_REPETITIONS
    while True:
        trace_this = traced and len(plain) > len(under_trace)
        if trace_this:
            tracer.install()
        try:
            repetition = run_repetition(inputs, keep, OUT_DIR)
        finally:
            tracer.uninstall()
        timed += repetition.wall_s
        if not plain:
            # After the first repetition, so that it neither depends on how
            # many repetitions the run made nor sees the checker's baselines.
            rss_mb = metrics.peak_rss_mb()
        if trace_this:
            spans, events = tracer.take()
            views.append(layers.view_of(repetition, spans, events, tracer.missing))
            under_trace.append(repetition)
        else:
            plain.append(repetition)
        if traced:  # half as many of each kind, so a traced run takes no longer
            enough = len(plain) == len(under_trace) >= (minimum + 1) // 2
        else:
            enough = len(plain) >= minimum
        if timed >= seconds and enough:
            break

    checked, wrong = check.check_answers(inputs, plain[-1])
    everything = plain + under_trace
    attempted = sum(len(r.samples) for r in everything)
    problems = [
        f"op {s.position} ({s.kind}): {s.error}"
        for r in everything for s in r.samples if s.error is not None
    ]
    problems += wrong.values()
    problems += [error for r in everything for error in r.durability_errors]
    if checked < min(20, len(keep)):
        problems.append(f"only {checked} of {len(keep)} sampled answers could be checked")

    result = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "inputs_sha256": inputs.sha256,
        "repetitions": len(plain),
        "ops_per_repetition": len(inputs.schedule),
        "attempted": attempted,
        "failed": len(problems),
        "failed_frac": len(problems) / attempted,
        "answers_checked": checked,
        "problems": problems[:20],
        "end_to_end": metrics.summarise(
            workload, plain, rss_mb, sum(len(batch) for batch in inputs.inserts)
        ),
    }
    if traced:
        values = layers.layer_values(views)
        # Both sides as the sum of per-op minima, like every other timing.
        values["trace.overhead_frac"] = (
            sum(op.seconds for op in metrics.collapse_ops(under_trace))
            / sum(op.seconds for op in metrics.collapse_ops(plain))
            - 1.0
        )
        result["per_layer"] = values
        result["time_shares"] = layers.time_shares(views)
        result["missing_patch_points"] = sorted(set(tracer.missing))
        trace.write_jsonl(
            os.path.join(OUT_DIR, f"trace-{workload}.jsonl"),
            spans,
            [(s.position, s.kind, s.start, s.end) for s in under_trace[-1].samples],
        )
    return result


def contract_line(result: Dict, traced: bool) -> str:
    """The benchmark contract's result object (last line of stdout)."""
    spec = metrics.load_spec()
    values = {name: entry["value"] for name, entry in result["end_to_end"].items()}
    values.update(result.get("per_layer", {}))
    out: Dict[str, Dict[str, object]] = {}
    for entry in spec["per_layer" if traced else "end_to_end"]:
        name = entry["name"]
        if name not in values:
            raise SystemExit(f"perf: BENCHMARK.json declares {name}, which perf does not compute")
        value = values[name]
        if value is None:
            if not traced and not result["smoke"]:
                raise SystemExit(f"perf: {name} has no value on {result['workload']}")
            # The contract wants a number for every per-layer metric; a layer
            # this workload does not exercise (or whose patch point is gone)
            # reads 0.  A smoke run just has too few ops for a percentile.
            if not traced:
                continue
            value = 0.0
        out[name] = {"value": value, "unit": entry["unit"]}
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": out,
        }
    )


def print_result(result: Dict, stream=sys.stdout) -> None:
    """Every metric by name with its unit (and sample count)."""
    print(
        f"== {result['workload']}  seed={result['seed']}  reps={result['repetitions']}"
        f"  ops/rep={result['ops_per_repetition']}  inputs={result['inputs_sha256'][:12]}"
        f"  checked={result['answers_checked']}  failed={result['failed']}/{result['attempted']}",
        file=stream,
    )
    for name, entry in result["end_to_end"].items():
        shown = "-" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"  {name:<24}{shown:>14} {entry['unit']:<6} n={entry['n']}", file=stream)
    for name, value in result.get("per_layer", {}).items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<32}{shown:>14}", file=stream)
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}", file=stream)


def save_result(result: Dict, traced: bool) -> str:
    """Write the result document under ``perf/out``; returns its path."""
    path = os.path.join(OUT_DIR, f"result-{result['workload']}-trace{int(traced)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return path
