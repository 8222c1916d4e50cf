"""``python3 -m perf`` — the one benchmark command.

With ``--workload`` it measures that workload in this process and prints the
benchmark contract's JSON object as the last line of stdout.  Without it, it
runs every workload in a fresh subprocess each (so ``peak_rss_mb`` and caches
are per workload), prints every metric by name and writes
``perf/out/report.json``; ``--traced`` adds the per-layer run, ``--aa`` runs
everything twice with the same seed and reports the noise floor.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")

#: Default seed, and the held-out seed no change should be tuned on.
DEFAULT_SEED = 20230328
HELD_OUT_SEED = 7919


def _arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m perf", description=__doc__)
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"default {DEFAULT_SEED}; a claim must also hold on {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=None,
                        help="minimum timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = alternate untraced/traced repetitions, report per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: also make the per-layer run")
    parser.add_argument("--aa", action="store_true",
                        help="run everything twice on the same seed and compare (noise floor)")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 of the ops, one repetition: a quick end-to-end check")
    return parser.parse_args()


def _pin_to_one_cpu() -> None:
    """Keep every thread of the workload on one (the last allowed) CPU.

    A wire request hops threads six times; across vCPUs every hop wakes a
    halted vCPU, and what that costs depends on the host's adaptive halt
    polling — i.e. on what ran in the last minutes.  Unpinned, ``serve_read``
    ran 1.4x slower for two minutes after any ``serve_mixed_rw`` run.  The
    GIL lets one thread run at a time anyway, so nothing is lost by sharing
    a core, and same-core hand-offs cost the same every time.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _run_here(args: argparse.Namespace) -> int:
    from perf import run
    from perf.inputs import WORKLOADS
    from perf.metrics import load_spec

    if args.workload not in WORKLOADS:
        print(f"perf: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.smoke:
        seconds = 0.0
    _pin_to_one_cpu()
    result = run.run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    run.print_result(result)
    run.save_result(result, bool(args.trace))
    print(run.contract_line(result, bool(args.trace)))
    return 0 if result["failed"] == 0 else 1


def _spawn(workload: str, args: argparse.Namespace, traced: bool) -> dict:
    """One workload in a fresh interpreter; returns its result document."""
    command = [sys.executable, "-m", "perf", "--workload", workload, "--seed", str(args.seed),
               "--trace", str(int(traced))]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(completed.stdout.rsplit("\n", 2)[0] + "\n")  # all but the contract line
    path = os.path.join(HERE, "out", f"result-{workload}-trace{int(traced)}.json")
    if completed.returncode not in (0, 1) or not os.path.exists(path):
        raise SystemExit(f"perf: workload {workload} crashed (exit {completed.returncode})")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _run_all(args: argparse.Namespace) -> int:
    from perf.compare import aa_report
    from perf.inputs import WORKLOADS

    sets = []
    for _ in range(2 if args.aa else 1):
        results = {}
        for workload in WORKLOADS:
            results[workload] = {"untraced": _spawn(workload, args, traced=False)}
            if args.traced or args.aa:
                results[workload]["traced"] = _spawn(workload, args, traced=True)
        sets.append(results)
    report = {"seed": args.seed, "smoke": args.smoke, "runs": sets}
    failed = any(
        run["failed"] for results in sets for modes in results.values() for run in modes.values()
    )
    if args.aa:
        unresolved = aa_report(sets[0], sets[1])
        report["unresolved"] = unresolved
        failed = failed or bool(unresolved)
    with open(os.path.join(HERE, "out", "report.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return 1 if failed else 0


def main() -> int:
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perf: the program's source is not at {SOURCE}; nothing to measure",
              file=sys.stderr)
        return 3
    if SOURCE not in sys.path:
        sys.path.insert(0, SOURCE)
    args = _arguments()
    return _run_here(args) if args.workload else _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
