#!/usr/bin/env python3
"""Steadiness record of the benchmark.

Runs every workload `--runs` times, each with another seed, in `--sets`
sets, with the command and run length of BENCHMARK.json. For every
end-to-end metric it reports, per workload and set, the median, the
quartiles (statistics.quantiles, n=4) and the spread (interquartile range
over median), and how far each later set's median moved from the first
set's, in either direction. It also keeps the host calibration times each
run prints on standard error.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] \
        [--workloads bulk,dense] [--out perfbench/steadiness.json]

Run it from the repository root. Exit status 1 means a run failed, or a
spread or a median shift of some metric, `setup_s` included, exceeded the
metric's bound; every such case is listed at the end.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

CALIB = re.compile(r"host\.calib_s start=([0-9.e-]+) end=([0-9.e-]+)")


def run_once(command, workload, seed, seconds):
    """Runs one benchmark invocation; returns (result, calib, wall seconds)."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    match = CALIB.search(proc.stderr)
    calib = [float(match.group(1)), float(match.group(2))] if match else None
    return result, calib, wall


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--out", default=None, help="write the record as JSON here")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    problems = []
    for set_index in range(args.sets):
        for workload in workloads:
            for i in range(args.runs):
                seed = set_index * args.runs + i + 1
                result, calib, wall = run_once(bench["command"], workload, seed,
                                               bench["run_seconds"])
                if not result["correct"] or result["failed"]:
                    problems.append(f"{workload} seed {seed}: {result['failed']} failed ops")
                values = {k: v["value"] for k, v in result["metrics"].items()}
                runs[workload].append({"set": set_index, "seed": seed, "wall_s": wall,
                                       "calib_s": calib, "correct": result["correct"],
                                       "attempted": result["attempted"],
                                       "failed": result["failed"], "metrics": values})
                print(f"set {set_index} {workload} seed {seed}: {wall:.1f} s "
                      + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)

    record = {"run_seconds": bench["run_seconds"], "runs": args.runs, "sets": args.sets,
              "workloads": {}}
    print()
    print(f"{'workload':8} {'metric':15} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'shift':>7} {'bound':>5}")
    for workload in workloads:
        entry = record["workloads"].setdefault(workload, {"metrics": {}, "runs": runs[workload]})
        for name, spec in metrics.items():
            sets = []
            for set_index in range(args.sets):
                values = [r["metrics"][name] for r in runs[workload] if r["set"] == set_index]
                sets.append(summarize(values))
            for set_index, later in enumerate(sets[1:], start=1):
                later["shift"] = later["median"] / sets[0]["median"] - 1
                if abs(later["shift"]) > spec["bound"]:
                    problems.append(f"{workload} {name}: set {set_index} median shift "
                                    f"{later['shift']:+.3f} exceeds bound {spec['bound']}")
            for set_index, s in enumerate(sets):
                if s["spread"] > spec["bound"]:
                    problems.append(f"{workload} {name}: set {set_index} spread "
                                    f"{s['spread']:.3f} exceeds bound {spec['bound']}")
            entry["metrics"][name] = {"bound": spec["bound"], "sets": sets}
            for set_index, s in enumerate(sets):
                shift = f"{s['shift']:+.3f}" if "shift" in s else ""
                print(f"{workload:8} {name:15} {set_index:>3} {s['median']:>12.6g} "
                      f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>7.3f} {shift:>7} "
                      f"{spec['bound']:>5}")
    record["problems"] = problems
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print()
    for problem in problems:
        print(f"NOT steady: {problem}")
    print("NOT steady within bounds" if problems else "steady within bounds")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
