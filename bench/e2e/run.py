#!/usr/bin/env python3
"""End-to-end benchmark: builds bcfl_e2e, runs the workloads, prints metrics.

One command:

  python3 bench/e2e/run.py [--seed N] [--trace] [--out FILE]

builds the driver (a standalone Release CMake project under bench/e2e/,
built into .bench_build/e2e/), runs every workload 3 times, each run in its
own process, and prints per metric the median, min, max and sample
count. --trace adds one traced run per workload and prints the per-layer
metrics; each writes a Chrome trace under .bench_build/e2e/traces/.

One run of one workload, printing a single JSON result as the last line:

  python3 bench/e2e/run.py --workload paper_tradeoff --seed 3 --seconds 10 \\
      --trace 0

A/A or before/after comparison of two --out files:

  python3 bench/e2e/run.py --compare A.json B.json

Workloads, metrics, units, directions and regression bounds come from
BENCHMARK.json at the repository root; the workload specs are
bench/e2e/workloads/<name>.json. Any failed correctness gate in the driver
makes the run exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = ROOT / "bench" / "e2e"
BUILD = ROOT / ".bench_build" / "e2e"
DRIVER = BUILD / "bcfl_e2e"
TRACES = BUILD / "traces"
DRIVER_TIMEOUT_S = 170
FULL_RUN_REPS = 3
# Printed next to the bounded metrics of BENCHMARK.json but not bounded
# there: each is fixed by the seed (round_p50_s on the sim, final_accuracy,
# failed_round_share), so its spread over seeds says nothing about noise.
# At one seed any change is a change of behaviour; --compare judges the
# ones with an absolute bound against it.
REPORTED = [
    {"name": "round_p50_s", "unit": "s", "better": "lower"},
    {"name": "final_accuracy", "unit": "fraction", "better": "higher",
     "abs_bound": 0.005},
    {"name": "failed_round_share", "unit": "fraction", "better": "lower",
     "abs_bound": 0.0},
]


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def build() -> None:
    """Configures (once) and builds the driver; build output goes to stderr
    so stdout keeps only results."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit(
            f"run.py: no bcfl source tree at {ROOT} (CMakeLists.txt and src/ "
            "are required to build the driver)"
        )
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise SystemExit("run.py: cmake configure failed")
    compile_cmd = ["cmake", "--build", str(BUILD), "--target", "bcfl_e2e",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("run.py: build failed")


def run_driver(workload: str, seed: int | None, seconds: float,
               trace: bool) -> dict:
    """Runs one workload in its own process; returns the driver's JSON
    document (its last stdout line)."""
    spec = HERE / "workloads" / f"{workload}.json"
    if not spec.is_file():
        raise SystemExit(f"run.py: unknown workload {workload!r} ({spec})")
    cmd = [str(DRIVER), f"--spec={spec}", f"--seconds={seconds}"]
    if seed is not None:
        cmd.append(f"--seed={seed}")
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        tag = f"{workload}-seed{seed}" if seed is not None else workload
        cmd.append(f"--trace={TRACES / (tag + '.trace.json')}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run.py: {workload} exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(
            f"run.py: driver failed on {workload} (exit {proc.returncode})")
    return json.loads(lines[-1])


def metric_value(doc: dict, name: str, per_layer: bool) -> float:
    if per_layer:
        return float(doc["per_layer"][name]["value"])
    if name in doc["end_to_end"]:
        return float(doc["end_to_end"][name])
    return float(doc[name])  # a REPORTED metric


# --------------------------------------------------------------- one run


def single_run(bench: dict, args: argparse.Namespace) -> int:
    doc = run_driver(args.workload, args.seed, args.seconds, bool(args.trace))
    group = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {
        m["name"]: {"value": metric_value(doc, m["name"], bool(args.trace)),
                    "unit": m["unit"]}
        for m in group
    }
    print(json.dumps({
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": metrics,
    }))
    return 0 if doc["correct"] else 1


# -------------------------------------------------------------- full run


def summarize(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def full_run(bench: dict, args: argparse.Namespace) -> int:
    results = {"seed": args.seed, "run_seconds": args.seconds, "workloads": {}}
    all_correct = True
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for rep in range(FULL_RUN_REPS):
            log(f"== {workload}: run {rep + 1}/{FULL_RUN_REPS}")
            runs.append(run_driver(workload, args.seed, args.seconds, False))
        traced = None
        if args.trace:
            log(f"== {workload}: traced run")
            traced = run_driver(workload, args.seed, args.seconds, True)
        docs = runs + ([traced] if traced else [])
        correct = all(d["correct"] for d in docs)
        all_correct = all_correct and correct
        summary = {
            m["name"]: summarize([metric_value(d, m["name"], False)
                                  for d in runs])
            for m in bench["end_to_end"] + REPORTED
        }
        entry = {"correct": correct, "summary": summary, "runs": runs}
        if traced:
            entry["traced"] = traced
        results["workloads"][workload] = entry
        print_workload(bench, workload, entry)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
        log(f"wrote {args.out}")
    return 0 if all_correct else 1


def print_workload(bench: dict, workload: str, entry: dict) -> None:
    first = entry["runs"][0]
    host = first["host"]
    print(f"\n{workload}  (seed {first['seed']}, data seed "
          f"{first['data_seed']}; nproc {host['nproc']}, "
          f"hardware_concurrency {host['hardware_concurrency']}, engine "
          f"threads {host['engine_threads']}, {host['compiler']})")
    print(f"  correctness gates: {'all pass' if entry['correct'] else 'FAILED'}"
          f"; failed peer-rounds {sum(d['failed'] for d in entry['runs'])}"
          f"/{sum(d['attempted'] for d in entry['runs'])}; round samples "
          f"{first['round_samples']} per run")
    print(f"  {'metric':<22} {'unit':<9} {'median':>12} {'min':>12} "
          f"{'max':>12} {'n':>3}")
    for m in bench["end_to_end"] + REPORTED:
        s = entry["summary"][m["name"]]
        note = "  (reported, not bounded)" if m in REPORTED else ""
        print(f"  {m['name']:<22} {m['unit']:<9} {s['median']:>12.6g} "
              f"{s['min']:>12.6g} {s['max']:>12.6g} {s['n']:>3}{note}")
    ordering = first.get("paper_ordering")
    if ordering and ordering["checked"]:
        chain = " -> ".join(
            f"{p['wait_policy'].split(',')[0]} ({p['mean_round_s']:.1f} s, "
            f"{p['final_accuracy']:.4f})" for p in ordering["points"])
        print(f"  paper ordering (round time and accuracy both fall): "
              f"{'holds' if ordering['holds'] else 'does NOT hold'}: {chain}")
    traced = entry.get("traced")
    if traced:
        samples = traced.get("per_layer_samples", {})
        print(f"  per-layer (traced run; trace {traced['trace_file']})")
        for m in bench["per_layer"]:
            value = traced["per_layer"][m["name"]]["value"]
            n = f"n={samples[m['name']]}" if m["name"] in samples else ""
            print(f"    {m['name']:<28} {m['unit']:<9} {value:>14.6g} {n}")


# ---------------------------------------------------------------- compare


def compare(bench: dict, path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    print(f"{'workload':<16} {'metric':<20} {'A median':>11} {'B median':>11} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    bad = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            print(f"{workload:<16} missing from one side")
            bad += 1
            continue
        for m in bench["end_to_end"] + [r for r in REPORTED if "abs_bound" in r]:
            va = a["workloads"][workload]["summary"][m["name"]]["values"]
            vb = b["workloads"][workload]["summary"][m["name"]]["values"]
            head = (f"{workload:<16} {m['name']:<20} "
                    f"{statistics.median(va):>11.5g} "
                    f"{statistics.median(vb):>11.5g}")
            if "abs_bound" in m:
                verdict, delta = judge_abs(va, vb, m)
                print(f"{head} {delta:>+8.4f} {'-':>7} "
                      f"{m['abs_bound']:>6g}  {verdict} (absolute)")
            else:
                verdict, change, spread = judge(va, vb, m)
                print(f"{head} {change:>+8.2%} {spread:>7.2%} "
                      f"{m['bound']:>6.0%}  {verdict}")
            bad += verdict != "ok"
    return 0 if bad == 0 else 1


def judge_abs(va: list[float], vb: list[float], metric: dict) -> tuple[str, float]:
    """ok / worse for a REPORTED metric: fixed by the seed, so the medians
    are compared against the absolute bound with no spread."""
    delta = statistics.median(vb) - statistics.median(va)
    worse_by = delta if metric["better"] == "lower" else -delta
    return ("worse" if worse_by > metric["abs_bound"] else "ok"), delta


def judge(va: list[float], vb: list[float], metric: dict) -> tuple[str, float, float]:
    """ok / worse / unresolved for B against A. The spread is the larger
    of the two sides' (max - min) / median; past the bound the comparison
    cannot resolve a regression, unless every B run beats every A run."""
    lower_is_better = metric["better"] == "lower"
    med_a, med_b = statistics.median(va), statistics.median(vb)

    def rel(delta: float, base: float) -> float:
        return delta / abs(base) if base else (0.0 if delta == 0 else float("inf"))

    spread = max(rel(max(va) - min(va), med_a), rel(max(vb) - min(vb), med_b))
    change = rel(med_b - med_a, med_a)
    worse_by = change if lower_is_better else -change
    b_always_better = (max(vb) < min(va)) if lower_is_better else (min(vb) > max(va))
    if spread > metric["bound"] and not b_always_better:
        return "unresolved", change, spread
    return ("worse" if worse_by > metric["bound"] else "ok"), change, spread


# ------------------------------------------------------------------- main


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py", description="bcfl end-to-end benchmark")
    parser.add_argument("--workload",
                        help="run one workload once and print one JSON line")
    parser.add_argument("--seed", type=int, default=None,
                        help="replaces both seeds of the workload spec: the "
                        "deployment's (chain, mining, network) and the "
                        "synthetic data's")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics from a traced run")
    parser.add_argument("--out", help="full run: write all results here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    if args.compare:
        return compare(bench, *args.compare)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    build()
    if args.workload:
        return single_run(bench, args)
    return full_run(bench, args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
