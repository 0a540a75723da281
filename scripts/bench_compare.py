#!/usr/bin/env python3
"""Gate freshly produced BENCH_*.json against checked-in baselines.

    $ scripts/bench_compare.py build/BENCH_micro_substrates.json ...
    $ scripts/bench_compare.py            # scans . and build/ for BENCH_*.json

For every fresh file with a matching baseline in bench/baselines/, the two
JSON trees are walked in parallel and every leaf whose key matches a
*gated* pattern is compared. Two gate kinds:

* tolerance — numeric leaves whose path mentions accuracy / fitness (the
  precision half of the paper's claim): the build FAILS if the fresh
  value regresses below baseline - max(atol, rtol*|baseline|). Leaves
  named mean_round_s (the speed half; simulated seconds, deterministic,
  carried only by scenario documents) gate the same way with the
  direction flipped: a rise past baseline + slack FAILS. Improvements
  are reported and pass.
* exact — any leaf (numeric or string) whose path mentions "parity":
  deterministic counts and ordering digests (e.g. the chain bench's
  canonical-tx digest) that must match the baseline byte-for-byte in
  either direction. These pin seeded behaviour, not performance.

Timing/throughput fields (wall-clock, speedups, hardware counts) vary by
runner and are reported informationally but never gate; fingerprint
strings are compiler-specific and skipped.

A baseline key missing from the fresh document is a failure too: silently
dropping a tracked metric is how regressions hide. Fresh files without a
baseline are listed so adding one is a conscious choice.

Exit codes: 0 clean, 1 regression or structural problem, 2 usage error.
"""

import argparse
import glob
import json
import os
import sys

GATED_SUBSTRINGS = ("accuracy", "fitness")
LOWER_IS_BETTER_LEAVES = ("mean_round_s",)
EXACT_SUBSTRINGS = ("parity",)
SKIPPED_SUBSTRINGS = (
    "fingerprint",   # %.17g strings, compiler-specific in the last ulps
    "_ms",           # wall-clock
    "speedup",       # wall-clock ratio
    "hardware",      # runner shape
    "threads",       # runner shape
)


def gate_kind(path: str):
    """Returns "exact", "higher" or "lower" (tolerance-gated, in the
    direction that is better), or None for a leaf path."""
    lowered = path.lower()
    if any(s in lowered for s in SKIPPED_SUBSTRINGS):
        return None
    if any(s in lowered for s in EXACT_SUBSTRINGS):
        return "exact"
    if any(s in lowered for s in GATED_SUBSTRINGS):
        return "higher"
    if lowered.rsplit(".", 1)[-1] in LOWER_IS_BETTER_LEAVES:
        return "lower"
    return None


def leaves(node, prefix=""):
    """Yields (path, value) for every numeric or string leaf, depth-first
    in document order, so reports read like the file."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from leaves(value, f"{prefix}[{index}]")
    elif isinstance(node, bool):
        return
    elif isinstance(node, (int, float)):
        yield prefix, float(node)
    elif isinstance(node, str):
        yield prefix, node


def fmt(value) -> str:
    if isinstance(value, str):
        return value if len(value) <= 10 else value[:7] + "..."
    return f"{value:.4f}"


def compare_file(fresh_path, baseline_path, rtol, atol):
    with open(fresh_path) as fh:
        fresh = json.load(fh)
    with open(baseline_path) as fh:
        baseline = json.load(fh)

    fresh_leaves = dict(leaves(fresh))
    rows = []
    failures = []
    for path, base_value in leaves(baseline):
        kind = gate_kind(path)
        if kind is None:
            continue
        if kind != "exact" and isinstance(base_value, str):
            continue  # tolerance gating is numeric-only
        fresh_value = fresh_leaves.get(path)
        if fresh_value is None:
            failures.append(f"{path}: present in baseline, missing from fresh run")
            continue
        if kind == "exact":
            # Deterministic counts / ordering digests: byte-equality, both
            # directions — any drift means seeded behaviour changed.
            if type(fresh_value) is not type(base_value) or fresh_value != base_value:
                status = "MISMATCH"
                failures.append(
                    f"{path}: exact-gated, baseline {base_value!r} != fresh "
                    f"{fresh_value!r}"
                )
            else:
                status = "ok"
            rows.append((path, base_value, fresh_value, 0.0, status))
            continue
        if isinstance(fresh_value, str):
            failures.append(
                f"{path}: baseline is numeric but fresh run emitted a "
                f"string ({fresh_value!r})"
            )
            continue
        slack = max(atol, rtol * abs(base_value))
        delta = fresh_value - base_value
        gain = delta if kind == "higher" else -delta
        if gain < -slack:
            status = "REGRESSION"
            failures.append(
                f"{path}: {base_value:.6g} -> {fresh_value:.6g} "
                f"(allowed slack {slack:.3g})"
            )
        elif gain > slack:
            status = "improved"
        else:
            status = "ok"
        rows.append((path, base_value, fresh_value, delta, status))
    return rows, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="fresh BENCH_*.json files")
    parser.add_argument("--baselines", default=None,
                        help="baseline directory [bench/baselines next to this script]")
    parser.add_argument("--rtol", type=float, default=0.05,
                        help="relative tolerance on gated metrics [0.05]")
    parser.add_argument("--atol", type=float, default=0.02,
                        help="absolute tolerance floor [0.02] — sized so "
                             "cross-compiler FP noise on the small smoke "
                             "datasets cannot flake the gate")
    args = parser.parse_args()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    baselines = args.baselines or os.path.join(repo, "bench", "baselines")
    if not os.path.isdir(baselines):
        print(f"bench_compare: baseline directory not found: {baselines}")
        return 2

    files = args.files or sorted(
        set(glob.glob("BENCH_*.json") + glob.glob("build/BENCH_*.json"))
    )
    if not files:
        print("bench_compare: no fresh BENCH_*.json files found")
        return 2

    any_failure = False
    compared = 0
    for fresh_path in files:
        name = os.path.basename(fresh_path)
        baseline_path = os.path.join(baselines, name)
        if not os.path.isfile(baseline_path):
            print(f"-- {name}: no baseline checked in, skipping "
                  f"(add {os.path.relpath(baseline_path, repo)} to start gating)")
            continue
        compared += 1
        rows, failures = compare_file(fresh_path, baseline_path, args.rtol, args.atol)
        print(f"== {name} vs {os.path.relpath(baseline_path, repo)} "
              f"({len(rows)} gated metrics) ==")
        print(f"   {'metric':<58} {'baseline':>10} {'fresh':>10} {'delta':>9}  status")
        for path, base_value, fresh_value, delta, status in rows:
            print(f"   {path:<58} {fmt(base_value):>10} {fmt(fresh_value):>10} "
                  f"{delta:>+9.4f}  {status}")
        for failure in failures:
            print(f"   FAIL {failure}")
        if failures:
            any_failure = True

    if compared == 0:
        print("bench_compare: nothing to compare (no fresh file has a baseline)")
        return 1
    if any_failure:
        print("bench_compare: FAILED — precision, round time or parity regressed "
              "against bench/baselines")
        return 1
    print(f"bench_compare: all green ({compared} file(s) within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
