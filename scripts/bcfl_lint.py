#!/usr/bin/env python3
"""bcfl-lint: repo-invariant linter for the determinism and serialization
contracts that clang-tidy cannot see.

The repo's central claim is that seeded runs are byte-identical across
compilers, thread counts and reorg schedules. That property is easy to
break with one innocent-looking line — a wall-clock read, an iteration
over an unordered container that leaks into a digest, an unchunked
floating-point reduction. This linter makes those invariants
machine-checked before code runs.

Rules (each can be suppressed on a single line with
`// bcfl-lint: allow(<rule>)` placed on the offending line or the line
directly above it):

  nondeterminism      Forbids wall-clock / entropy / environment reads
                      (`std::random_device`, `time(`, `system_clock`,
                      `steady_clock`, `high_resolution_clock`, `rand(`,
                      `srand(`, `getenv`) outside whitelisted files.
                      Randomness must come from the seeded sim RNG
                      (common/rng.hpp); thread width from core/parallel.

  raw-thread          Forbids spawning `std::thread` / `std::jthread` /
                      `std::async` outside core/parallel. Parallelism
                      must go through the deterministic task group so
                      results stay bit-identical at any BCFL_THREADS.
                      (`std::thread::hardware_concurrency()` and
                      `std::thread::id` are metadata, not spawns, and
                      are allowed.)

  unordered-iteration Forbids range-for iteration over an
                      `unordered_map` / `unordered_set` inside any
                      function that writes to a serialization, JSON or
                      digest sink. Unordered iteration order is
                      implementation-defined; letting it reach bytes
                      that are hashed, gated or diffed silently breaks
                      cross-compiler reproducibility.

  fp-accumulation     Forbids floating-point `+=` reduction loops in the
                      fl/ aggregation files unless the enclosing
                      function routes through the chunked reducers
                      (core::parallel::for_each / run / ordered_map),
                      whose fixed chunk boundaries and index-ordered
                      reduction keep FP results bit-identical at any
                      worker count.

  bench-json          Requires every translation unit that emits a
                      `BENCH_*.json` document to route through
                      `core::JsonValue` (or write_scenario_json). One
                      ordered writer produces every gated document; a
                      hand-rolled `<<`-style writer would fork the
                      escaping/format rules the baselines depend on.

  sim-coupling        Forbids naming the concrete backend types
                      (`net::Simulation`, `net::Network`, `Simulation&`,
                      `Network&`) outside src/net/. Everything above the
                      transport seam speaks net::Transport only — that is
                      what lets the same Node run over the deterministic
                      sim and the TCP backend. Benches/tests that must
                      drive the simulated clock use the SimTransport
                      escape hatches (`transport.sim()`), which bind by
                      auto and never name the concrete types.

  layering            Enforces the architecture include DAG
                      (common → crypto → {chain, ml, fl, vm} → net →
                      node → core, declared as data in LAYER_DAG below):
                      every `#include "..."` in src/ may only reach its
                      own layer or a layer beneath it. Generalizes
                      sim-coupling from one seam to the whole tree —
                      upward includes are how layer boundaries rot.
                      core/parallel.hpp is the one sanctioned universal
                      leaf (std-only header, see docs/architecture.md).

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage
errors. `--self-check` runs the linter over tests/lint_fixtures and
asserts every known-bad snippet fails with exactly its rule, every
known-good snippet passes, and the allow-escape suppresses exactly one
rule.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

# --------------------------------------------------------------------------
# Shared machinery
# --------------------------------------------------------------------------

RULE_NAMES = (
    "nondeterminism",
    "raw-thread",
    "unordered-iteration",
    "fp-accumulation",
    "bench-json",
    "sim-coupling",
    "layering",
)

# Per-file rule exemptions, keyed by repo-relative path. These are the
# *implementations* of the invariants (the parallel engine owns getenv and
# thread spawning) and the wall-clock timing that benches record in fields
# the baselines never gate on.
WHITELIST = {
    "src/core/parallel.cpp": {"nondeterminism", "raw-thread"},
    "bench/bench_util.hpp": {"nondeterminism"},
    "bench/chain_performance.cpp": {"nondeterminism"},
    # The wall-clock transport backend IS the nondeterminism boundary: it
    # owns the steady clock that the deterministic rules exist to keep out
    # of everything else. Its one loop thread per node is NOT
    # blanket-exempted: each std::thread line carries its own
    # `allow(raw-thread)` so an accidental spawn elsewhere in these files
    # still fires.
    "src/net/tcp_transport.hpp": {"nondeterminism"},
    "src/net/tcp_transport.cpp": {"nondeterminism"},
    # Tests the sim/network layer itself, so it names the concrete types.
    "tests/net_test.cpp": {"sim-coupling"},
}

ALLOW_RE = re.compile(r"//\s*bcfl-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

SOURCE_DIRS = ("src", "bench", "examples", "tests", "fuzz")
SOURCE_EXTS = (".cpp", ".hpp", ".h", ".cc", ".hh")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed_rules_for_line(lines: list[str], idx: int) -> set[str]:
    """Rules suppressed at line index `idx` (0-based): an allow comment on
    the line itself or on the line directly above."""
    out: set[str] = set()
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = ALLOW_RE.search(lines[probe])
            if m:
                out.update(r.strip() for r in m.group(1).split(","))
    return out


def strip_strings_and_comments(line: str) -> str:
    """Removes string/char literal contents and // comments so patterns in
    message text ("use system_clock here") don't trip the rules. Keeps the
    line length stable where practical (content replaced, quotes kept)."""
    out = []
    i, n = 0, len(line)
    in_str: str | None = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
                out.append(c)
            i += 1
            continue
        if c in ('"', "'"):
            in_str = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest is comment
        out.append(c)
        i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Function-granular helpers (heuristic, line-based)
# --------------------------------------------------------------------------


@dataclass
class FunctionBody:
    start: int  # 0-based line index of the opening line
    end: int  # 0-based inclusive index of the closing line
    text: str


SCOPE_KEYWORD_RE = re.compile(r"\b(namespace|class|struct|union|enum)\b")


def find_function_bodies(lines: list[str]) -> list[FunctionBody]:
    """Splits a C++ file into function bodies. This is a heuristic (no
    preprocessor, no raw strings), good enough for the repo's
    clang-format-shaped code. Braces are scanned character by character;
    a brace whose header statement mentions namespace/class/struct/... is
    a *transparent* scope we descend through, a brace whose header
    contains `(` starts a function body (tracked to its matching close),
    and everything nested inside a body belongs to that body."""
    cleaned = [strip_strings_and_comments(raw) for raw in lines]
    bodies: list[FunctionBody] = []
    stack: list[str] = []  # 'body' | 'other' per open brace
    header: list[str] = []  # accumulated statement text since last ; } {
    body_start = -1
    for i, line in enumerate(cleaned):
        for c in line:
            if c == "{":
                text = "".join(header)
                header = []
                if "body" in stack:
                    stack.append("other")  # nested scope inside a body
                elif "(" in text and not SCOPE_KEYWORD_RE.search(text):
                    stack.append("body")
                    body_start = i
                else:
                    stack.append("other")
            elif c == "}":
                if stack:
                    kind = stack.pop()
                    if kind == "body" and "body" not in stack:
                        bodies.append(
                            FunctionBody(
                                start=body_start,
                                end=i,
                                text="\n".join(lines[body_start : i + 1]),
                            )
                        )
                        body_start = -1
                header = []
            elif c == ";":
                if "body" not in stack:
                    header = []
            else:
                header.append(c)
        header.append("\n")
    return bodies


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

NONDET_PATTERNS = (
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
    (re.compile(r"\bsteady_clock\b"), "steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"), "high_resolution_clock"),
    (re.compile(r"\btime\s*\("), "time("),
    (re.compile(r"\bsrand\s*\("), "srand("),
    (re.compile(r"\brand\s*\("), "rand("),
    (re.compile(r"\bgetenv\s*\("), "getenv("),
)


def rule_nondeterminism(path: str, lines: list[str]) -> list[Finding]:
    findings = []
    for i, raw in enumerate(lines):
        line = strip_strings_and_comments(raw)
        for pattern, label in NONDET_PATTERNS:
            if pattern.search(line):
                findings.append(
                    Finding(
                        path,
                        i + 1,
                        "nondeterminism",
                        f"{label} is a nondeterminism source; use the seeded "
                        "sim RNG (common/rng.hpp) or route through "
                        "core/parallel",
                    )
                )
    return findings


RAW_THREAD_RE = re.compile(r"std::j?thread\b(?!::)|\bstd::async\s*[(<]")


def rule_raw_thread(path: str, lines: list[str]) -> list[Finding]:
    findings = []
    for i, raw in enumerate(lines):
        line = strip_strings_and_comments(raw)
        if RAW_THREAD_RE.search(line):
            findings.append(
                Finding(
                    path,
                    i + 1,
                    "raw-thread",
                    "raw std::thread/std::async outside core/parallel; use "
                    "core::parallel::run/for_each so results stay "
                    "bit-identical at any BCFL_THREADS",
                )
            )
    return findings


SINK_RE = re.compile(
    r"JsonValue|write_scenario_json|\bdump\s*\(|\bserialize\w*\s*\("
    r"|keccak256|sha256\s*\(|\bdigest\w*\s*\(|ofstream|\bfwrite\s*\("
    r"|\bfprintf\s*\("
)
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]{0,400}?>\s*\n?\s*&?\s*(\w+)\s*[;={(,)]",
    re.S,
)
RANGE_FOR_RE = re.compile(r"for\s*\([^;()]*?(?<!:):(?!:)\s*([^)]+)\)")


def rule_unordered_iteration(path: str, lines: list[str]) -> list[Finding]:
    text = "\n".join(strip_strings_and_comments(l) for l in lines)
    unordered_vars = set(UNORDERED_DECL_RE.findall(text))
    findings = []
    for body in find_function_bodies(lines):
        clean = "\n".join(
            strip_strings_and_comments(l)
            for l in lines[body.start : body.end + 1]
        )
        if not SINK_RE.search(clean):
            continue
        for i in range(body.start, body.end + 1):
            line = strip_strings_and_comments(lines[i])
            m = RANGE_FOR_RE.search(line)
            if not m:
                continue
            iterated = m.group(1).strip()
            root = re.split(r"[.\->\[(]", iterated, maxsplit=1)[0].strip()
            if "unordered" in iterated or root in unordered_vars:
                findings.append(
                    Finding(
                        path,
                        i + 1,
                        "unordered-iteration",
                        f"iterating '{iterated}' (unordered container) in a "
                        "function that feeds a serialization/JSON/digest "
                        "sink; iteration order is implementation-defined — "
                        "copy into a sorted/ordered container first",
                    )
                )
    return findings


FP_SCOPE_RE = re.compile(r"^src/fl/[^/]+\.(cpp|hpp)$|^src/core/policy\.cpp$")
FP_ACC_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)\s*[={]")
PARALLEL_REDUCER_RE = re.compile(
    r"parallel::(?:for_each|run|ordered_map)\s*[(<]"
)
FOR_RE = re.compile(r"\bfor\s*\(")


def rule_fp_accumulation(path: str, lines: list[str]) -> list[Finding]:
    findings = []
    for body in find_function_bodies(lines):
        clean_lines = [
            strip_strings_and_comments(l)
            for l in lines[body.start : body.end + 1]
        ]
        clean = "\n".join(clean_lines)
        if PARALLEL_REDUCER_RE.search(clean):
            continue  # routed through the chunked reducers
        fp_vars = set(FP_ACC_DECL_RE.findall(clean))
        if not fp_vars:
            continue
        # Track for-loop nesting per line: a `+=` on an FP accumulator
        # inside any for loop is a serial reduction.
        depth = 0
        loop_stack: list[int] = []
        for offset, line in enumerate(clean_lines):
            if FOR_RE.search(line):
                loop_stack.append(depth)
            depth += line.count("{") - line.count("}")
            while loop_stack and depth <= loop_stack[-1]:
                loop_stack.pop()
            if not loop_stack:
                continue
            m = re.search(r"\b(\w+)\s*\+=", line)
            if m and m.group(1) in fp_vars:
                findings.append(
                    Finding(
                        path,
                        body.start + offset + 1,
                        "fp-accumulation",
                        f"floating-point accumulation '{m.group(1)} +=' in a "
                        "loop bypasses the chunked reducers; route through "
                        "core::parallel (fixed chunk boundaries keep FP "
                        "results bit-identical at any worker count)",
                    )
                )
    return findings


SIM_COUPLING_PATTERNS = (
    (re.compile(r"\bnet::Simulation\b"), "net::Simulation"),
    (re.compile(r"\bnet::Network\b"), "net::Network"),
    (re.compile(r"\bSimulation\s*&"), "Simulation&"),
    (re.compile(r"\bNetwork\s*&"), "Network&"),
)


def rule_sim_coupling(path: str, lines: list[str]) -> list[Finding]:
    findings = []
    for i, raw in enumerate(lines):
        line = strip_strings_and_comments(raw)
        for pattern, label in SIM_COUPLING_PATTERNS:
            if pattern.search(line):
                findings.append(
                    Finding(
                        path,
                        i + 1,
                        "sim-coupling",
                        f"{label} named outside src/net/; code above the "
                        "transport seam speaks net::Transport only (clock "
                        "access for benches/tests: SimTransport's "
                        "transport.sim() escape hatch)",
                    )
                )
    return findings


_MID_DEPS = frozenset({"common", "crypto", "rlp", "chain", "ml", "vm", "fl"})

# The architecture DAG, declared as data: each src/ layer maps to the set
# of layers it may #include (its own layer is always allowed). Reading
# bottom-up: common → crypto/rlp → {chain, ml, fl, vm} → net → node →
# core. Within the middle rank, vm builds on chain and fl on chain+ml.
# node/ (chain + mempool + miner over a transport) sits below core/: the
# peer, experiment and audit layers drive a node, and a node knows
# nothing of federated rounds. (docs/development.md renders the diagram.)
LAYER_DAG = {
    "common": frozenset(),
    "crypto": frozenset({"common"}),
    "rlp": frozenset({"common"}),
    "chain": frozenset({"common", "crypto", "rlp"}),
    "ml": frozenset({"common", "crypto", "rlp"}),
    "vm": frozenset({"common", "crypto", "rlp", "chain"}),
    "fl": frozenset({"common", "crypto", "rlp", "chain", "ml"}),
    "net": _MID_DEPS,
    "node": _MID_DEPS | {"net"},
    "core": _MID_DEPS | {"net", "node"},
}

# Headers any layer may include regardless of the DAG. core/parallel.hpp
# is a std-only leaf (the deterministic thread-width contract) that the
# fl/ reducers must name; see docs/architecture.md#parallelism-model.
LAYERING_LEAF_HEADERS = frozenset({"core/parallel.hpp"})

QUOTED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def rule_layering(path: str, lines: list[str]) -> list[Finding]:
    parts = path.split("/")
    if len(parts) < 3 or parts[0] != "src" or parts[1] not in LAYER_DAG:
        return []
    layer = parts[1]
    allowed = LAYER_DAG[layer]
    findings = []
    for i, raw in enumerate(lines):
        m = QUOTED_INCLUDE_RE.match(raw)
        if not m:
            continue
        target = m.group(1)
        if target in LAYERING_LEAF_HEADERS:
            continue
        target_layer = target.split("/", 1)[0]
        if target_layer not in LAYER_DAG:
            continue  # not a layer-rooted include (local/system header)
        if target_layer == layer or target_layer in allowed:
            continue
        findings.append(
            Finding(
                path,
                i + 1,
                "layering",
                f'#include "{target}" reaches up from layer {layer}/ to '
                f"{target_layer}/, against the architecture DAG "
                f"(common → crypto → {{chain, ml, fl, vm}} → net → node "
                f"→ core); {layer}/ may include only: "
                + ", ".join(sorted(allowed) + [layer]),
            )
        )
    return findings


BENCH_EMIT_RE = re.compile(r"\"BENCH_[A-Za-z0-9_.]*")
JSONVALUE_RE = re.compile(r"\bJsonValue\b|\bwrite_scenario_json\b")


def rule_bench_json(path: str, lines: list[str]) -> list[Finding]:
    emit_line = -1
    uses_jsonvalue = False
    for i, raw in enumerate(lines):
        if BENCH_EMIT_RE.search(raw) and emit_line < 0:
            emit_line = i
        if JSONVALUE_RE.search(strip_strings_and_comments(raw)):
            uses_jsonvalue = True
    if emit_line >= 0 and not uses_jsonvalue:
        if allowed_rules_for_line(lines, emit_line) & {"bench-json"}:
            return []
        return [
            Finding(
                path,
                emit_line + 1,
                "bench-json",
                "this file emits a BENCH_*.json document without routing "
                "through core::JsonValue; the baselines gate on the one "
                "ordered writer's byte-exact format",
            )
        ]
    return []


# --------------------------------------------------------------------------
# Rule scoping: which rule applies to which repo-relative path
# --------------------------------------------------------------------------


def rules_for(path: str):
    """Yields (rule_name, rule_fn) pairs that apply to `path` (repo-relative,
    forward slashes)."""
    top = path.split("/", 1)[0]
    if top in ("src", "bench", "examples", "tests", "fuzz"):
        yield "nondeterminism", rule_nondeterminism
    if top in ("src", "bench", "examples", "fuzz") and not path.startswith(
        "src/core/parallel"
    ):
        yield "raw-thread", rule_raw_thread
    if top == "src":
        yield "unordered-iteration", rule_unordered_iteration
    if FP_SCOPE_RE.match(path):
        yield "fp-accumulation", rule_fp_accumulation
    if top in ("src", "bench", "examples"):
        yield "bench-json", rule_bench_json
    if top in ("src", "bench", "examples", "tests", "fuzz") and not path.startswith(
        "src/net/"
    ):
        yield "sim-coupling", rule_sim_coupling
    if top == "src":
        yield "layering", rule_layering


def lint_file(root: str, rel_path: str) -> list[Finding]:
    with open(os.path.join(root, rel_path), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    findings: list[Finding] = []
    whitelisted = WHITELIST.get(rel_path, set())
    for rule_name, rule_fn in rules_for(rel_path):
        if rule_name in whitelisted:
            continue
        for finding in rule_fn(rel_path, lines):
            if finding.rule in allowed_rules_for_line(lines, finding.line - 1):
                continue
            findings.append(finding)
    return findings


def collect_files(root: str) -> list[str]:
    out = []
    for top in SOURCE_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [
                d for d in dirnames if d not in ("lint_fixtures", "corpus")
            ]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    out.append(rel.replace(os.sep, "/"))
    return sorted(out)


def lint_tree(root: str) -> list[Finding]:
    findings: list[Finding] = []
    for rel in collect_files(root):
        findings.extend(lint_file(root, rel))
    return findings


# --------------------------------------------------------------------------
# Self-check: fixtures under tests/lint_fixtures mirror the rule scoping
# (e.g. an fp-accumulation fixture lives in src/fl/). Naming contract:
#   bad_<rule>*.cpp    must produce >= 1 finding, all of rule <rule>
#   good_*.cpp         must produce no findings
#   allow_<rule>*.cpp  contains the bad pattern plus an allow comment and
#                      must produce no findings
# --------------------------------------------------------------------------


def self_check(fixtures_root: str) -> int:
    failures = []
    checked = 0
    seen_rules: set[str] = set()
    for rel in collect_files(fixtures_root):
        name = os.path.basename(rel)
        findings = lint_file(fixtures_root, rel)
        rules_hit = {f.rule for f in findings}
        checked += 1
        m = re.match(r"(bad|allow)_([a-z0-9]+(?:_[a-z0-9]+)*?)(?:_\d+)?\.", name)
        if m:
            kind = m.group(1)
            rule = m.group(2).replace("_", "-")
            if rule not in RULE_NAMES:
                failures.append(f"{rel}: fixture names unknown rule '{rule}'")
                continue
            seen_rules.add(rule)
            if kind == "bad":
                if not findings:
                    failures.append(
                        f"{rel}: expected >= 1 [{rule}] finding, got none"
                    )
                elif rules_hit != {rule}:
                    failures.append(
                        f"{rel}: expected only [{rule}] findings, "
                        f"got {sorted(rules_hit)}"
                    )
            else:  # allow
                if findings:
                    failures.append(
                        f"{rel}: allow comment failed to suppress: "
                        + "; ".join(f.render() for f in findings)
                    )
        elif name.startswith("good_"):
            if findings:
                failures.append(
                    f"{rel}: expected clean, got: "
                    + "; ".join(f.render() for f in findings)
                )
        else:
            failures.append(
                f"{rel}: fixture name must start with bad_/good_/allow_"
            )
    missing = set(RULE_NAMES) - seen_rules
    if missing:
        failures.append(
            "no bad_/allow_ fixture exercises rule(s): " + ", ".join(sorted(missing))
        )
    if failures:
        print(f"bcfl_lint self-check: {len(failures)} failure(s) "
              f"across {checked} fixtures")
        for failure in failures:
            print("  " + failure)
        return 1
    print(f"bcfl_lint self-check: {checked} fixtures behaved as declared, "
          f"all {len(RULE_NAMES)} rules exercised")
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bcfl_lint.py",
        description="Repo-invariant linter for determinism and "
        "serialization contracts.",
    )
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repo root to lint (default: the checkout containing this script)",
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="lint tests/lint_fixtures and assert each fixture's declared "
        "outcome instead of linting the tree",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule names and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULE_NAMES:
            print(rule)
        return 0

    if args.self_check:
        fixtures = os.path.join(args.root, "tests", "lint_fixtures")
        if not os.path.isdir(fixtures):
            print(f"bcfl_lint: fixtures directory not found: {fixtures}")
            return 2
        return self_check(fixtures)

    findings = lint_tree(args.root)
    if findings:
        print(f"bcfl_lint: {len(findings)} finding(s)")
        for finding in findings:
            print("  " + finding.render())
        return 1
    print(f"bcfl_lint: clean ({len(collect_files(args.root))} files, "
          f"{len(RULE_NAMES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
