#!/usr/bin/env bash
# Tier-1 verification + strict-warnings build + docs checks, exactly what
# CI runs.
#
#   $ scripts/ci.sh            # from the repo root
#   $ scripts/ci.sh --fast     # skip the slow analysis extras (clang-tidy
#                              # and the fuzz-corpus replay build)
#
# 0. Static analysis: bcfl-lint self-check + full-tree pass (always);
#    clang-tidy via scripts/run_tidy.sh, an ASan+UBSan fuzz-corpus
#    replay of fuzz/corpus/, and a clang -Wthread-safety=error build of
#    the whole tree (BCFL_THREAD_SAFETY=ON — the capability annotations
#    in src/common/thread_annotations.hpp). All three skipped under
#    --fast; run_tidy.sh self-skips when clang-tidy is not installed
#    unless BCFL_TIDY_STRICT=1 (CI sets it), and the thread-safety build
#    self-skips without clang++ (its CI job always has clang).
# 1. Docs: markdown links resolve, every factory policy spec, scenario
#    key and lint rule is documented.
# 2. Default configure, full build, then ctest twice: once with the
#    parallel engine pinned serial (BCFL_THREADS=1) and once at the default
#    width — the suite must be green in both worlds.
# 3. Parallel determinism: the micro_substrates serial-vs-parallel bench
#    runs under both thread settings; the fitness fingerprints in
#    BENCH_micro_substrates.json must be byte-identical.
# 4. Scenario smoke: the checked-in ci_smoke spec (flat) and the
#    hierarchical_ci_smoke spec (flat-vs-clustered sweep) run end-to-end
#    at BCFL_THREADS=1 and 8 — each pair of JSON documents must be
#    byte-identical (the scenario engine's determinism contract).
# 4a. Soak smoke: scenarios/soak_smoke.json (flat) and
#    scenarios/hierarchical_soak_smoke.json (member, head and top-head
#    roles) run over loopback TCP through bcfl_soak, gated on a completed
#    round per peer, bounded state and identical final digests.
# 4b. Paper specs: the scenarios/paper_*.json ports of the paper's
#    experiments (E1 Table I/Fig. 3 centralized vanilla FL and E2 Tables
#    II-IV/Fig. 4, each for both models, E5b contention, E7 poisoning, E8
#    staleness, the E4 trade-off) run once each so the baseline gate can
#    check them; the E4 EffNet sweep (21.2 MB payloads, minutes) runs only
#    without --fast.
# 5. Chain parity: the chain bench runs whole (its long-chain and
#    peers-axis scaling sections, no environment knob) so their counts and
#    digests can be gated against the baseline.
# 6. Analyzer parity: the vm_analysis bench section runs so its verdict
#    table, analysis-cache hit counts and registry block-table digest can
#    be gated against the baseline.
# 7. Bench-baseline gate: scripts/bench_compare.py diffs the fresh
#    BENCH_*.json against bench/baselines/ and fails on any
#    accuracy/fitness regression, simulated round-time (mean_round_s)
#    increase, or chain/analyzer-parity mismatch.
# 8. A second configure with -Wall -Wextra -Werror to keep the tree
#    warning-clean.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "ci.sh: unknown argument '$arg' (supported: --fast)" >&2; exit 2 ;;
  esac
done

echo "== docs: links + policy-spec + scenario-key + lint-rule coverage =="
scripts/check_docs.sh

echo "== lint: bcfl-lint self-check + full tree =="
python3 scripts/bcfl_lint.py --self-check
python3 scripts/bcfl_lint.py

if [ "${FAST}" -eq 1 ]; then
  echo "== tidy + fuzz replay + thread-safety: skipped (--fast) =="
else
  echo "== tidy: curated clang-tidy set over all first-party TUs =="
  scripts/run_tidy.sh

  echo "== fuzz replay: checked-in corpora under ASan+UBSan =="
  cmake -B build-fuzz -S . -DBCFL_FUZZ=ON -DBCFL_ASAN=ON \
    -DBCFL_BUILD_TESTS=OFF -DBCFL_BUILD_BENCHES=OFF -DBCFL_BUILD_EXAMPLES=OFF
  cmake --build build-fuzz -j "${JOBS}"
  # One replay per fuzz/fuzz_*.cpp harness, so a new one cannot be left
  # out of the list.
  for src in fuzz/fuzz_*.cpp; do
    target=$(basename "${src}" .cpp)
    target=${target#fuzz_}
    ./build-fuzz/fuzz/fuzz_${target} fuzz/corpus/${target}/*
  done

  echo "== thread-safety: clang -Wthread-safety as errors =="
  # The BCFL_* capability annotations are checkable by clang only; on a
  # gcc-only box this is skipped (the dedicated CI job always has clang).
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-threadsafety -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DBCFL_THREAD_SAFETY=ON -DBCFL_WERROR=ON
    cmake --build build-threadsafety -j "${JOBS}"
  else
    echo "thread-safety: clang++ not found; skipping (CI runs it)"
  fi
fi

echo "== tier-1: configure + build =="
cmake -B build -S . -DBCFL_BUILD_BENCHES=ON
cmake --build build -j "${JOBS}"

echo "== tier-1: ctest (BCFL_THREADS=1, serial engine) =="
BCFL_THREADS=1 ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== tier-1: ctest (default engine width) =="
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== parallel determinism: bench fitness fingerprint, 1 vs 8 threads =="
fingerprint() {
  # `|| true`: a missing file/field must reach the empty-fingerprint check
  # below (with its diagnostic), not silently kill the script via set -e.
  grep -o '"fitness_fingerprint":"[^"]*"' build/BENCH_micro_substrates.json \
    2>/dev/null || true
}
(cd build && BCFL_THREADS=1 ./bench/micro_substrates \
  --benchmark_filter=AggregationSerialVsParallel >/dev/null)
serial_fp="$(fingerprint)"
(cd build && BCFL_THREADS=8 ./bench/micro_substrates \
  --benchmark_filter=AggregationSerialVsParallel >/dev/null)
parallel_fp="$(fingerprint)"
if [ "${serial_fp}" != "${parallel_fp}" ] || [ -z "${serial_fp}" ]; then
  echo "FITNESS DIVERGENCE between BCFL_THREADS=1 and BCFL_THREADS=8:"
  echo "  1: ${serial_fp}"
  echo "  8: ${parallel_fp}"
  exit 1
fi
echo "fingerprints identical: ${serial_fp}"

echo "== scenario smoke: ci_smoke spec, byte-identical at 1 vs 8 threads =="
(cd build && BCFL_THREADS=1 ./examples/bcfl_scenario ../scenarios/ci_smoke.json \
  --out=BENCH_scenario_ci_smoke.threads1.json)
(cd build && BCFL_THREADS=8 ./examples/bcfl_scenario ../scenarios/ci_smoke.json \
  --out=BENCH_scenario_ci_smoke.json >/dev/null)
if ! cmp -s build/BENCH_scenario_ci_smoke.threads1.json \
            build/BENCH_scenario_ci_smoke.json; then
  echo "SCENARIO DIVERGENCE between BCFL_THREADS=1 and BCFL_THREADS=8:"
  diff build/BENCH_scenario_ci_smoke.threads1.json \
       build/BENCH_scenario_ci_smoke.json || true
  exit 1
fi
echo "scenario JSON byte-identical across thread counts"

echo "== scenario smoke: hierarchical spec, byte-identical at 1 vs 8 threads =="
(cd build && BCFL_THREADS=1 ./examples/bcfl_scenario \
  ../scenarios/hierarchical_ci_smoke.json \
  --out=BENCH_scenario_hierarchical_ci_smoke.threads1.json)
(cd build && BCFL_THREADS=8 ./examples/bcfl_scenario \
  ../scenarios/hierarchical_ci_smoke.json \
  --out=BENCH_scenario_hierarchical_ci_smoke.json >/dev/null)
if ! cmp -s build/BENCH_scenario_hierarchical_ci_smoke.threads1.json \
            build/BENCH_scenario_hierarchical_ci_smoke.json; then
  echo "HIERARCHICAL SCENARIO DIVERGENCE between BCFL_THREADS=1 and 8:"
  diff build/BENCH_scenario_hierarchical_ci_smoke.threads1.json \
       build/BENCH_scenario_hierarchical_ci_smoke.json || true
  exit 1
fi
echo "hierarchical scenario JSON byte-identical across thread counts"

echo "== soak smoke: whole deployments over loopback TCP =="
for spec in soak_smoke hierarchical_soak_smoke; do
  timeout 120 build/examples/bcfl_soak "scenarios/${spec}.json" \
    --require-consensus --min-rounds=1 --max-seconds=90
done

echo "== paper specs: the paper's experiments as gated scenario documents =="
paper_specs=(paper_vanilla_simple paper_vanilla_effnet
  paper_decentralized_simple paper_decentralized_effnet
  paper_contention paper_poisoning paper_staleness paper_tradeoff)
if [ "${FAST}" -eq 0 ]; then
  paper_specs+=(paper_tradeoff_effnet)
fi
paper_docs=()
for spec in "${paper_specs[@]}"; do
  (cd build && ./examples/bcfl_scenario "../scenarios/${spec}.json" \
    --out="BENCH_scenario_${spec}.json" >/dev/null)
  paper_docs+=("build/BENCH_scenario_${spec}.json")
done

echo "== chain parity: deterministic long-chain + peers-axis scaling sections =="
(cd build && ./bench/chain_performance >/dev/null)

echo "== analyzer parity: verdicts, cache hits, registry block-table digest =="
(cd build && ./bench/micro_substrates --benchmark_filter=VmAnalysis >/dev/null)

echo "== bench-baseline gate: fresh JSON vs bench/baselines =="
python3 scripts/bench_compare.py build/BENCH_micro_substrates.json \
  build/BENCH_scenario_ci_smoke.json \
  build/BENCH_scenario_hierarchical_ci_smoke.json \
  "${paper_docs[@]}" \
  build/BENCH_chain_performance.json \
  build/BENCH_vm_analysis.json

echo "== strict: -Wall -Wextra -Werror build =="
cmake -B build-werror -S . -DBCFL_WERROR=ON
cmake --build build-werror -j "${JOBS}"

echo "ci.sh: all green"
