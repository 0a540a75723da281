// Shared formatting helpers for the table/figure reproduction benches.
// BENCH_*.json documents are built with the library's ordered JSON type
// (core::JsonValue — also the scenario engine's spec/output format), so
// every machine-readable artifact in the repo goes through one writer.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "core/scenario.hpp"

namespace bcfl::bench {

/// Insertion-ordered JSON value (objects keep member order, like the
/// tables they mirror). Alias of the scenario engine's document type.
using Json = core::JsonValue;

/// Milliseconds elapsed since `begin` (steady clock).
inline double ms_since(std::chrono::steady_clock::time_point begin) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

/// Best-of-`reps` wall time of `fn`, in milliseconds — the serial-vs-
/// parallel speedup measurements all quote this.
inline double best_wall_ms(std::size_t reps,
                           const std::function<void()>& fn) {
    double best = 1e300;
    for (std::size_t r = 0; r < reps; ++r) {
        const auto begin = std::chrono::steady_clock::now();
        fn();
        const double ms = ms_since(begin);
        if (ms < best) best = ms;
    }
    return best;
}

/// The scenario engine's fingerprint formatter (%.17g), so bench and
/// scenario fingerprints that ci.sh diffs across BCFL_THREADS settings are
/// spelled the same way.
using core::append_fingerprint;

inline void print_rule(std::size_t width = 100) {
    std::string line(width, '-');
    std::printf("%s\n", line.c_str());
}

inline void print_title(const std::string& title) {
    std::printf("\n");
    print_rule();
    std::printf("%s\n", title.c_str());
    print_rule();
}

/// Writes `json` to BENCH_<name>.json in the working directory through the
/// library's checked writer and echoes the path. Any I/O failure throws, so
/// the bench exits non-zero instead of leaving a stale file for the gate.
inline void write_bench_json(const std::string& name, const Json& json) {
    const std::string path = "BENCH_" + name + ".json";
    core::write_scenario_json(path, json);
    std::printf("\n[bench json] wrote %s\n", path.c_str());
}

}  // namespace bcfl::bench
