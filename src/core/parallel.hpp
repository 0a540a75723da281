// Deterministic parallel compute engine for the aggregation hot path.
//
// A small task-group utility that fans independent, index-addressed tasks
// out over a bounded set of worker threads and joins before returning, so
// parallelism stays *inside* one simulation event: the discrete-event loop,
// chain state and policy callbacks never observe a thread. Determinism is
// the contract, not an accident:
//
//   * results are slotted by task index (ordered reduction happens in index
//     order on the calling thread, never in completion order),
//   * per-task randomness is derived from (base seed, task index) via
//     `task_seed`, so worker scheduling cannot perturb a stream,
//   * `thread_count() == 1` (or n <= 1) executes the plain serial loop on
//     the calling thread — bit-identical to the pre-parallel code path.
//
// The worker count comes from, in priority order: an active
// `ThreadCountOverride` scope (benches and tests comparing serial vs
// parallel), the `BCFL_THREADS` environment variable, and finally
// `std::thread::hardware_concurrency()`.
//
// This header is a standalone leaf (std-only): every layer, including the
// lower `fl/` and `ml/` layers, may use it without creating an upward
// dependency on the rest of `core/`.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

namespace bcfl::core::parallel {

/// Largest worker count any input may ask for: `BCFL_THREADS`, a scenario
/// spec's "threads" and bcfl_scenario's --threads.
inline constexpr std::size_t kMaxThreads = 1024;

/// Parses a thread-count input: decimal digits only (no sign, no
/// whitespace), at most kMaxThreads; nullopt otherwise. Unlike strtoull it
/// never wraps "-1" around to 2^64-1.
[[nodiscard]] std::optional<std::size_t> parse_thread_count(
    std::string_view text);

/// Effective worker count: ThreadCountOverride > BCFL_THREADS > hardware
/// concurrency. Always >= 1.
[[nodiscard]] std::size_t thread_count();

/// Workers a task group of `n` tasks will actually use:
/// min(thread_count(), max(n, 1)). Callers that prepare per-worker state
/// (e.g. one model evaluator per worker) size it with this.
[[nodiscard]] std::size_t worker_count(std::size_t n);

/// RAII scope that pins `thread_count()` to `threads` (0 restores the
/// environment/hardware default). Benches and the determinism suite use it
/// to compare serial and parallel runs inside one process. Scopes nest;
/// construction/destruction must happen outside any parallel region.
class ThreadCountOverride {
public:
    explicit ThreadCountOverride(std::size_t threads);
    ~ThreadCountOverride();
    ThreadCountOverride(const ThreadCountOverride&) = delete;
    ThreadCountOverride& operator=(const ThreadCountOverride&) = delete;

private:
    std::size_t previous_;
};

/// Deterministic per-task seed: mixes `base` and `index` through a
/// splitmix64-style finalizer so task streams are decorrelated yet
/// independent of which worker runs the task.
[[nodiscard]] std::uint64_t task_seed(std::uint64_t base,
                                      std::uint64_t index);

/// Runs `task(worker, index)` for every index in [0, n), distributing
/// indices dynamically over `worker_count(n)` workers (worker 0 is the
/// calling thread). Blocks until every task finished. All tasks run even if
/// some throw; afterwards the exception of the lowest failing index is
/// rethrown (a deterministic choice — scheduling cannot select a different
/// one). With one worker this degenerates to a plain serial loop. A `run`
/// issued from inside a running task (e.g. a parallelized reduction called
/// from a parallelized scoring loop) executes inline and serially — one
/// level of fan-out, never nested thread teams.
void run(std::size_t n,
         const std::function<void(std::size_t worker, std::size_t index)>&
             task);

/// `run` without the worker id, for tasks that carry no per-worker state.
void for_each(std::size_t n,
              const std::function<void(std::size_t index)>& task);

/// Ordered map: returns {fn(0), fn(1), ..., fn(n-1)} with the results in
/// index order regardless of execution order.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> ordered_map(std::size_t n, Fn&& fn) {
    std::vector<T> out(n);
    for_each(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

}  // namespace bcfl::core::parallel
