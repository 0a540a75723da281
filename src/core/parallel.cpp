#include "core/parallel.hpp"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <limits>
#include <thread>

#include "common/sync.hpp"

namespace bcfl::core::parallel {

namespace {

/// Active ThreadCountOverride value (0 = none). Plain variable: overrides
/// are installed/removed on the orchestrating thread only, outside any
/// parallel region, and workers never consult it.
std::size_t g_override = 0;

/// True while the current thread is executing tasks of a parallel region.
/// Nested `run` calls (e.g. fedavg's chunked reduction invoked from inside
/// a combination-scoring task) then execute inline and serially instead of
/// spawning a second level of thread teams per task.
thread_local bool t_in_region = false;

std::size_t env_thread_count() {
    static const std::size_t cached = [] {
        // getenv: read exactly once, under this function-local static's
        // (thread-safe) initialization, before any engine worker exists;
        // nothing in the tree calls setenv.
        if (const char* env =
                std::getenv("BCFL_THREADS")) {  // NOLINT(concurrency-mt-unsafe)
            const std::optional<std::size_t> value = parse_thread_count(env);
            if (value.has_value() && *value >= 1) return *value;
        }
        const unsigned hardware = std::thread::hardware_concurrency();
        return static_cast<std::size_t>(hardware == 0 ? 1 : hardware);
    }();
    return cached;
}

}  // namespace

std::optional<std::size_t> parse_thread_count(std::string_view text) {
    std::size_t value = 0;
    const char* const last = text.data() + text.size();
    const auto [end, error] = std::from_chars(text.data(), last, value);
    if (error != std::errc{} || end != last || value > kMaxThreads) {
        return std::nullopt;
    }
    return value;
}

std::size_t thread_count() {
    return g_override != 0 ? g_override : env_thread_count();
}

std::size_t worker_count(std::size_t n) {
    const std::size_t tasks = n == 0 ? 1 : n;
    return std::min(thread_count(), tasks);
}

ThreadCountOverride::ThreadCountOverride(std::size_t threads)
    : previous_(g_override) {
    g_override = threads;
}

ThreadCountOverride::~ThreadCountOverride() { g_override = previous_; }

std::uint64_t task_seed(std::uint64_t base, std::uint64_t index) {
    // splitmix64 finalizer over a golden-ratio index stride: adjacent task
    // indices land in unrelated streams, and the mapping is a bijection of
    // (base + stride*index), so distinct tasks cannot collide for a fixed
    // base.
    std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void run(std::size_t n,
         const std::function<void(std::size_t, std::size_t)>& task) {
    if (n == 0) return;
    const std::size_t workers = t_in_region ? 1 : worker_count(n);
    if (workers <= 1) {
        // Same contract as the multi-worker path: every task runs, then the
        // lowest failing index's exception (serially: the first) rethrows.
        std::exception_ptr first_failure;
        for (std::size_t i = 0; i < n; ++i) {
            try {
                task(0, i);
            } catch (...) {
                if (!first_failure) first_failure = std::current_exception();
            }
        }
        if (first_failure) std::rethrow_exception(first_failure);
        return;
    }

    std::atomic<std::size_t> next{0};
    // TSA cannot attach BCFL_GUARDED_BY to captured locals; the lock
    // acquisition below is still annotation-checked through common::Mutex.
    common::Mutex failure_mutex;
    std::size_t failed_index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr failure;

    const auto drain = [&](std::size_t worker) {
        t_in_region = true;
        for (;;) {
            const std::size_t index =
                next.fetch_add(1, std::memory_order_relaxed);
            if (index >= n) break;
            try {
                task(worker, index);
            } catch (...) {
                // Every task still runs; the lowest failing index wins so
                // the rethrown exception does not depend on scheduling.
                const common::MutexLock lock(failure_mutex);
                if (index < failed_index) {
                    failed_index = index;
                    failure = std::current_exception();
                }
            }
        }
        t_in_region = false;
    };

    std::vector<std::thread> helpers;
    helpers.reserve(workers - 1);
    for (std::size_t worker = 1; worker < workers; ++worker) {
        try {
            helpers.emplace_back(drain, worker);
        } catch (...) {
            // Thread-resource exhaustion: degrade to the workers that did
            // start (drain(0) below still completes every task) instead of
            // unwinding past joinable threads into std::terminate.
            break;
        }
    }
    drain(0);
    for (std::thread& helper : helpers) helper.join();
    if (failure) std::rethrow_exception(failure);
}

void for_each(std::size_t n, const std::function<void(std::size_t)>& task) {
    run(n, [&task](std::size_t, std::size_t index) { task(index); });
}

}  // namespace bcfl::core::parallel
