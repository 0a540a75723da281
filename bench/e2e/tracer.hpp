// In-memory span tracer for the end-to-end benchmark's traced run.
//
// Spans are opened and closed around calls into the library's public
// functions (see timed.hpp); nothing inside src/ is instrumented. Each span
// records its layer, wall-clock start/end, the enclosing span on the same
// thread (its parent), and the node and grid point it ran for. Spans stay in
// memory until the run ends; `chrome_trace` renders them as Chrome
// trace-event JSON (opens in Perfetto / chrome://tracing).
//
// Self time is a span's duration minus the time covered by its children.
// Children are only ever found on the parent's own thread, so work a span
// hands to core/parallel helper threads shows up as separate root spans and
// the handing-off span keeps the wait in its self time.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "core/scenario.hpp"

namespace bcfl::e2e {

/// Monotonic wall clock in nanoseconds (steady clock).
[[nodiscard]] std::int64_t now_ns();

/// The layer boundaries the benchmark times. Receiver spans are named by the
/// message-kind byte, timer spans by what the handler turned out to do.
enum class Layer : std::uint8_t {
    point,           // one grid point's whole deployment
    ml_train_local,  // FlModel::train_local
    ml_evaluate,     // FlModel::evaluate
    ml_set_weights,  // FlModel::set_weights
    node_tx,         // receiver call, kind byte 1
    node_block,      // receiver call, kind byte 2
    node_get_block,  // receiver call, kind byte 3
    node_other,      // receiver call, any other kind byte
    peer_publish,    // timer handler that called train_local
    node_mine,       // timer handler that sent a block
    peer_timer,      // any other timer handler
    net_send,        // Transport::send / broadcast
};
inline constexpr std::size_t kLayerCount = 12;

[[nodiscard]] const char* layer_name(Layer layer);

/// Per-thread context stamped on every span opened on that thread.
void set_current_point(int point);
void set_current_node(int node);
[[nodiscard]] int current_node();

class Tracer {
public:
    static constexpr std::uint64_t kNoParent = ~0ull;

    struct Record {
        std::uint64_t id = 0;
        std::uint64_t parent = kNoParent;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        Layer layer = Layer::point;
        std::int32_t node = -1;
        std::int32_t point = -1;
        std::uint32_t thread = 0;
    };

    struct LayerTotals {
        std::uint64_t calls = 0;
        double total_s = 0.0;
        double self_s = 0.0;
        std::vector<double> durations_ms;
    };

    /// Opens a span on the calling thread; it becomes the parent of every
    /// span opened on this thread until it is closed.
    void open(int node);
    /// Closes the calling thread's innermost open span, labelling it with
    /// `layer` (a timer span learns its layer only once the handler ran).
    void close(Layer layer);

    /// Closed spans, ordered by id (open order).
    [[nodiscard]] std::vector<Record> records() const;

    /// Calls, total and self time, and per-call durations for each layer.
    [[nodiscard]] std::array<LayerTotals, kLayerCount> totals() const;

    /// Chrome trace-event document: one complete ("X") event per span,
    /// pid = grid point, tid = node, timestamps relative to the first span.
    [[nodiscard]] core::JsonValue chrome_trace() const;

private:
    std::atomic<std::uint64_t> next_id_{0};
    mutable common::Mutex mu_;
    std::vector<Record> records_ BCFL_GUARDED_BY(mu_);
};

/// RAII span. `relabel` changes the layer the span closes with.
class Span {
public:
    Span(Tracer& tracer, Layer layer, int node) : tracer_(tracer), layer_(layer) {
        tracer_.open(node);
    }
    ~Span() { tracer_.close(layer_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void relabel(Layer layer) { layer_ = layer; }

private:
    Tracer& tracer_;
    Layer layer_;
};

/// Sample statistics over a vector of values (copied and sorted).
struct Summary {
    std::size_t n = 0;
    double p50 = 0.0;
    double p99 = 0.0;  // the max when n < 100: too few samples for a p99
    double max = 0.0;
    double sum = 0.0;
};
[[nodiscard]] Summary summarize(std::vector<double> values);

/// Median of `values` (0 for an empty vector).
[[nodiscard]] double median(std::vector<double> values);

}  // namespace bcfl::e2e
