#include "tracer.hpp"

#include <algorithm>
#include <chrono>

namespace bcfl::e2e {

namespace {

struct Frame {
    std::uint64_t id = 0;
    std::uint64_t parent = Tracer::kNoParent;
    std::int64_t start_ns = 0;
    std::int32_t node = -1;
    std::int32_t point = -1;
};

thread_local std::vector<Frame> t_open;
thread_local int t_point = -1;
thread_local int t_node = -1;

std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "core.point",     "ml.train_local", "ml.evaluate",  "ml.set_weights",
    "node.tx",        "node.block",     "node.get_block", "node.other",
    "peer.publish",   "node.mine",      "peer.timer",   "net.send",
};

double quantile(const std::vector<double>& sorted, double q) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

std::int64_t now_ns() {
    // The benchmark's one clock: every wall-time number it reports is a
    // difference of two reads of this function.
    const auto t = std::chrono::steady_clock::now();  // bcfl-lint: allow(nondeterminism)
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

const char* layer_name(Layer layer) {
    return kLayerNames[static_cast<std::size_t>(layer)];
}

void set_current_point(int point) { t_point = point; }
void set_current_node(int node) { t_node = node; }
int current_node() { return t_node; }

void Tracer::open(int node) {
    Frame frame;
    frame.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    frame.parent = t_open.empty() ? kNoParent : t_open.back().id;
    frame.node = node;
    frame.point = t_point;
    frame.start_ns = now_ns();
    t_open.push_back(frame);
}

void Tracer::close(Layer layer) {
    const std::int64_t end = now_ns();
    const Frame frame = t_open.back();  // Span pairs every close with an open
    t_open.pop_back();
    Record record;
    record.id = frame.id;
    record.parent = frame.parent;
    record.start_ns = frame.start_ns;
    record.end_ns = end;
    record.layer = layer;
    record.node = frame.node;
    record.point = frame.point;
    record.thread = thread_index();
    const common::MutexLock lock(mu_);
    records_.push_back(record);
}

std::vector<Tracer::Record> Tracer::records() const {
    std::vector<Record> out;
    {
        const common::MutexLock lock(mu_);
        out = records_;
    }
    std::sort(out.begin(), out.end(),
              [](const Record& a, const Record& b) { return a.id < b.id; });
    return out;
}

std::array<Tracer::LayerTotals, kLayerCount> Tracer::totals() const {
    const std::vector<Record> spans = records();
    std::vector<std::int64_t> child_ns(next_id_.load(), 0);
    for (const Record& span : spans) {
        if (span.parent != kNoParent) {
            child_ns[span.parent] += span.end_ns - span.start_ns;
        }
    }
    std::array<LayerTotals, kLayerCount> out;
    for (const Record& span : spans) {
        LayerTotals& totals = out[static_cast<std::size_t>(span.layer)];
        const std::int64_t duration = span.end_ns - span.start_ns;
        ++totals.calls;
        totals.total_s += static_cast<double>(duration) * 1e-9;
        totals.self_s +=
            static_cast<double>(duration - child_ns[span.id]) * 1e-9;
        totals.durations_ms.push_back(static_cast<double>(duration) * 1e-6);
    }
    return out;
}

core::JsonValue Tracer::chrome_trace() const {
    const std::vector<Record> spans = records();
    std::int64_t origin = 0;
    if (!spans.empty()) {
        origin = std::min_element(spans.begin(), spans.end(),
                                  [](const Record& a, const Record& b) {
                                      return a.start_ns < b.start_ns;
                                  })
                     ->start_ns;
    }
    core::JsonValue events = core::JsonValue::array();
    for (const Record& span : spans) {
        core::JsonValue args =
            core::JsonValue::object()
                .set("id", span.id)
                .set("thread", span.thread);
        if (span.parent != kNoParent) args.set("parent", span.parent);
        events.push(
            core::JsonValue::object()
                .set("name", layer_name(span.layer))
                .set("ph", "X")
                .set("ts", static_cast<double>(span.start_ns - origin) * 1e-3)
                .set("dur",
                     static_cast<double>(span.end_ns - span.start_ns) * 1e-3)
                .set("pid", span.point)
                .set("tid", span.node)
                .set("args", std::move(args)));
    }
    return core::JsonValue::object()
        .set("displayTimeUnit", "ms")
        .set("traceEvents", std::move(events));
}

Summary summarize(std::vector<double> values) {
    Summary out;
    out.n = values.size();
    if (values.empty()) return out;
    std::sort(values.begin(), values.end());
    out.p50 = quantile(values, 0.5);
    out.max = values.back();
    out.p99 = values.size() >= 100 ? quantile(values, 0.99) : out.max;
    for (double v : values) out.sum += v;
    return out;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    return quantile(values, 0.5);
}

}  // namespace bcfl::e2e
