#include "timed.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "common/error.hpp"

namespace bcfl::e2e {

namespace {

// What the current thread's handler has done so far: a timer span is
// labelled after its handler ran, by comparing these before and after.
thread_local std::uint64_t t_train_calls = 0;
thread_local std::uint64_t t_block_sends = 0;

Layer receiver_layer(const Bytes& message) {
    if (message.empty()) return Layer::node_other;
    switch (message[0]) {
        case kTxKind: return Layer::node_tx;
        case kBlockKind: return Layer::node_block;
        case kGetBlockKind: return Layer::node_get_block;
        default: return Layer::node_other;
    }
}

/// Restores the thread's node context when a handler returns.
class NodeScope {
public:
    explicit NodeScope(int node) : previous_(current_node()) {
        set_current_node(node);
    }
    ~NodeScope() { set_current_node(previous_); }
    NodeScope(const NodeScope&) = delete;
    NodeScope& operator=(const NodeScope&) = delete;

private:
    int previous_;
};

constexpr std::int64_t kThreadSampleNs = 100'000'000;  // at most every 100 ms

}  // namespace

std::uint64_t message_hash(const Bytes& message) {
    return std::hash<std::string_view>{}(std::string_view(
        reinterpret_cast<const char*>(message.data()), message.size()));
}

// ------------------------------------------------------------- MessageLog

void MessageLog::capture(std::uint64_t hash, const Bytes& message) {
    if (message.empty() ||
        (message[0] != kTxKind && message[0] != kBlockKind)) {
        return;
    }
    const common::MutexLock lock(mu_);
    if (!seen_.insert(hash).second) return;
    (message[0] == kTxKind ? txs_ : blocks_).push_back(message);
}

MessageLog::Messages MessageLog::take() {
    const common::MutexLock lock(mu_);
    return Messages{std::move(txs_), std::move(blocks_)};
}

// --------------------------------------------------------- TimedTransport

TimedTransport::TimedTransport(net::Transport& inner, Tracer& tracer,
                               MessageLog* log)
    : inner_(inner), tracer_(tracer), log_(log) {}

net::NodeId TimedTransport::add_node(Receiver receiver) {
    const auto self = static_cast<net::NodeId>(inner_.node_count());
    nodes_.push_back(std::make_unique<NodeCounters>());
    const net::NodeId issued = inner_.add_node(
        [this, self, receiver = std::move(receiver)](net::NodeId from,
                                                     const Bytes& message) {
            deliver(self, from, message, receiver);
        });
    if (issued != self) {
        throw Error("e2e: transport issued a non-dense node id");
    }
    return issued;
}

void TimedTransport::deliver(net::NodeId self, net::NodeId from,
                             const Bytes& message, const Receiver& receiver) {
    // Bookkeeping stays outside the span: hashing a multi-MB block is the
    // benchmark's cost, not the node's.
    const std::uint64_t hash = message_hash(message);
    {
        const common::MutexLock lock(pending_mu_);
        const auto it = pending_.find(PairKey{from, self, hash});
        if (it != pending_.end()) {
            delivery_ms_.push_back(
                static_cast<double>(inner_.now() - it->second.front()) *
                1e-3);
            it->second.pop_front();
            if (it->second.empty()) pending_.erase(it);
        }
    }
    NodeCounters& counters = *nodes_[self];
    const bool duplicate = !counters.seen.insert(hash).second;
    if (!message.empty() && message[0] == kTxKind) {
        ++counters.tx_received;
        counters.tx_duplicates += duplicate ? 1 : 0;
    } else if (!message.empty() && message[0] == kBlockKind) {
        ++counters.block_received;
        counters.block_duplicates += duplicate ? 1 : 0;
    }
    if (log_ != nullptr && self == 0) log_->capture(hash, message);

    const NodeScope scope(static_cast<int>(self));
    const Span span(tracer_, receiver_layer(message), static_cast<int>(self));
    receiver(from, message);
}

void TimedTransport::note_send(net::NodeId from, net::NodeId to,
                               std::uint64_t hash, const Bytes& message) {
    if (!message.empty() && message[0] == kBlockKind) ++t_block_sends;
    const common::MutexLock lock(pending_mu_);
    pending_[PairKey{from, to, hash}].push_back(inner_.now());
}

void TimedTransport::send(net::NodeId from, net::NodeId to, Bytes message) {
    // Recorded before the call: a socket backend may deliver on another
    // thread before send returns.
    const std::uint64_t hash = message_hash(message);
    note_send(from, to, hash, message);
    if (log_ != nullptr && from == 0) log_->capture(hash, message);
    const Span span(tracer_, Layer::net_send, static_cast<int>(from));
    inner_.send(from, to, std::move(message));
}

void TimedTransport::broadcast(net::NodeId from, const Bytes& message) {
    const std::uint64_t hash = message_hash(message);
    const auto nodes = static_cast<net::NodeId>(inner_.node_count());
    for (net::NodeId to = 0; to < nodes; ++to) {
        if (to != from) note_send(from, to, hash, message);
    }
    if (log_ != nullptr && from == 0) log_->capture(hash, message);
    const Span span(tracer_, Layer::net_send, static_cast<int>(from));
    inner_.broadcast(from, message);
}

void TimedTransport::schedule_after(net::NodeId node, net::SimTime delay,
                                    Handler handler) {
    inner_.schedule_after(
        node, delay, [this, node, handler = std::move(handler)] {
            const NodeScope scope(static_cast<int>(node));
            const std::uint64_t trained = t_train_calls;
            const std::uint64_t blocks = t_block_sends;
            Span span(tracer_, Layer::peer_timer, static_cast<int>(node));
            handler();
            if (t_train_calls != trained) {
                span.relabel(Layer::peer_publish);
            } else if (t_block_sends != blocks) {
                span.relabel(Layer::node_mine);
            }
        });
}

void TimedTransport::sample_threads() {
    last_sample_ns_ = now_ns();
    threads_peak_ = std::max(threads_peak_, process_threads());
}

void TimedTransport::run(const std::function<bool()>& done,
                         net::SimTime deadline) {
    sample_threads();
    inner_.run(
        [&] {
            if (now_ns() - last_sample_ns_ >= kThreadSampleNs) {
                sample_threads();
            }
            return done();
        },
        deadline);
    sample_threads();
}

TransportProbe TimedTransport::probe() const {
    TransportProbe out;
    for (const auto& counters : nodes_) {
        out.tx_received += counters->tx_received;
        out.tx_duplicates += counters->tx_duplicates;
        out.block_received += counters->block_received;
        out.block_duplicates += counters->block_duplicates;
    }
    {
        const common::MutexLock lock(pending_mu_);
        out.delivery_ms = delivery_ms_;
    }
    out.threads_peak = threads_peak_;
    return out;
}

// ------------------------------------------------------------- TimedModel

void TimedModel::set_weights(std::span<const float> weights) {
    const Span span(tracer_, Layer::ml_set_weights, current_node());
    inner_->set_weights(weights);
}

void TimedModel::train_local(const ml::Dataset& data,
                             const ml::TrainConfig& config) {
    ++t_train_calls;
    const Span span(tracer_, Layer::ml_train_local, current_node());
    inner_->train_local(data, config);
}

double TimedModel::evaluate(const ml::Dataset& data) {
    const Span span(tracer_, Layer::ml_evaluate, current_node());
    return inner_->evaluate(data);
}

fl::FlTask timed_task(const fl::FlTask& task, Tracer& tracer) {
    fl::FlTask out = task;
    out.make_model = [make = task.make_model, &tracer] {
        return std::make_unique<TimedModel>(make(), tracer);
    };
    return out;
}

std::size_t process_threads() {
    std::FILE* file = std::fopen("/proc/self/status", "r");
    if (file == nullptr) return 0;
    std::size_t threads = 0;
    char line[256];
    while (std::fgets(line, sizeof(line), file) != nullptr) {
        if (std::strncmp(line, "Threads:", 8) == 0) {
            threads = static_cast<std::size_t>(
                std::strtoull(line + 8, nullptr, 10));
            break;
        }
    }
    std::fclose(file);
    return threads;
}

}  // namespace bcfl::e2e
