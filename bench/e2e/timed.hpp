// Timing wrappers for the traced run. Each one forwards to the library's
// public interface unchanged and opens a span around the call, so a traced
// run executes exactly what an untraced one does (the driver checks this:
// the traced grid's per-point results must equal the untraced document's).
//
//   TimedTransport — wraps SimTransport or TcpTransport: receiver calls are
//     timed by message-kind byte, timer handlers by what they did, sends
//     and broadcasts as net.send; it also matches deliveries to sends for
//     latency, counts duplicate deliveries, samples the process thread
//     count, and logs node 0's first-seen tx and block messages for the
//     replay probes.
//   TimedModel — wraps the FlModel instances a task's make_model returns.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "fl/task.hpp"
#include "net/transport.hpp"
#include "tracer.hpp"

namespace bcfl::e2e {

/// Message-kind bytes of node::Node's gossip protocol.
inline constexpr std::uint8_t kTxKind = 1;
inline constexpr std::uint8_t kBlockKind = 2;
inline constexpr std::uint8_t kGetBlockKind = 3;

/// 64-bit hash of a message's bytes (duplicate detection and send/delivery
/// matching; never a consensus value).
[[nodiscard]] std::uint64_t message_hash(const Bytes& message);

/// The first-seen tx and block messages of one node, sent or received, in
/// the order that node saw them (kind byte included).
class MessageLog {
public:
    struct Messages {
        std::vector<Bytes> txs;
        std::vector<Bytes> blocks;
    };

    void capture(std::uint64_t hash, const Bytes& message);
    /// Moves the captured messages out (multi-MB blocks are not copied).
    [[nodiscard]] Messages take();

private:
    common::Mutex mu_;
    std::unordered_set<std::uint64_t> seen_ BCFL_GUARDED_BY(mu_);
    std::vector<Bytes> txs_ BCFL_GUARDED_BY(mu_);
    std::vector<Bytes> blocks_ BCFL_GUARDED_BY(mu_);
};

/// What a TimedTransport observed besides spans.
struct TransportProbe {
    std::uint64_t tx_received = 0;
    std::uint64_t tx_duplicates = 0;
    std::uint64_t block_received = 0;
    std::uint64_t block_duplicates = 0;
    /// Send-to-receiver-call latency on the backend's clock (simulated
    /// milliseconds on the sim, wall milliseconds on TCP).
    std::vector<double> delivery_ms;
    std::size_t threads_peak = 0;
};

class TimedTransport final : public net::Transport {
public:
    /// `log`, when set, captures node 0's first-seen messages.
    TimedTransport(net::Transport& inner, Tracer& tracer,
                   MessageLog* log = nullptr);

    net::NodeId add_node(Receiver receiver) override;
    [[nodiscard]] std::size_t node_count() const override {
        return inner_.node_count();
    }
    void send(net::NodeId from, net::NodeId to, Bytes message) override;
    void broadcast(net::NodeId from, const Bytes& message) override;
    [[nodiscard]] net::SimTime now() const override { return inner_.now(); }
    void schedule_after(net::NodeId node, net::SimTime delay,
                        Handler handler) override;
    [[nodiscard]] bool online(net::NodeId node) const override {
        return inner_.online(node);
    }
    [[nodiscard]] net::TrafficStats stats() const override {
        return inner_.stats();
    }
    void start() override { inner_.start(); }
    void stop() override { inner_.stop(); }
    void run(const std::function<bool()>& done,
             net::SimTime deadline) override;

    /// Call after stop(): every delivery context has ended.
    [[nodiscard]] TransportProbe probe() const;

private:
    /// Per-node state, touched only from that node's delivery context.
    struct NodeCounters {
        std::unordered_set<std::uint64_t> seen;
        std::uint64_t tx_received = 0;
        std::uint64_t tx_duplicates = 0;
        std::uint64_t block_received = 0;
        std::uint64_t block_duplicates = 0;
    };
    using PairKey = std::tuple<net::NodeId, net::NodeId, std::uint64_t>;

    void deliver(net::NodeId self, net::NodeId from, const Bytes& message,
                 const Receiver& receiver);
    void note_send(net::NodeId from, net::NodeId to, std::uint64_t hash,
                   const Bytes& message);
    void sample_threads();

    net::Transport& inner_;
    Tracer& tracer_;
    MessageLog* log_;
    std::vector<std::unique_ptr<NodeCounters>> nodes_;

    mutable common::Mutex pending_mu_;
    /// Send timestamps awaiting delivery, FIFO per (from, to, bytes).
    std::map<PairKey, std::deque<net::SimTime>> pending_
        BCFL_GUARDED_BY(pending_mu_);
    std::vector<double> delivery_ms_ BCFL_GUARDED_BY(pending_mu_);

    std::int64_t last_sample_ns_ = 0;
    std::size_t threads_peak_ = 0;
};

/// FlModel wrapper timing train_local, evaluate and set_weights. One
/// instance is used by one thread at a time (core/parallel hands each worker
/// its own evaluator); the tracer it reports to is thread-safe.
class TimedModel final : public fl::FlModel {
public:
    TimedModel(std::unique_ptr<fl::FlModel> inner, Tracer& tracer)
        : inner_(std::move(inner)), tracer_(tracer) {}

    std::vector<float> weights() override { return inner_->weights(); }
    void set_weights(std::span<const float> weights) override;
    void train_local(const ml::Dataset& data,
                     const ml::TrainConfig& config) override;
    double evaluate(const ml::Dataset& data) override;
    std::size_t weight_count() override { return inner_->weight_count(); }

private:
    std::unique_ptr<fl::FlModel> inner_;
    Tracer& tracer_;
};

/// A copy of `task` whose make_model returns TimedModels.
[[nodiscard]] fl::FlTask timed_task(const fl::FlTask& task, Tracer& tracer);

/// Threads of this process, from /proc/self/status (0 if unreadable).
[[nodiscard]] std::size_t process_threads();

}  // namespace bcfl::e2e
