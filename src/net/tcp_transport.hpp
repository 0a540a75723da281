// Transport over real loopback TCP sockets — the perf truth. The same
// Node/BcflPeer code that runs on the deterministic simulation runs here
// against wall-clock time and a real kernel network stack.
//
// Topology and threading (one process, N nodes):
//   * start() connects every pair of nodes, on the caller's thread, through
//     a private listener that it closes before returning. Frames are
//     [u32 LE length][payload], full duplex on the pair's connection; a
//     zero length is an empty message.
//   * Each node owns exactly one thread. It runs a poll() loop over the
//     node's sockets, its timer heap and a wake eventfd, and runs receiver
//     and timer handlers inline — so each node's state is only ever touched
//     by its own thread, exactly the single-threaded discipline the
//     simulation provides for free.
//   * send() appends the frame to the link's write queue and writes what
//     the socket takes; the sending node's loop flushes the rest when the
//     socket drains. A frame that does not fit the queue is a counted drop,
//     and so is every send over a failed link: a failed link stays down.
//   * Dispatch stays gated until run(): everything the experiment sets up
//     beforehand (node->start(), run_rounds()) executes on the caller's
//     thread with no concurrent delivery, so setup needs no locks.
//
// Locks: a node's mutex guards its timers and write queues, stats_mu_ the
// counters. No code path holds two of them at once.
//
// Clocks: now() is wall-clock microseconds since construction; timers use
// the steady clock. Nothing here is deterministic — determinism is the
// sim backend's contract (see docs/transport.md).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.hpp"
#include "net/transport.hpp"

namespace bcfl::net {

class TcpTransport final : public Transport {
public:
    TcpTransport() = default;
    ~TcpTransport() override;

    NodeId add_node(Receiver receiver) override;
    [[nodiscard]] std::size_t node_count() const override;
    void send(NodeId from, NodeId to, Bytes message) override;
    [[nodiscard]] SimTime now() const override;
    void schedule_after(NodeId node, SimTime delay, Handler handler) override;
    [[nodiscard]] bool online(NodeId node) const override;
    [[nodiscard]] TrafficStats stats() const override;
    void start() override;
    void stop() override;
    void run(const std::function<bool()>& done, SimTime deadline) override;

private:
    using Clock = std::chrono::steady_clock;

    struct Timer {
        Clock::time_point when;
        std::uint64_t seq = 0;  // FIFO among equal deadlines
        Handler fn;
    };

    /// Write side of the connection to one peer.
    struct Outbox {
        Bytes bytes;  // queued frames; the socket has taken [0, written)
        std::size_t written = 0;
        bool down = false;  // failed or stopped: sends are counted drops

        [[nodiscard]] bool pending() const { return written < bytes.size(); }
        /// Writes what the socket takes without blocking; false when the
        /// connection is dead.
        bool flush(int fd);
        void take_down(int fd);
    };

    /// Read side of the connection to one peer.
    struct Link {
        int fd = -1;
        Bytes in;  // received bytes not yet parsed into whole frames
    };

    struct NodeState {
        Receiver receiver;
        // Phase-guarded, not lock-guarded: add_node opens wake_fd and
        // start() the link fds, both before the loop thread exists, and the
        // destructor closes them. Link::in is the loop thread's alone.
        int wake_fd = -1;
        std::vector<Link> links;  // by peer id

        common::Mutex mu;
        // Min-heap (std::push_heap/pop_heap).
        std::vector<Timer> timers BCFL_GUARDED_BY(mu);
        std::vector<Outbox> outboxes BCFL_GUARDED_BY(mu);  // by peer id

        std::thread thread;  // bcfl-lint: allow(raw-thread)
    };

    void connect_mesh();
    void loop(NodeId node);
    /// Reads once from `peer`'s socket and delivers every whole frame;
    /// false when the connection is dead.
    bool read_frames(NodeState& state, NodeId peer, Bytes& chunk);
    void run_due_timers(NodeState& state);

    Clock::time_point epoch_ = Clock::now();
    std::vector<std::unique_ptr<NodeState>> nodes_;

    std::atomic<bool> started_{false};
    std::atomic<bool> running_{false};   // run() opens the dispatch gate
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> timer_seq_{0};

    mutable common::Mutex stats_mu_;
    TrafficStats stats_ BCFL_GUARDED_BY(stats_mu_);
};

}  // namespace bcfl::net
