// The narrow waist of the network layer: every component above it — Node,
// BcflPeer, the experiment loop — speaks only this interface, never to the
// simulated event queue or a concrete socket. Two implementations:
//
//   SimTransport (net/sim_transport.hpp) — the deterministic simulation;
//     the CI truth. Byte-identical seeded behaviour.
//   TcpTransport (net/tcp_transport.hpp) — real loopback sockets with
//     wall-clock timers; the perf truth.
//
// The contract (see docs/transport.md):
//   * `add_node` registers a receiver and returns a dense NodeId; all
//     registration happens before `start`.
//   * `send`/`broadcast` are fire-and-forget. Delivery is asynchronous and
//     per-pair FIFO when the link has no jitter; a send from or to an
//     out-of-range id is counted in TrafficStats::dropped_invalid, never
//     silently ignored. A self-send is a no-op.
//   * `now` is microseconds on the backend's own clock (simulated time or
//     wall clock since construction); it is monotone.
//   * `schedule_after(node, ...)` runs the handler on whatever execution
//     context delivers `node`'s messages, so per-node state needs no locks.
//   * `run(done, deadline)` drives delivery until `done()` returns true,
//     the clock passes `deadline`, or (sim only) no events remain.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/bytes.hpp"
#include "net/conditions.hpp"
#include "net/sim.hpp"

namespace bcfl::net {

struct TrafficStats {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_delivered = 0;
    /// Every drop, whatever the cause; the fields below break out the
    /// fault-injection and protocol causes (the remainder is random link
    /// loss).
    std::uint64_t messages_dropped = 0;
    std::uint64_t dropped_partition = 0;
    std::uint64_t dropped_offline = 0;
    /// Sends from or to a NodeId the transport never issued.
    std::uint64_t dropped_invalid = 0;
    std::uint64_t bytes_sent = 0;
};

class Transport {
public:
    using Receiver = std::function<void(NodeId from, const Bytes& message)>;
    using Handler = std::function<void()>;

    Transport() = default;
    Transport(const Transport&) = delete;
    Transport& operator=(const Transport&) = delete;
    virtual ~Transport() = default;

    /// Registers a node; returns its dense id. Call before start().
    virtual NodeId add_node(Receiver receiver) = 0;
    [[nodiscard]] virtual std::size_t node_count() const = 0;

    /// Fire-and-forget delivery of `message` to `to`. An out-of-range
    /// `from` or `to` is counted as TrafficStats::dropped_invalid;
    /// `to == from` is a no-op.
    virtual void send(NodeId from, NodeId to, Bytes message) = 0;

    /// Sends to every other node (flood): one `send` per peer.
    virtual void broadcast(NodeId from, const Bytes& message) {
        const std::size_t nodes = node_count();
        for (NodeId to = 0; to < nodes; ++to) {
            if (to != from) send(from, to, message);
        }
    }

    /// Microseconds on this backend's clock (monotone).
    [[nodiscard]] virtual SimTime now() const = 0;

    /// Runs `handler` after `delay`, on `node`'s delivery context.
    virtual void schedule_after(NodeId node, SimTime delay,
                                Handler handler) = 0;

    /// Whether `node` is currently reachable (no active churn window).
    [[nodiscard]] virtual bool online(NodeId node) const = 0;

    /// Snapshot of the traffic counters (by value: a socket backend
    /// updates them from its delivery threads).
    [[nodiscard]] virtual TrafficStats stats() const = 0;

    /// Brings the backend up (spawns threads, opens sockets). No-op for
    /// the simulation.
    virtual void start() {}

    /// Tears the backend down; joins every thread. Idempotent. After stop
    /// returns, all delivery has ceased and per-node state is safe to read
    /// from the calling thread.
    virtual void stop() {}

    /// Drives delivery until `done()` holds, the clock passes `deadline`,
    /// or (sim only) the event queue drains. `done` must be callable from
    /// the invoking thread while delivery proceeds elsewhere, so a socket
    /// backend's predicate may only read atomics.
    virtual void run(const std::function<bool()>& done, SimTime deadline) = 0;

    /// Absolute-time convenience over schedule_after. A `when` already in
    /// the past fires as soon as possible — the same clamp SimTransport
    /// applies to its event queue.
    void schedule_at(NodeId node, SimTime when, Handler handler) {
        const SimTime current = now();
        schedule_after(node, when > current ? when - current : 0,
                       std::move(handler));
    }
};

}  // namespace bcfl::net
