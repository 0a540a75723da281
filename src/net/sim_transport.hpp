// Transport over the deterministic discrete-event simulation — the CI
// truth. One class is the whole simulated backend: the event queue and its
// clock, the LAN model of the paper's three-VM testbed (every pair of
// peers connected; delivery time is latency + size/bandwidth + jitter,
// optionally behind a shared per-sender uplink) and the send-time fault
// injection of NetworkConditions. Seeded RNG draws and the (time, schedule
// order) tie-break make every run a pure function of its configuration,
// so every seeded output (BENCH_*.json baselines, scenario runs) is
// byte-identical run to run and at any thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "net/conditions.hpp"
#include "net/sim.hpp"
#include "net/transport.hpp"

namespace bcfl::net {

class SimTransport final : public Transport {
public:
    explicit SimTransport(LinkParams params, std::uint64_t seed = 1)
        : params_(params), rng_(seed) {}

    SimTransport(LinkParams params, NetworkConditions conditions,
                 std::uint64_t seed = 1)
        : params_(params), conditions_(std::move(conditions)), rng_(seed) {}

    /// Registers a node; all nodes are mutually reachable (full mesh).
    NodeId add_node(Receiver receiver) override {
        receivers_.push_back(std::move(receiver));
        uplink_free_.push_back(0);
        return static_cast<NodeId>(receivers_.size() - 1);
    }

    [[nodiscard]] std::size_t node_count() const override {
        return receivers_.size();
    }

    /// Schedules delivery of `message` from `from` to `to`. Fault
    /// injection happens here, at send time: an offline endpoint or an
    /// active partition drops the message outright; a per-link override
    /// replaces loss/latency/bandwidth for just this pair.
    void send(NodeId from, NodeId to, Bytes message) override {
        if (to == from) return;  // self-send is a no-op, not an error
        ++stats_.messages_sent;
        stats_.bytes_sent += message.size();
        if (to >= receivers_.size() || from >= receivers_.size()) {
            // An id this transport never issued is counted, not ignored,
            // and still "sent" so sent == delivered + dropped + in-flight.
            ++stats_.messages_dropped;
            ++stats_.dropped_invalid;
            return;
        }
        if (conditions_.offline(from, now_) || conditions_.offline(to, now_)) {
            ++stats_.messages_dropped;
            ++stats_.dropped_offline;
            return;
        }
        if (conditions_.partitioned(from, to, now_)) {
            ++stats_.messages_dropped;
            ++stats_.dropped_partition;
            return;
        }
        const LinkConditions* link = conditions_.link(from, to);
        const double loss_rate = link && link->loss_rate.has_value()
                                     ? *link->loss_rate
                                     : params_.loss_rate;
        if (loss_rate > 0.0 && rng_.next_double() < loss_rate) {
            ++stats_.messages_dropped;
            return;
        }
        const double bytes_per_us = link && link->bytes_per_us.has_value()
                                        ? *link->bytes_per_us
                                        : params_.bytes_per_us;
        const SimTime transfer = static_cast<SimTime>(
            static_cast<double>(message.size()) / bytes_per_us);
        SimTime propagation = 0;
        if (link && link->latency.has_value()) {
            propagation = link->latency->sample(rng_);
        } else if (conditions_.default_latency.has_value()) {
            propagation = conditions_.default_latency->sample(rng_);
        } else {
            const double jitter =
                1.0 +
                params_.jitter_fraction * (2.0 * rng_.next_double() - 1.0);
            propagation = static_cast<SimTime>(
                static_cast<double>(params_.latency) * jitter);
        }
        SimTime deliver_at = 0;
        if (params_.shared_uplink) {
            // The sender's NIC transmits one message at a time.
            const SimTime start = std::max(now_, uplink_free_[from]);
            uplink_free_[from] = start + transfer;
            deliver_at = uplink_free_[from] + propagation;
        } else {
            deliver_at = now_ + transfer + propagation;
        }
        enqueue(deliver_at, [this, from, to, msg = std::move(message)] {
            ++stats_.messages_delivered;
            receivers_[to](from, msg);
        });
    }

    [[nodiscard]] SimTime now() const override { return now_; }

    void schedule_after(NodeId /*node*/, SimTime delay,
                        Handler handler) override {
        // One global event queue: every node shares the simulation thread.
        enqueue(now_ + delay, std::move(handler));
    }

    [[nodiscard]] bool online(NodeId node) const override {
        // An id never issued is not a node, not "a node that is up".
        return node < receivers_.size() && !conditions_.offline(node, now_);
    }

    [[nodiscard]] TrafficStats stats() const override { return stats_; }

    /// Steps events until the caller is satisfied, simulated time reaches
    /// `deadline`, or the queue drains. The clock is checked before each
    /// step, so the last event run may lie past `deadline`.
    void run(const std::function<bool()>& done, SimTime deadline) override {
        while (!done() && now_ < deadline) {
            if (!step()) break;
        }
    }

    /// Runs every event due at or before `deadline`, then sets the clock
    /// to `deadline` (never backwards). Later events stay queued. This is
    /// how benches and tests drive simulated time when nodes mine, since a
    /// miner reschedules forever and the queue never drains.
    void run_until(SimTime deadline) {
        while (!queue_.empty() && queue_.top().when <= deadline) step();
        if (now_ < deadline) now_ = deadline;
    }

private:
    struct Event {
        SimTime when;
        std::uint64_t seq;  // tie-breaker for determinism
        Handler handler;

        bool operator>(const Event& other) const {
            return when != other.when ? when > other.when : seq > other.seq;
        }
    };

    /// Queues `handler` at `when`; a time already past runs at now.
    void enqueue(SimTime when, Handler handler) {
        if (when < now_) when = now_;
        queue_.push(Event{when, next_seq_++, std::move(handler)});
    }

    /// Runs the next event; returns false when the queue is empty.
    bool step() {
        if (queue_.empty()) return false;
        // Copy out before pop so the handler may schedule new events.
        Event event = queue_.top();
        queue_.pop();
        now_ = event.when;
        event.handler();
        return true;
    }

    LinkParams params_;
    NetworkConditions conditions_;
    Rng rng_;
    std::vector<Receiver> receivers_;
    std::vector<SimTime> uplink_free_;  // per-sender NIC availability
    TrafficStats stats_;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
    SimTime now_ = 0;
    std::uint64_t next_seq_ = 0;
};

}  // namespace bcfl::net
