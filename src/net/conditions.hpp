// Network fault injection: the "world model" side of a scenario.
//
// The paper measured one fixed three-VM LAN; the interesting wait-or-not
// regimes live in network-condition space (Wilhelmi et al.'s s-FLchain
// latency analysis, consortium-chain churn studies). NetworkConditions
// makes that space declarative: per-link latency distributions sampled from
// the seeded simulation RNG, asymmetric loss, timed partitions (with heal),
// and peer churn as scheduled offline windows. The conditions object is
// pure data — `net::SimTransport` consults it on every send, so the same
// deterministic event loop drives every regime.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "net/sim.hpp"

namespace bcfl::net {

using NodeId = std::uint32_t;

/// Baseline link parameterization of the simulated full mesh (pure data;
/// `net::SimTransport` interprets it on every send). Models the paper's
/// three-VM LAN defaults.
struct LinkParams {
    SimTime latency = ms(5);              // one-way propagation delay
    double bytes_per_us = 12.5;           // 100 Mbit/s
    double jitter_fraction = 0.1;         // +/- uniform jitter on latency
    double loss_rate = 0.0;               // fraction of messages dropped
    /// Model each sender's NIC as a shared uplink: concurrent sends from one
    /// node serialize (a broadcast to N-1 peers pays N-1 transfer times).
    bool shared_uplink = true;
};

/// One-way propagation-delay distribution for a link. Every draw consumes
/// SimTransport's seeded RNG on the simulation thread, so runs stay pure
/// functions of (conditions, seed).
struct LatencyDist {
    enum class Kind { fixed, uniform, exponential, lognormal };

    Kind kind = Kind::fixed;
    SimTime base = ms(5);  // fixed: value; uniform: lo; exponential: mean;
                           // lognormal: median
    SimTime spread = 0;    // uniform only: hi (>= base)
    double sigma = 0.0;    // lognormal only: shape (>= 0)

    /// Cap on one sampled delay. The heavy-tailed kinds are unbounded in
    /// theory; past an hour a message is operationally lost anyway, and
    /// clamping before the cast keeps an extreme draw (huge sigma) from
    /// overflowing SimTime.
    static constexpr SimTime kMaxSample = 3'600'000'000;  // 1 hour

    [[nodiscard]] SimTime sample(Rng& rng) const {
        switch (kind) {
            case Kind::fixed:
                return base;
            case Kind::uniform: {
                const SimTime hi = spread > base ? spread : base;
                return base + static_cast<SimTime>(
                                  rng.next_double() *
                                  static_cast<double>(hi - base));
            }
            case Kind::exponential:
                return clamp(rng.exponential(static_cast<double>(base)));
            case Kind::lognormal:
                return clamp(static_cast<double>(base) *
                             std::exp(sigma * rng.normal()));
        }
        return base;
    }

private:
    [[nodiscard]] static SimTime clamp(double value) {
        if (!(value > 0.0)) return 0;
        if (value >= static_cast<double>(kMaxSample)) return kMaxSample;
        return static_cast<SimTime>(value);
    }
};

/// Overrides for one (undirected) node pair; unset fields inherit the
/// network-wide `LinkParams` / `NetworkConditions` defaults.
struct LinkConditions {
    NodeId a = 0;
    NodeId b = 0;
    std::optional<LatencyDist> latency;
    std::optional<double> loss_rate;     // [0, 1]
    std::optional<double> bytes_per_us;  // link bandwidth

    [[nodiscard]] bool matches(NodeId x, NodeId y) const {
        return (a == x && b == y) || (a == y && b == x);
    }
};

/// A timed network split: while active, messages between nodes in
/// different groups are dropped. Nodes not listed in any group form one
/// implicit extra group together. Windows are half-open [from, until) so a
/// heal at `until` is exact.
struct PartitionWindow {
    SimTime from = 0;
    SimTime until = 0;
    std::vector<std::vector<NodeId>> groups;

    [[nodiscard]] bool active(SimTime now) const {
        return now >= from && now < until;
    }

    [[nodiscard]] bool separates(NodeId x, NodeId y) const {
        const std::size_t gx = group_of(x);
        const std::size_t gy = group_of(y);
        return gx != gy;
    }

private:
    [[nodiscard]] std::size_t group_of(NodeId n) const {
        for (std::size_t g = 0; g < groups.size(); ++g) {
            for (NodeId member : groups[g]) {
                if (member == n) return g;
            }
        }
        return groups.size();  // the implicit "everyone else" group
    }
};

/// Peer churn, modelled from the network's point of view: while a node is
/// offline it neither sends nor receives (messages are dropped at send
/// time). A node that keeps mining while offline simply extends a private
/// fork — exactly what a real partitioned miner does — and reconciles via
/// the ancestor-sync protocol when it returns.
struct OfflineWindow {
    NodeId node = 0;
    SimTime from = 0;
    SimTime until = 0;  // half-open [from, until)

    [[nodiscard]] bool covers(NodeId n, SimTime now) const {
        return n == node && now >= from && now < until;
    }
};

struct NetworkConditions {
    /// When set, replaces the LinkParams latency + uniform-jitter model for
    /// every link without an explicit per-link override.
    std::optional<LatencyDist> default_latency;
    std::vector<LinkConditions> links;
    std::vector<PartitionWindow> partitions;
    std::vector<OfflineWindow> churn;

    [[nodiscard]] bool empty() const {
        return !default_latency.has_value() && links.empty() &&
               partitions.empty() && churn.empty();
    }

    [[nodiscard]] bool offline(NodeId n, SimTime now) const {
        for (const OfflineWindow& window : churn) {
            if (window.covers(n, now)) return true;
        }
        return false;
    }

    [[nodiscard]] bool partitioned(NodeId x, NodeId y, SimTime now) const {
        for (const PartitionWindow& window : partitions) {
            if (window.active(now) && window.separates(x, y)) return true;
        }
        return false;
    }

    [[nodiscard]] const LinkConditions* link(NodeId x, NodeId y) const {
        for (const LinkConditions& candidate : links) {
            if (candidate.matches(x, y)) return &candidate;
        }
        return nullptr;
    }
};

}  // namespace bcfl::net
