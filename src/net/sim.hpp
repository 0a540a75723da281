// Simulated time and its unit helpers.
//
// Everything time-dependent in the reproduction — block mining races, gossip
// propagation, model-publish latency, the wait-or-not-to-wait trade-off —
// is measured in SimTime: simulated microseconds on SimTransport's event
// clock, wall-clock microseconds on TcpTransport's.
#pragma once

#include <cstdint>

namespace bcfl::net {

/// Simulated time in microseconds.
using SimTime = std::uint64_t;

constexpr SimTime ms(std::uint64_t v) { return v * 1000; }
constexpr SimTime seconds(std::uint64_t v) { return v * 1'000'000; }
constexpr SimTime minutes(std::uint64_t v) { return v * 60'000'000; }
/// Ceiling on durations built from untrusted doubles (~31 simulated
/// years): keeps the double->uint64 cast below well-defined.
constexpr SimTime kMaxDuration = 1'000'000'000'000'000;
/// Fractional seconds (scenario specs speak in seconds-as-doubles),
/// clamped to [0, kMaxDuration].
constexpr SimTime from_seconds(double v) {
    if (v <= 0.0) return 0;
    const double us = v * 1e6;
    if (us >= static_cast<double>(kMaxDuration)) return kMaxDuration;
    return static_cast<SimTime>(us);
}
constexpr double to_seconds(SimTime t) { return static_cast<double>(t) / 1e6; }
constexpr std::uint64_t to_ms(SimTime t) { return t / 1000; }

}  // namespace bcfl::net
