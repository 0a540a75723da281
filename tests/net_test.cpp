#include <gtest/gtest.h>

#include <vector>

#include "net/sim_transport.hpp"

namespace bcfl::net {
namespace {

/// Runs the event queue dry. Only for transports where no node mines: a
/// miner reschedules forever, so its queue never drains.
void drain(SimTransport& transport) {
    transport.run([] { return false; }, kMaxDuration);
}

TEST(SimTransportEvents, EventsRunInTimeOrder) {
    SimTransport transport(LinkParams{});
    std::vector<int> order;
    transport.schedule_at(0, 300, [&] { order.push_back(3); });
    transport.schedule_at(0, 100, [&] { order.push_back(1); });
    transport.schedule_at(0, 200, [&] { order.push_back(2); });
    drain(transport);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(transport.now(), 300u);
}

TEST(SimTransportEvents, TiesBreakByScheduleOrder) {
    SimTransport transport(LinkParams{});
    std::vector<int> order;
    transport.schedule_at(0, 100, [&] { order.push_back(1); });
    transport.schedule_at(0, 100, [&] { order.push_back(2); });
    drain(transport);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimTransportEvents, HandlersCanScheduleMoreEvents) {
    SimTransport transport(LinkParams{});
    int fired = 0;
    transport.schedule_at(0, 10, [&] {
        ++fired;
        transport.schedule_after(0, 5, [&] { ++fired; });
    });
    drain(transport);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(transport.now(), 15u);
}

TEST(SimTransportEvents, RunUntilStopsAtDeadline) {
    SimTransport transport(LinkParams{});
    int fired = 0;
    transport.schedule_at(0, 100, [&] { ++fired; });
    transport.schedule_at(0, 200, [&] { ++fired; });
    transport.run_until(150);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(transport.now(), 150u);
    transport.run_until(250);  // the later event stayed queued
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(transport.now(), 250u);
}

TEST(SimTransportEvents, RunChecksTheDeadlineBeforeEachStep) {
    SimTransport transport(LinkParams{});
    int fired = 0;
    transport.schedule_at(0, 100, [&] { ++fired; });
    transport.schedule_at(0, 200, [&] { ++fired; });
    transport.schedule_at(0, 300, [&] { ++fired; });
    transport.run([] { return false; }, 150);
    // At t=100 the clock is still short of 150, so one more event runs.
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(transport.now(), 200u);
}

TEST(SimTransportEvents, PastEventsClampToNow) {
    SimTransport transport(LinkParams{});
    transport.schedule_at(0, 100, [] {});
    drain(transport);
    int fired = 0;
    transport.schedule_at(0, 50, [&] { ++fired; });  // in the past
    drain(transport);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(transport.now(), 100u);  // did not go backwards
}

TEST(SimTransportNetwork, DeliversWithLatency) {
    LinkParams params;
    params.latency = ms(10);
    params.jitter_fraction = 0.0;
    params.bytes_per_us = 1000.0;
    SimTransport transport(params);

    SimTime delivered_at = 0;
    Bytes received;
    const NodeId a = transport.add_node([](NodeId, const Bytes&) {});
    const NodeId b = transport.add_node([&](NodeId, const Bytes& msg) {
        delivered_at = transport.now();
        received = msg;
    });

    transport.send(a, b, str_bytes("hello"));
    drain(transport);
    EXPECT_EQ(received, str_bytes("hello"));
    EXPECT_GE(delivered_at, ms(10));
    EXPECT_LT(delivered_at, ms(11));
}

TEST(SimTransportNetwork, BandwidthDelaysLargeMessages) {
    LinkParams params;
    params.latency = 0;
    params.jitter_fraction = 0.0;
    params.bytes_per_us = 10.0;  // 10 bytes / us
    params.shared_uplink = false;
    SimTransport transport(params);

    SimTime small_time = 0;
    SimTime big_time = 0;
    const NodeId a = transport.add_node([](NodeId, const Bytes&) {});
    const NodeId b = transport.add_node([&](NodeId, const Bytes& msg) {
        (msg.size() > 1000 ? big_time : small_time) = transport.now();
    });
    transport.send(a, b, Bytes(100, 0));      // 10 us
    transport.send(a, b, Bytes(100'000, 0));  // 10'000 us
    drain(transport);
    EXPECT_EQ(small_time, 10u);
    EXPECT_EQ(big_time, 10'000u);

    // The Fig. 2 workflow (E3c): a model crosses the default 100 Mbit/s
    // LAN as block payload and lands at latency + floor(size / bandwidth),
    // here 5'000 + floor(KiB * 1024 / 12.5) us.
    const struct {
        std::size_t kib;
        SimTime lands_at;
    } payloads[] = {{16, 6'310},    {64, 10'242},    {248, 25'316},
                    {1024, 88'886}, {4096, 340'544}, {21'200, 1'741'704}};
    for (const auto& [kib, lands_at] : payloads) {
        LinkParams lan;
        lan.jitter_fraction = 0.0;
        SimTransport lan_transport(lan);
        SimTime delivered = 0;
        const NodeId from = lan_transport.add_node([](NodeId, const Bytes&) {});
        const NodeId to = lan_transport.add_node(
            [&](NodeId, const Bytes&) { delivered = lan_transport.now(); });
        lan_transport.send(from, to, Bytes(kib * 1024, 0));
        drain(lan_transport);
        EXPECT_EQ(delivered, lands_at) << kib << " KiB";
    }
}

TEST(SimTransportNetwork, SharedUplinkSerializesABroadcast) {
    // 100'000 bytes take floor(100'000 / 12.5) = 8'000 us on the default
    // LAN. Behind one shared NIC the i-th copy of a broadcast lands at
    // 5'000 + i * 8'000 us; unshared, every copy lands at 13'000 us.
    for (const bool shared : {true, false}) {
        LinkParams lan;
        lan.jitter_fraction = 0.0;
        lan.shared_uplink = shared;
        SimTransport transport(lan);
        std::vector<SimTime> arrivals;
        const NodeId sender = transport.add_node([](NodeId, const Bytes&) {});
        for (int i = 0; i < 5; ++i) {
            transport.add_node([&](NodeId, const Bytes&) {
                arrivals.push_back(transport.now());
            });
        }
        transport.broadcast(sender, Bytes(100'000, 0));
        drain(transport);
        const std::vector<SimTime> expected =
            shared ? std::vector<SimTime>{13'000, 21'000, 29'000, 37'000,
                                          45'000}
                   : std::vector<SimTime>(5, 13'000);
        EXPECT_EQ(arrivals, expected) << "shared_uplink=" << shared;
    }
}

TEST(SimTransportNetwork, BroadcastReachesAllButSender) {
    SimTransport transport(LinkParams{});
    int deliveries = 0;
    std::vector<NodeId> nodes;
    for (int i = 0; i < 5; ++i) {
        nodes.push_back(transport.add_node(
            [&](NodeId, const Bytes&) { ++deliveries; }));
    }
    transport.broadcast(nodes[0], str_bytes("x"));
    drain(transport);
    EXPECT_EQ(deliveries, 4);
    EXPECT_EQ(transport.stats().messages_sent, 4u);
    EXPECT_EQ(transport.stats().messages_delivered, 4u);
}

TEST(SimTransportNetwork, LossDropsMessages) {
    LinkParams params;
    params.loss_rate = 1.0;
    SimTransport transport(params);
    int deliveries = 0;
    const NodeId a = transport.add_node([](NodeId, const Bytes&) {});
    const NodeId b =
        transport.add_node([&](NodeId, const Bytes&) { ++deliveries; });
    transport.send(a, b, str_bytes("gone"));
    drain(transport);
    EXPECT_EQ(deliveries, 0);
    EXPECT_EQ(transport.stats().messages_dropped, 1u);
}

TEST(Conditions, LatencyDistSamplesStayInRange) {
    Rng rng(7);
    LatencyDist fixed;
    fixed.kind = LatencyDist::Kind::fixed;
    fixed.base = ms(25);
    EXPECT_EQ(fixed.sample(rng), ms(25));

    LatencyDist uniform;
    uniform.kind = LatencyDist::Kind::uniform;
    uniform.base = ms(10);
    uniform.spread = ms(50);
    for (int i = 0; i < 200; ++i) {
        const SimTime sample = uniform.sample(rng);
        EXPECT_GE(sample, ms(10));
        EXPECT_LT(sample, ms(50));
    }

    LatencyDist lognormal;
    lognormal.kind = LatencyDist::Kind::lognormal;
    lognormal.base = ms(40);
    lognormal.sigma = 0.0;  // degenerate: always the median
    EXPECT_EQ(lognormal.sample(rng), ms(40));
}

TEST(Conditions, PartitionDropsAcrossGroupsThenHeals) {
    NetworkConditions conditions;
    conditions.partitions.push_back(
        {seconds(10), seconds(20), {{0, 1}, {2}}});
    LinkParams params;
    params.jitter_fraction = 0.0;
    SimTransport transport(params, conditions);
    std::vector<int> delivered(3, 0);
    for (int i = 0; i < 3; ++i) {
        transport.add_node(
            [&delivered, i](NodeId, const Bytes&) { ++delivered[i]; });
    }
    // Mid-partition: 0 -> 1 flows, 0 -> 2 and 2 -> 1 are cut.
    transport.schedule_at(0, seconds(15), [&] {
        transport.send(0, 1, str_bytes("in-group"));
        transport.send(0, 2, str_bytes("cross"));
        transport.send(2, 1, str_bytes("cross"));
    });
    // Post-heal: everything flows again.
    transport.schedule_at(0, seconds(25),
                          [&] { transport.send(0, 2, str_bytes("ok")); });
    drain(transport);
    EXPECT_EQ(delivered[1], 1);
    EXPECT_EQ(delivered[2], 1);
    EXPECT_EQ(transport.stats().dropped_partition, 2u);
    EXPECT_EQ(transport.stats().messages_dropped, 2u);
}

TEST(Conditions, OfflineWindowSilencesBothDirections) {
    NetworkConditions conditions;
    conditions.churn.push_back({1, seconds(5), seconds(10)});
    LinkParams params;
    params.jitter_fraction = 0.0;
    SimTransport transport(params, conditions);
    int delivered = 0;
    const NodeId a =
        transport.add_node([&](NodeId, const Bytes&) { ++delivered; });
    const NodeId b =
        transport.add_node([&](NodeId, const Bytes&) { ++delivered; });
    transport.schedule_at(0, seconds(7), [&] {
        EXPECT_FALSE(transport.online(b));
        transport.send(a, b, str_bytes("to-offline"));
        transport.send(b, a, str_bytes("from-offline"));
    });
    transport.schedule_at(0, seconds(12), [&] {
        EXPECT_TRUE(transport.online(b));
        transport.send(a, b, str_bytes("back"));
    });
    drain(transport);
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(transport.stats().dropped_offline, 2u);
}

TEST(Conditions, PerLinkOverridesApplyToOnePairOnly) {
    NetworkConditions conditions;
    LinkConditions lossy;
    lossy.a = 0;
    lossy.b = 2;
    lossy.loss_rate = 1.0;
    conditions.links.push_back(lossy);
    LinkConditions slow;
    slow.a = 0;
    slow.b = 1;
    LatencyDist fixed;
    fixed.kind = LatencyDist::Kind::fixed;
    fixed.base = ms(500);
    slow.latency = fixed;
    conditions.links.push_back(slow);
    LinkParams params;
    params.latency = ms(1);
    params.jitter_fraction = 0.0;
    params.bytes_per_us = 1000.0;
    SimTransport transport(params, conditions);
    std::vector<SimTime> arrived(3, 0);
    for (int i = 0; i < 3; ++i) {
        transport.add_node([&arrived, i, &transport](NodeId, const Bytes&) {
            arrived[i] = transport.now();
        });
    }
    transport.send(0, 2, str_bytes("dropped"));
    transport.send(0, 1, str_bytes("slow"));
    transport.send(1, 2, str_bytes("fast"));
    drain(transport);
    EXPECT_EQ(arrived[2], ms(1));            // default link untouched
    EXPECT_GE(arrived[1], ms(500));          // per-link fixed latency
    EXPECT_EQ(transport.stats().messages_dropped, 1u);
}

TEST(SimTransportNetwork, SelfSendIgnored) {
    SimTransport transport(LinkParams{});
    int deliveries = 0;
    const NodeId a =
        transport.add_node([&](NodeId, const Bytes&) { ++deliveries; });
    transport.send(a, a, str_bytes("loop"));
    drain(transport);
    EXPECT_EQ(deliveries, 0);
}

}  // namespace
}  // namespace bcfl::net
