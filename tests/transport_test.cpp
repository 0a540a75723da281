// Transport conformance suite: every behavioral guarantee Node and
// BcflPeer rely on, asserted against BOTH backends through the same
// net::Transport interface — the deterministic simulation and real
// loopback TCP sockets. A backend that passes here can run the full
// deployment (core/experiment.cpp drives exactly these calls).
//
// Test state is touched from the backend's delivery context (the sim step
// loop, or a TCP node's loop thread), so everything shared is an atomic or
// sits behind a mutex; run() predicates read atomics only, as the
// interface contract requires.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"

namespace bcfl::net {
namespace {

enum class Backend { sim, tcp };

std::unique_ptr<Transport> make_transport(Backend backend) {
    if (backend == Backend::tcp) {
        return std::make_unique<TcpTransport>();
    }
    // Zero jitter and loss: the sim guarantees per-pair FIFO only on a
    // jitter-free link, which is the regime the ordering test asserts.
    LinkParams link;
    link.jitter_fraction = 0.0;
    link.loss_rate = 0.0;
    return std::make_unique<SimTransport>(link, /*seed=*/7);
}

/// Per-node capture sink, safe for any delivery context.
struct Sink {
    std::mutex mu;
    std::vector<std::pair<NodeId, Bytes>> received;
    std::atomic<std::size_t> count{0};

    Transport::Receiver receiver() {
        return [this](NodeId from, const Bytes& message) {
            {
                std::lock_guard<std::mutex> lock(mu);
                received.emplace_back(from, message);
            }
            count.fetch_add(1, std::memory_order_release);
        };
    }
};

class TransportConformanceTest : public ::testing::TestWithParam<Backend> {
protected:
    /// Runs until `sink` has seen `expected` messages (or 30 s deadline —
    /// wall time on tcp, sim time on sim).
    static void run_until_count(Transport& transport, const Sink& sink,
                                std::size_t expected) {
        transport.run(
            [&] {
                return sink.count.load(std::memory_order_acquire) >= expected;
            },
            seconds(30));
    }
};

TEST_P(TransportConformanceTest, DeliversPayloadAndSender) {
    auto transport = make_transport(GetParam());
    Sink sink0;
    Sink sink1;
    ASSERT_EQ(transport->add_node(sink0.receiver()), 0u);
    ASSERT_EQ(transport->add_node(sink1.receiver()), 1u);
    transport->start();

    const Bytes payload = {0xde, 0xad, 0xbe, 0xef};
    transport->send(0, 1, payload);
    run_until_count(*transport, sink1, 1);
    transport->stop();

    ASSERT_EQ(sink1.received.size(), 1u);
    EXPECT_EQ(sink1.received[0].first, 0u);
    EXPECT_EQ(sink1.received[0].second, payload);
    EXPECT_TRUE(sink0.received.empty());
}

TEST_P(TransportConformanceTest, PerPairDeliveryIsFifo) {
    auto transport = make_transport(GetParam());
    Sink sender;
    Sink sink;
    transport->add_node(sender.receiver());
    transport->add_node(sink.receiver());
    transport->start();

    constexpr std::size_t kMessages = 64;
    for (std::size_t i = 0; i < kMessages; ++i) {
        transport->send(0, 1, Bytes{static_cast<std::uint8_t>(i)});
    }
    run_until_count(*transport, sink, kMessages);
    transport->stop();

    ASSERT_EQ(sink.received.size(), kMessages);
    for (std::size_t i = 0; i < kMessages; ++i) {
        EXPECT_EQ(sink.received[i].second[0], static_cast<std::uint8_t>(i))
            << "out of order at index " << i;
    }
}

TEST_P(TransportConformanceTest, BroadcastReachesEveryoneButSender) {
    auto transport = make_transport(GetParam());
    std::vector<std::unique_ptr<Sink>> sinks;
    for (std::size_t i = 0; i < 3; ++i) {
        sinks.push_back(std::make_unique<Sink>());
        transport->add_node(sinks.back()->receiver());
    }
    EXPECT_EQ(transport->node_count(), 3u);
    transport->start();

    transport->broadcast(0, Bytes{42});
    run_until_count(*transport, *sinks[1], 1);
    run_until_count(*transport, *sinks[2], 1);
    transport->stop();

    EXPECT_TRUE(sinks[0]->received.empty());
    ASSERT_EQ(sinks[1]->received.size(), 1u);
    ASSERT_EQ(sinks[2]->received.size(), 1u);
    EXPECT_EQ(sinks[1]->received[0].first, 0u);
    EXPECT_EQ(sinks[2]->received[0].second, Bytes{42});
}

TEST_P(TransportConformanceTest, OutOfRangeDestinationCountsDroppedInvalid) {
    auto transport = make_transport(GetParam());
    Sink sink;
    transport->add_node(sink.receiver());
    transport->add_node(sink.receiver());
    transport->start();

    transport->send(0, 99, Bytes{1, 2, 3});
    transport->stop();

    const TrafficStats stats = transport->stats();
    EXPECT_EQ(stats.messages_sent, 1u);
    EXPECT_EQ(stats.bytes_sent, 3u);
    EXPECT_EQ(stats.messages_dropped, 1u);
    EXPECT_EQ(stats.dropped_invalid, 1u);
    EXPECT_EQ(stats.messages_delivered, 0u);
}

TEST_P(TransportConformanceTest, OutOfRangeSenderCountsDroppedInvalid) {
    auto transport = make_transport(GetParam());
    Sink sink;
    transport->add_node(sink.receiver());
    transport->add_node(sink.receiver());
    transport->start();

    transport->send(99, 0, Bytes{1, 2, 3});
    transport->stop();

    const TrafficStats stats = transport->stats();
    EXPECT_EQ(stats.messages_sent, 1u);
    EXPECT_EQ(stats.bytes_sent, 3u);
    EXPECT_EQ(stats.messages_dropped, 1u);
    EXPECT_EQ(stats.dropped_invalid, 1u);
    EXPECT_EQ(stats.messages_delivered, 0u);
}

TEST_P(TransportConformanceTest, SelfSendIsSilentlyIgnored) {
    auto transport = make_transport(GetParam());
    Sink sink;
    transport->add_node(sink.receiver());
    transport->add_node(sink.receiver());
    transport->start();
    transport->send(0, 0, Bytes{9});
    transport->stop();

    const TrafficStats stats = transport->stats();
    EXPECT_EQ(stats.messages_sent, 0u);
    EXPECT_EQ(stats.dropped_invalid, 0u);
    EXPECT_TRUE(sink.received.empty());
}

TEST_P(TransportConformanceTest, OnlineTracksRegisteredNodes) {
    auto transport = make_transport(GetParam());
    Sink sink;
    transport->add_node(sink.receiver());
    transport->add_node(sink.receiver());
    EXPECT_TRUE(transport->online(0));
    EXPECT_TRUE(transport->online(1));
    EXPECT_FALSE(transport->online(2));
    EXPECT_FALSE(transport->online(99));
}

TEST_P(TransportConformanceTest, ScheduledHandlerFiresAfterDelay) {
    auto transport = make_transport(GetParam());
    Sink sink;
    const NodeId node = transport->add_node(sink.receiver());
    transport->start();

    const SimTime before = transport->now();
    std::atomic<bool> fired{false};
    std::atomic<SimTime> fired_at{0};
    transport->schedule_after(node, ms(50), [&] {
        fired_at.store(transport->now(), std::memory_order_relaxed);
        fired.store(true, std::memory_order_release);
    });
    transport->run([&] { return fired.load(std::memory_order_acquire); },
                   seconds(30));
    transport->stop();

    ASSERT_TRUE(fired.load());
    EXPECT_GE(fired_at.load(), before + ms(50));
}

TEST_P(TransportConformanceTest, ScheduleAtClampsPastDeadlinesToNow) {
    auto transport = make_transport(GetParam());
    Sink sink;
    const NodeId node = transport->add_node(sink.receiver());
    transport->start();

    std::atomic<bool> fired{false};
    // `when` of 0 is always in the past; the helper must clamp, not wrap.
    transport->schedule_at(node, 0, [&] {
        fired.store(true, std::memory_order_release);
    });
    transport->run([&] { return fired.load(std::memory_order_acquire); },
                   seconds(30));
    transport->stop();
    EXPECT_TRUE(fired.load());
}

TEST_P(TransportConformanceTest, NowIsMonotone) {
    auto transport = make_transport(GetParam());
    Sink sink;
    const NodeId node = transport->add_node(sink.receiver());
    transport->start();

    std::atomic<std::size_t> fired{0};
    std::mutex mu;
    std::vector<SimTime> stamps;
    for (std::size_t i = 0; i < 5; ++i) {
        transport->schedule_after(node, ms(10) * (i + 1), [&] {
            {
                std::lock_guard<std::mutex> lock(mu);
                stamps.push_back(transport->now());
            }
            fired.fetch_add(1, std::memory_order_release);
        });
    }
    transport->run(
        [&] { return fired.load(std::memory_order_acquire) >= 5; },
        seconds(30));
    transport->stop();

    ASSERT_EQ(stamps.size(), 5u);
    for (std::size_t i = 1; i < stamps.size(); ++i) {
        EXPECT_GE(stamps[i], stamps[i - 1]);
    }
}

TEST_P(TransportConformanceTest, StatsBalanceAfterQuiescence) {
    auto transport = make_transport(GetParam());
    Sink sink0;
    Sink sink1;
    transport->add_node(sink0.receiver());
    transport->add_node(sink1.receiver());
    transport->start();

    constexpr std::size_t kEach = 16;
    for (std::size_t i = 0; i < kEach; ++i) {
        transport->send(0, 1, Bytes{1});
        transport->send(1, 0, Bytes{2});
    }
    run_until_count(*transport, sink0, kEach);
    run_until_count(*transport, sink1, kEach);
    transport->stop();

    // Lossless link, everything drained: sent == delivered, no drops.
    const TrafficStats stats = transport->stats();
    EXPECT_EQ(stats.messages_sent, 2 * kEach);
    EXPECT_EQ(stats.messages_delivered, 2 * kEach);
    EXPECT_EQ(stats.messages_dropped, 0u);
    EXPECT_EQ(stats.dropped_invalid, 0u);
    EXPECT_EQ(stats.bytes_sent, 2 * kEach);
}

TEST_P(TransportConformanceTest, EmptyMessageIsDelivered) {
    auto transport = make_transport(GetParam());
    Sink sink0;
    Sink sink1;
    transport->add_node(sink0.receiver());
    transport->add_node(sink1.receiver());
    transport->start();

    // A zero-length payload is a message like any other, and the link
    // keeps carrying what follows it.
    transport->send(0, 1, Bytes{});
    transport->send(0, 1, Bytes{7});
    run_until_count(*transport, sink1, 2);
    transport->stop();

    ASSERT_EQ(sink1.received.size(), 2u);
    EXPECT_TRUE(sink1.received[0].second.empty());
    EXPECT_EQ(sink1.received[1].second, Bytes{7});
    const TrafficStats stats = transport->stats();
    EXPECT_EQ(stats.messages_delivered, 2u);
    EXPECT_EQ(stats.messages_dropped, 0u);
}

TEST_P(TransportConformanceTest, LargeFramesBothWays) {
    // Each message is far past the loopback socket buffers, and both nodes
    // send at once: TCP has to queue partial writes and flush them while
    // it keeps reading, or the two ends deadlock.
    constexpr std::size_t kFrames = 3;
    constexpr std::size_t kFrameBytes = std::size_t{24} << 20;
    std::vector<Bytes> frames(kFrames, Bytes(kFrameBytes));
    for (std::size_t k = 0; k < kFrames; ++k) {
        for (std::size_t i = 0; i < kFrameBytes; ++i) {
            frames[k][i] = static_cast<std::uint8_t>(i * 131 + i / 4096 + k);
        }
    }
    // Compares each arrival with its original instead of keeping a copy.
    struct Checker {
        const std::vector<Bytes>* frames = nullptr;
        std::atomic<std::size_t> count{0};
        std::atomic<std::size_t> intact{0};

        Transport::Receiver receiver() {
            return [this](NodeId, const Bytes& message) {
                // FIFO from the one peer: arrival k is frame k.
                const std::size_t k = count.load(std::memory_order_relaxed);
                if (k < frames->size() && message == (*frames)[k]) {
                    intact.fetch_add(1, std::memory_order_relaxed);
                }
                count.fetch_add(1, std::memory_order_release);
            };
        }
    };
    auto transport = make_transport(GetParam());
    Checker checker0;
    Checker checker1;
    checker0.frames = &frames;
    checker1.frames = &frames;
    transport->add_node(checker0.receiver());
    transport->add_node(checker1.receiver());
    transport->start();

    for (const Bytes& frame : frames) {
        transport->send(0, 1, frame);
        transport->send(1, 0, frame);
    }
    transport->run(
        [&] {
            return checker0.count.load(std::memory_order_acquire) >= kFrames &&
                   checker1.count.load(std::memory_order_acquire) >= kFrames;
        },
        seconds(30));
    transport->stop();

    EXPECT_EQ(checker0.count.load(), kFrames);
    EXPECT_EQ(checker1.count.load(), kFrames);
    EXPECT_EQ(checker0.intact.load(), kFrames);
    EXPECT_EQ(checker1.intact.load(), kFrames);
    const TrafficStats stats = transport->stats();
    EXPECT_EQ(stats.messages_delivered, 2 * kFrames);
    EXPECT_EQ(stats.messages_dropped, 0u);
    EXPECT_EQ(stats.bytes_sent, 2 * kFrames * kFrameBytes);
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformanceTest,
                         ::testing::Values(Backend::sim, Backend::tcp),
                         [](const auto& info) {
                             return info.param == Backend::sim ? "Sim"
                                                               : "Tcp";
                         });

/// Threads of this process, from /proc/self/status (0 if unreadable).
std::size_t process_threads() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
    }
    return 0;
}

/// Descriptors of this process that are listening sockets.
std::size_t listening_sockets() {
    std::size_t listeners = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        const int fd = std::stoi(entry.path().filename().string());
        int accepting = 0;
        socklen_t length = sizeof(accepting);
        if (::getsockopt(fd, SOL_SOCKET, SO_ACCEPTCONN, &accepting,
                         &length) == 0 &&
            accepting != 0) {
            ++listeners;
        }
    }
    return listeners;
}

// TCP-only: start() builds the whole mesh through a listener that is
// closed before it returns, so no other local process can connect and
// pose as a node, and each node costs exactly one thread.
TEST(TcpTransportTest, StartAddsOneThreadPerNodeAndNoListener) {
    TcpTransport transport;
    std::vector<std::unique_ptr<Sink>> sinks;
    for (std::size_t i = 0; i < 4; ++i) {
        sinks.push_back(std::make_unique<Sink>());
        transport.add_node(sinks.back()->receiver());
    }
    // A sanitizer runtime may start a helper thread on the process's first
    // thread creation; have that happen here, outside the count.
    std::thread([] {}).join();
    const std::size_t threads_before = process_threads();
    ASSERT_GT(threads_before, 0u);
    transport.start();
    EXPECT_EQ(process_threads(), threads_before + 4);
    EXPECT_EQ(listening_sockets(), 0u);
    transport.stop();
}

// TCP-only (the sim is single-threaded by design): hammers stats(),
// send() and schedule_after() from concurrent client threads while the
// main thread races stop() against them, then checks the traffic
// accounting balance. The asan/tsan CI jobs run this suite, so every
// interleaving TSan catches here is a gate; the lock-discipline side of
// the same contract is compile-time (-Wthread-safety, see
// docs/development.md). Everything shared is an atomic — no clocks, no
// sleeps, so the schedule is as adversarial as the host allows.
TEST(TcpTransportStressTest, ConcurrentSendStatsScheduleSurviveStop) {
    TcpTransport transport;
    std::vector<std::unique_ptr<Sink>> sinks;
    for (std::size_t i = 0; i < 3; ++i) {
        sinks.push_back(std::make_unique<Sink>());
        transport.add_node(sinks.back()->receiver());
    }
    transport.start();

    // run() on its own thread: it opens the dispatch gate and returns
    // once stop() flips stopping_ (the 30 s deadline is a hang guard).
    std::thread runner(
        [&] { transport.run([] { return false; }, seconds(30)); });

    constexpr std::size_t kSendsPerSender = 2000;
    constexpr std::size_t kTimers = 200;
    const Bytes payload = {1, 2, 3, 4};
    std::atomic<bool> done{false};
    std::atomic<std::size_t> timers_fired{0};

    // Two senders on fixed pairs, polling stats() as they go; a third
    // thread schedules timers; a fourth polls stats() until shutdown.
    std::thread sender_a([&] {
        for (std::size_t i = 0; i < kSendsPerSender; ++i) {
            transport.send(0, 1, payload);
            if (i % 64 == 0) (void)transport.stats();
        }
    });
    std::thread sender_b([&] {
        for (std::size_t i = 0; i < kSendsPerSender; ++i) {
            transport.send(1, 2, payload);
            if (i % 64 == 0) (void)transport.stats();
        }
    });
    std::thread scheduler([&] {
        for (std::size_t i = 0; i < kTimers; ++i) {
            transport.schedule_after(i % 3, ms(1), [&] {
                timers_fired.fetch_add(1, std::memory_order_relaxed);
            });
            std::this_thread::yield();
        }
    });
    std::thread poller([&] {
        while (!done.load(std::memory_order_acquire)) {
            const TrafficStats snap = transport.stats();
            EXPECT_LE(snap.messages_delivered, snap.messages_sent);
            std::this_thread::yield();
        }
    });

    // Let deliveries get going, then race stop() against the clients
    // still in flight (sends after stop are counted drops, stats()
    // and schedule_after() must stay safe).
    while (sinks[1]->count.load(std::memory_order_acquire) +
               sinks[2]->count.load(std::memory_order_acquire) <
           kSendsPerSender / 4) {
        std::this_thread::yield();
    }
    transport.stop();

    sender_a.join();
    sender_b.join();
    scheduler.join();
    done.store(true, std::memory_order_release);
    poller.join();
    runner.join();

    // Accounting balance: every send() was counted exactly once; what
    // was not delivered was either dropped (sent after stop) or still
    // queued/in flight when the loops shut down.
    const TrafficStats stats = transport.stats();
    EXPECT_EQ(stats.messages_sent, 2 * kSendsPerSender);
    EXPECT_EQ(stats.bytes_sent, payload.size() * 2 * kSendsPerSender);
    EXPECT_LE(stats.messages_delivered + stats.messages_dropped,
              stats.messages_sent);
    EXPECT_EQ(stats.dropped_invalid, 0u);
    // Every delivery the transport counted reached a receiver (loop
    // threads are joined by stop(), so no delivery is mid-callback).
    EXPECT_EQ(stats.messages_delivered,
              sinks[1]->count.load() + sinks[2]->count.load());
    EXPECT_TRUE(sinks[0]->received.empty());
    EXPECT_LE(timers_fired.load(), kTimers);
}

}  // namespace
}  // namespace bcfl::net
