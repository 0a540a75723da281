// E3 — chain-performance axes behind the paper's Figure-2 workflow. The
// block-interval law (E3b, E5a) and the block propagation delay (E3c) are
// exact assertions in tests/node_test.cpp and tests/net_test.cpp; the two
// sections here each carry a cross-compiler-deterministic "parity" subtree
// that bench_compare.py gates exactly:
//
//   (d) long-chain import/reorg scaling: per-import cost at height H must
//       be flat (O(new work)), not grow with H — the regression axis for
//       the chain-index overhaul;
//   (e) peers-axis scaling: flood dissemination over the flat full mesh vs
//       the hierarchical committee overlay (core/topology.hpp) at
//       16/64/256 peers, with pure-integer topology facts as parity.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chain/blockchain.hpp"
#include "chain/pow.hpp"
#include "core/topology.hpp"
#include "crypto/keccak.hpp"
#include "net/sim_transport.hpp"

namespace {

using namespace bcfl;

double us_since(std::chrono::steady_clock::time_point begin) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

/// E3d — grows a 512-block chain with steady tx traffic, recording the
/// wall time of every import, then forces a 32-deep reorg. Pure integer /
/// hash arithmetic (no simulation, no floating point), so the counts and
/// the canonical tx ordering are byte-stable across compilers — they form
/// the gated "parity" subtree. Timings are informational.
void run_long_chain(bench::Json& json) {
    using namespace bcfl::chain;
    bench::print_title(
        "E3d — long-chain import & reorg scaling "
        "(per-import cost must stay flat in height: O(new work), not O(H))");
    const auto section_begin = std::chrono::steady_clock::now();

    ChainConfig config;
    config.initial_difficulty = 64;
    config.min_difficulty = 64;
    config.fixed_difficulty = true;
    Blockchain main_chain(config, std::make_shared<NullExecutor>());
    Blockchain fork_builder(config, std::make_shared<NullExecutor>());

    constexpr std::size_t kBlocks = 512;
    constexpr std::size_t kTxsPerBlock = 3;
    constexpr std::size_t kSenders = 8;
    constexpr std::uint64_t kForkDepth = 32;
    const std::uint64_t fork_height = kBlocks - kForkDepth;

    std::vector<crypto::KeyPair> keys;
    for (std::size_t s = 0; s < kSenders; ++s) {
        keys.push_back(crypto::KeyPair::from_seed(900 + s));
    }
    std::vector<std::uint64_t> nonces(kSenders, 0);
    std::uint64_t ts = 0;
    const auto seal_on = [&](Blockchain& builder,
                             std::vector<Transaction> txs) {
        Block block =
            builder.build_block(crypto::KeyPair::from_seed(880).address(),
                                std::move(txs), ts += 1000);
        block.header.pow_nonce =
            *mine_seal(block.header, 0, 100'000'000);
        return block;
    };

    // Main chain: 512 blocks of steady traffic, per-import latency logged.
    std::vector<double> import_us(kBlocks, 0.0);
    for (std::size_t b = 0; b < kBlocks; ++b) {
        std::vector<Transaction> txs;
        for (std::size_t t = 0; t < kTxsPerBlock; ++t) {
            const std::size_t s = (b * kTxsPerBlock + t) % kSenders;
            txs.push_back(Transaction::make_signed(
                keys[s], nonces[s]++, Address{}, 100'000, 1 + s,
                str_bytes("long-chain payload")));
        }
        const Block block = seal_on(main_chain, txs);
        const auto begin = std::chrono::steady_clock::now();
        const ImportResult result = main_chain.import_block(block);
        import_us[b] = us_since(begin);
        if (result.status != ImportStatus::added_head) {
            std::printf("long_chain: unexpected import failure at %zu: %s\n",
                        b, result.reason.c_str());
            return;
        }
        if (block.header.number <= fork_height) {
            fork_builder.import_block(block);
        }
    }

    // Scripted deep reorg: a 33-block side branch from 32 below the tip
    // overtakes on total difficulty; the switch must only touch the
    // divergent suffix.
    std::vector<crypto::KeyPair> side_keys;
    for (std::size_t s = 0; s < 4; ++s) {
        side_keys.push_back(crypto::KeyPair::from_seed(950 + s));
    }
    std::vector<std::uint64_t> side_nonces(side_keys.size(), 0);
    double reorg_us = 0.0;
    std::uint64_t abandoned = 0;
    for (std::uint64_t i = 0; i <= kForkDepth; ++i) {
        std::vector<Transaction> txs;
        for (std::size_t t = 0; t < 2; ++t) {
            const std::size_t s = (i * 2 + t) % side_keys.size();
            txs.push_back(Transaction::make_signed(
                side_keys[s], side_nonces[s]++, Address{}, 100'000, 2,
                str_bytes("fork payload")));
        }
        const Block block = seal_on(fork_builder, txs);
        if (fork_builder.import_block(block).status !=
            ImportStatus::added_head) {
            std::printf("long_chain: fork builder rejected its block\n");
            return;
        }
        const auto begin = std::chrono::steady_clock::now();
        const ImportResult result = main_chain.import_block(block);
        const double elapsed = us_since(begin);
        if (i == kForkDepth) {
            reorg_us = elapsed;
            abandoned = result.abandoned_txs.size();
            if (result.status != ImportStatus::added_head ||
                !result.reorged) {
                std::printf("long_chain: final fork block did not reorg\n");
                return;
            }
        }
    }

    // Windowed means over the import-latency series.
    struct Window {
        std::size_t lo, hi;
    };
    const Window windows[] = {{16, 80}, {224, 288}, {448, 512}};
    std::printf("%16s %20s\n", "height window", "mean import (us)");
    bench::Json window_points = bench::Json::array();
    double early_mean = 0.0;
    double late_mean = 0.0;
    for (const Window& w : windows) {
        double sum = 0.0;
        for (std::size_t i = w.lo; i < w.hi; ++i) sum += import_us[i];
        const double mean = sum / static_cast<double>(w.hi - w.lo);
        if (w.lo == windows[0].lo) early_mean = mean;
        late_mean = mean;
        std::printf("     [%3zu, %3zu) %20.1f\n", w.lo, w.hi, mean);
        bench::Json point = bench::Json::object();
        point.set("height_lo", static_cast<std::uint64_t>(w.lo));
        point.set("height_hi", static_cast<std::uint64_t>(w.hi));
        point.set("mean_import_us", mean);
        window_points.push(std::move(point));
    }
    const double ratio = early_mean > 0.0 ? late_mean / early_mean : 0.0;
    std::printf("late/early import ratio: %.2f (flat = O(new work); the "
                "pre-overhaul O(height) paths grew this linearly)\n",
                ratio);
    std::printf("reorg depth %llu: %.1f us, %llu abandoned txs\n",
                static_cast<unsigned long long>(kForkDepth), reorg_us,
                static_cast<unsigned long long>(abandoned));

    // Parity: deterministic counts + canonical tx ordering, cross-checked
    // against a from-scratch parent-link walk of the head branch.
    bool index_consistent = true;
    {
        Hash32 cursor = main_chain.head_hash();
        std::uint64_t number = main_chain.height();
        while (true) {
            const Block* walked = main_chain.block_by_hash(cursor);
            const Block* indexed = main_chain.block_by_number(number);
            if (walked == nullptr || indexed == nullptr ||
                walked->hash() != indexed->hash()) {
                index_consistent = false;
                break;
            }
            if (number == 0) break;
            cursor = walked->header.parent_hash;
            --number;
        }
    }
    Bytes ordering;
    std::uint64_t canonical_txs = 0;
    for (std::uint64_t n = 1; n <= main_chain.height(); ++n) {
        const Block* block = main_chain.block_by_number(n);
        if (block == nullptr) {
            index_consistent = false;
            break;
        }
        for (const Transaction& tx : block->transactions) {
            append(ordering, tx.hash().view());
            ++canonical_txs;
        }
    }
    const Hash32 digest = crypto::keccak256(ordering);

    bench::Json section = bench::Json::object();
    section.set("blocks", static_cast<std::uint64_t>(kBlocks));
    section.set("txs_per_block", static_cast<std::uint64_t>(kTxsPerBlock));
    section.set("fork_depth", kForkDepth);
    section.set("window_points", std::move(window_points));
    section.set("late_vs_early_import_ratio", ratio);
    section.set("reorg_wall_us", reorg_us);
    section.set("long_chain_wall_ms", bench::ms_since(section_begin));
    bench::Json parity = bench::Json::object();
    parity.set("head_number", main_chain.height());
    parity.set("total_blocks",
               static_cast<std::uint64_t>(main_chain.total_blocks()));
    parity.set("canonical_txs", canonical_txs);
    parity.set("abandoned_in_reorg", abandoned);
    parity.set("index_consistent", index_consistent ? 1 : 0);
    parity.set("canonical_tx_digest", "0x" + digest.hex());
    section.set("parity", std::move(parity));
    json.set("long_chain", std::move(section));
}

struct FloodResult {
    /// Nodes that received the payload at least once (must equal the
    /// roster for the overlay to be a working broadcast medium).
    std::size_t covered = 0;
    std::uint64_t messages_sent = 0;
    std::uint64_t bytes_sent = 0;
    /// Simulated time until the last first-receipt.
    double coverage_ms = 0.0;
};

/// Naive flood over a fixed adjacency: every node forwards the payload to
/// all neighbors (except the sender) on first receipt. With shared
/// uplinks, a node's broadcast serializes — the cost model that makes a
/// full mesh superlinear in the roster while the committee overlay keeps
/// per-node fan-out bounded by the cluster size / head count.
FloodResult measure_flood(
    const std::vector<std::vector<std::size_t>>& adjacency,
    std::size_t origin, std::size_t payload_bytes) {
    net::LinkParams link;
    link.latency = net::ms(20);
    link.bytes_per_us = 2.5;  // 20 Mbit/s shared uplink
    link.jitter_fraction = 0.0;
    net::SimTransport transport(link, 23);

    const std::size_t count = adjacency.size();
    std::vector<bool> seen(count, false);
    net::SimTime last_receipt = 0;
    std::size_t covered = 0;
    for (std::size_t i = 0; i < count; ++i) {
        transport.add_node([&, i](net::NodeId from, const Bytes& payload) {
            if (seen[i]) return;
            seen[i] = true;
            ++covered;
            last_receipt = transport.now();
            for (std::size_t neighbor : adjacency[i]) {
                if (neighbor == static_cast<std::size_t>(from)) continue;
                transport.send(static_cast<net::NodeId>(i),
                               static_cast<net::NodeId>(neighbor), payload);
            }
        });
    }
    seen[origin] = true;
    ++covered;
    const Bytes payload(payload_bytes, 0x5a);
    for (std::size_t neighbor : adjacency[origin]) {
        transport.send(static_cast<net::NodeId>(origin),
                       static_cast<net::NodeId>(neighbor), payload);
    }
    // No miners: the queue drains.
    transport.run([] { return false; }, net::kMaxDuration);

    FloodResult result;
    result.covered = covered;
    result.messages_sent = transport.stats().messages_sent;
    result.bytes_sent = transport.stats().bytes_sent;
    result.coverage_ms = static_cast<double>(last_receipt) / 1000.0;
    return result;
}

/// E3e — the participants axis. Every model tx and block of a flat
/// deployment crosses a full mesh; this section isolates that
/// dissemination cost at 16/64/256 peers and contrasts it with the
/// hierarchical committee overlay the topology
/// layer builds (heads mesh among themselves and fan out to their own
/// members). All roster/edge/message counts and the adjacency digest are
/// pure integer arithmetic — they form the gated "parity" subtree;
/// simulated coverage times are informational.
void run_scaling(bench::Json& json) {
    bench::print_title(
        "E3e — dissemination scaling vs participants: flat full mesh vs "
        "hierarchical committee overlay (64 KB payload, 20 Mbit/s)");
    const auto section_begin = std::chrono::steady_clock::now();
    constexpr std::size_t kPayload = 64 * 1024;

    std::printf("%8s %10s %14s %18s %14s %18s\n", "peers", "topology",
                "overlay edges", "flood messages", "coverage", "time (ms)");
    bench::Json points = bench::Json::array();
    const struct {
        std::size_t peers;
        std::size_t cluster_size;
    } axis[] = {{16, 4}, {64, 8}, {256, 16}};
    for (const auto& [peers, cluster_size] : axis) {
        // Flat: the full mesh every pre-topology deployment gossips over.
        std::vector<std::vector<std::size_t>> mesh(peers);
        for (std::size_t i = 0; i < peers; ++i) {
            for (std::size_t j = 0; j < peers; ++j) {
                if (j != i) mesh[i].push_back(j);
            }
        }
        // Hierarchical: the overlay core/experiment.cpp wires for a
        // resolved topology — heads mesh + per-cluster stars.
        core::TopologyConfig config;
        config.cluster_size = cluster_size;
        const core::ResolvedTopology topo =
            core::resolve_topology(config, peers);
        std::vector<std::vector<std::size_t>> overlay(peers);
        for (std::size_t k = 0; k < topo.clusters.size(); ++k) {
            const std::size_t head = topo.heads[k];
            for (std::size_t other : topo.heads) {
                if (other != head) overlay[head].push_back(other);
            }
            for (std::size_t member : topo.clusters[k]) {
                if (member == head) continue;
                overlay[head].push_back(member);
                overlay[member].push_back(head);
            }
            std::sort(overlay[head].begin(), overlay[head].end());
        }

        const auto edge_count =
            [](const std::vector<std::vector<std::size_t>>& adjacency) {
                std::uint64_t degrees = 0;
                for (const auto& neighbors : adjacency) {
                    degrees += neighbors.size();
                }
                return degrees / 2;
            };
        const auto digest_of =
            [](const std::vector<std::vector<std::size_t>>& adjacency) {
                Bytes wire;
                for (std::size_t i = 0; i < adjacency.size(); ++i) {
                    append(wire, be_bytes(static_cast<std::uint64_t>(i)));
                    for (std::size_t neighbor : adjacency[i]) {
                        append(wire, be_bytes(
                                         static_cast<std::uint64_t>(neighbor)));
                    }
                }
                return crypto::keccak256(wire);
            };

        const FloodResult flat =
            measure_flood(mesh, /*origin=*/0, kPayload);
        const FloodResult tiered =
            measure_flood(overlay, topo.top_head, kPayload);
        std::printf("%8zu %10s %14llu %18llu %11zu/%zu %18.1f\n", peers,
                    "flat", static_cast<unsigned long long>(edge_count(mesh)),
                    static_cast<unsigned long long>(flat.messages_sent),
                    flat.covered, peers, flat.coverage_ms);
        std::printf("%8zu %10s %14llu %18llu %11zu/%zu %18.1f\n", peers,
                    "tiered",
                    static_cast<unsigned long long>(edge_count(overlay)),
                    static_cast<unsigned long long>(tiered.messages_sent),
                    tiered.covered, peers, tiered.coverage_ms);

        bench::Json point = bench::Json::object();
        point.set("participants", static_cast<std::uint64_t>(peers));
        point.set("cluster_size", static_cast<std::uint64_t>(cluster_size));
        point.set("flat_coverage_ms", flat.coverage_ms);
        point.set("tiered_coverage_ms", tiered.coverage_ms);
        point.set("flat_bytes_sent", flat.bytes_sent);
        point.set("tiered_bytes_sent", tiered.bytes_sent);
        bench::Json parity = bench::Json::object();
        parity.set("participants", static_cast<std::uint64_t>(peers));
        parity.set("clusters",
                   static_cast<std::uint64_t>(topo.clusters.size()));
        parity.set("heads", static_cast<std::uint64_t>(topo.heads.size()));
        parity.set("max_cluster_size",
                   static_cast<std::uint64_t>(topo.max_cluster_size()));
        parity.set("flat_edges", edge_count(mesh));
        parity.set("overlay_edges", edge_count(overlay));
        parity.set("flat_flood_messages", flat.messages_sent);
        parity.set("tiered_flood_messages", tiered.messages_sent);
        parity.set("flat_covered", static_cast<std::uint64_t>(flat.covered));
        parity.set("tiered_covered",
                   static_cast<std::uint64_t>(tiered.covered));
        parity.set("overlay_digest", "0x" + digest_of(overlay).hex());
        point.set("parity", std::move(parity));
        points.push(std::move(point));
    }

    bench::Json section = bench::Json::object();
    section.set("payload_bytes", static_cast<std::uint64_t>(kPayload));
    section.set("points", std::move(points));
    section.set("scaling_wall_ms", bench::ms_since(section_begin));
    json.set("scaling", std::move(section));
}

void BM_ChainPerformance(benchmark::State& state) {
    for (auto _ : state) {
        bench::Json json = bench::Json::object();
        json.set("bench", "chain_performance");
        // Both sections are single-threaded; wall time per section is
        // recorded so the chain and event-loop cost is tracked cross-PR
        // (the parallel-engine speedups live in
        // BENCH_micro_substrates.json).
        run_long_chain(json);
        run_scaling(json);
        bench::write_bench_json("chain_performance", json);
    }
}

}  // namespace

BENCHMARK(BM_ChainPerformance)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK_MAIN();
