// E3 — chain-performance claims from §II-A2 (the background the paper builds
// its asynchronous-aggregation argument on) plus the Figure-2 workflow:
//
//   (a) throughput and inclusion latency vs number of participants — prior
//       work reports throughput roughly halving when participants double;
//   (b) block interval vs PoW difficulty at fixed hash rate;
//   (c) block propagation delay vs payload (model) size;
//   (d) long-chain import/reorg scaling: per-import cost at height H must
//       be flat (O(new work)), not grow with H — the regression axis for
//       the chain-index overhaul, with a cross-compiler-deterministic
//       "parity" subtree that bench_compare.py gates exactly;
//   (e) peers-axis scaling past the 16-participant ceiling of (a): flood
//       dissemination over the flat full mesh vs the hierarchical
//       committee overlay (core/topology.hpp) at 16/64/256 peers, with a
//       parity subtree of pure-integer topology facts.
//
// BCFL_CHAIN_BENCH_SECTIONS=long_chain,scaling (comma list of throughput,
// difficulty, propagation, long_chain, scaling) restricts a run to the
// named sections — CI runs only the deterministic axes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "chain/blockchain.hpp"
#include "chain/pow.hpp"
#include "core/topology.hpp"
#include "crypto/keccak.hpp"
#include "net/sim_transport.hpp"
#include "node/node.hpp"
#include "vm/registry_contract.hpp"

namespace {

using namespace bcfl;
namespace abi = vm::registry_abi;

bool section_enabled(const std::string& name) {
    // getenv: the bench harness reads its section filter on the main
    // thread during registration, before any benchmark (or engine worker)
    // runs; nothing in the tree calls setenv.
    const char* env =
        std::getenv("BCFL_CHAIN_BENCH_SECTIONS");  // NOLINT(concurrency-mt-unsafe)
    if (env == nullptr || *env == '\0') return true;
    const std::string list(env);
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t end = list.find(',', start);
        const std::string token =
            list.substr(start, end == std::string::npos ? std::string::npos
                                                        : end - start);
        if (token == name) return true;
        if (end == std::string::npos) break;
        start = end + 1;
    }
    return false;
}

double us_since(std::chrono::steady_clock::time_point begin) {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

struct ThroughputPoint {
    std::size_t participants;
    double txs_per_second;
    double mean_inclusion_latency_s;
    double mean_block_interval_s;
};

/// Saturates the chain with chunk transactions at a fixed *total* offered
/// load and measures canonical throughput. Block capacity is bounded by the
/// gas limit and every block must reach every peer over a shared 20 Mbit/s
/// uplink, so doubling the participant count inflates propagation time,
/// multiplies gossip copies and erodes effective throughput — the
/// degradation SS II-A2 cites.
ThroughputPoint measure_throughput(std::size_t participants,
                                   std::size_t payload_bytes,
                                   net::SimTime horizon) {
    net::LinkParams link;
    link.bytes_per_us = 2.5;   // 20 Mbit/s shared uplink
    link.latency = net::ms(20);
    net::SimTransport transport(link, 17);
    chain::ChainConfig chain_config;
    chain_config.initial_difficulty = 1200;
    chain_config.min_difficulty = 64;
    chain_config.target_interval_ms = 4000;
    chain_config.block_gas_limit = 8'000'000;  // ~ a dozen chunk txs / block

    std::vector<std::unique_ptr<node::Node>> nodes;
    for (std::size_t i = 0; i < participants; ++i) {
        node::NodeConfig config;
        config.chain = chain_config;
        config.key_seed = 100 + i;
        config.hash_rate = 2400.0 / static_cast<double>(participants);
        config.rng_seed = 50 + i;
        nodes.push_back(std::make_unique<node::Node>(transport, config));
    }
    for (auto& node : nodes) node->start();

    // Fixed total offered load: 4 chunk txs per second across all senders.
    std::vector<std::uint64_t> nonces(participants, 0);
    std::unordered_map<Hash32, net::SimTime, FixedBytesHasher> submit_time;
    const Bytes payload(payload_bytes, 0x37);
    const net::SimTime period =
        net::seconds(1) * participants / 4;  // per-sender period
    std::function<void(std::size_t)> spam = [&](std::size_t i) {
        auto tx = chain::Transaction::make_signed(
            nodes[i]->key(), nonces[i]++, vm::registry_address(),
            21'000 + 16 * (payload.size() + 100) + 400'000, 1,
            abi::chunk_calldata(1, nonces[i], payload));
        submit_time[tx.hash()] = transport.now();
        nodes[i]->submit_tx(tx);
        if (transport.now() + period < horizon) {
            transport.schedule_after(static_cast<net::NodeId>(i), period,
                                     [&, i] { spam(i); });
        }
    };
    for (std::size_t i = 0; i < participants; ++i) spam(i);
    transport.run_until(horizon);

    // Measure from node 0's canonical chain.
    const auto& chain = nodes[0]->chain();
    std::size_t mined = 0;
    double latency_sum = 0.0;
    std::size_t latency_samples = 0;
    for (std::uint64_t n = 1; n <= chain.height(); ++n) {
        const chain::Block* block = chain.block_by_number(n);
        mined += block->transactions.size();
        for (const auto& tx : block->transactions) {
            const auto it = submit_time.find(tx.hash());
            if (it == submit_time.end()) continue;
            const double latency =
                static_cast<double>(block->header.timestamp_ms) / 1000.0 -
                net::to_seconds(it->second);
            if (latency >= 0) {
                latency_sum += latency;
                ++latency_samples;
            }
        }
    }

    ThroughputPoint point;
    point.participants = participants;
    point.txs_per_second =
        static_cast<double>(mined) / net::to_seconds(horizon);
    point.mean_inclusion_latency_s =
        latency_samples ? latency_sum / static_cast<double>(latency_samples)
                        : 0.0;
    point.mean_block_interval_s =
        chain.height() > 0
            ? net::to_seconds(horizon) / static_cast<double>(chain.height())
            : 0.0;
    return point;
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
    link.bytes_per_us = 2.5;  // 20 Mbit/s shared uplink, as in E3a
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

/// E3e — the participants axis past 16. E3a's full deployment saturates
/// well before 64 peers because every model tx and block crosses a full
/// mesh; this section isolates the dissemination cost at 16/64/256 peers
/// and contrasts it with the hierarchical committee overlay the topology
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
        // The chain sections run the deterministic discrete-event loop,
        // which is inherently single-threaded; wall time per section is
        // recorded so the event-loop cost itself is tracked cross-PR (the
        // parallel-engine speedups live in BENCH_micro_substrates.json).

        bench::Json throughput_points = bench::Json::array();
        if (section_enabled("throughput")) {
            bench::print_title(
                "E3a — throughput & inclusion latency vs participants "
                "(64 KB chunk txs, saturated, 20 Mbit/s shared uplinks)");
            std::printf("%12s %14s %22s %20s\n", "participants", "txs/s",
                        "inclusion latency (s)", "block interval (s)");
            const auto throughput_begin = std::chrono::steady_clock::now();
            for (std::size_t n : {2, 4, 8, 16}) {
                const ThroughputPoint p =
                    measure_throughput(n, 64 * 1024, net::seconds(200));
                std::printf("%12zu %14.3f %22.2f %20.2f\n", p.participants,
                            p.txs_per_second, p.mean_inclusion_latency_s,
                            p.mean_block_interval_s);
                bench::Json point = bench::Json::object();
                point.set("participants",
                          static_cast<std::uint64_t>(p.participants));
                point.set("txs_per_second", p.txs_per_second);
                point.set("mean_inclusion_latency_s",
                          p.mean_inclusion_latency_s);
                point.set("mean_block_interval_s", p.mean_block_interval_s);
                throughput_points.push(std::move(point));
            }
            json.set("throughput_wall_ms", bench::ms_since(throughput_begin));
        }

        bench::Json difficulty_points = bench::Json::array();
        if (section_enabled("difficulty")) {
            bench::print_title(
                "E3b — block interval vs PoW difficulty (1 miner, 400 h/s, "
                "retarget disabled)");
            std::printf("%12s %20s %16s\n", "difficulty", "mean interval (s)",
                        "blocks mined");
            const auto difficulty_begin = std::chrono::steady_clock::now();
            for (std::uint64_t difficulty : {200u, 400u, 800u, 1600u, 3200u}) {
                net::SimTransport transport(net::LinkParams{}, 3);
                node::NodeConfig config;
                config.chain.initial_difficulty = difficulty;
                config.chain.min_difficulty = difficulty;
                config.chain.fixed_difficulty = true;
                config.key_seed = 5;
                config.hash_rate = 400.0;
                node::Node node(transport, config);
                node.start();
                transport.run_until(net::seconds(2000));
                const double interval =
                    node.chain().height() > 0
                        ? 2000.0 / static_cast<double>(node.chain().height())
                        : 0.0;
                std::printf(
                    "%12llu %20.2f %16llu\n",
                    static_cast<unsigned long long>(difficulty), interval,
                    static_cast<unsigned long long>(node.chain().height()));
                bench::Json point = bench::Json::object();
                point.set("difficulty", difficulty);
                point.set("mean_interval_s", interval);
                point.set("blocks_mined", node.chain().height());
                difficulty_points.push(std::move(point));
            }
            json.set("difficulty_wall_ms", bench::ms_since(difficulty_begin));
        }

        bench::Json propagation_points = bench::Json::array();
        if (section_enabled("propagation")) {
            bench::print_title(
                "E3c — Figure 2 workflow: block propagation delay vs model "
                "payload size (100 Mbit/s LAN)");
            std::printf("%16s %24s\n", "payload (KB)",
                        "propagation delay (ms)");
            const auto propagation_begin = std::chrono::steady_clock::now();
            for (std::size_t kb : {16u, 64u, 248u, 1024u, 4096u, 21'200u}) {
                net::LinkParams link;
                link.jitter_fraction = 0.0;
                net::SimTransport transport(link, 5);
                net::SimTime delivered = 0;
                const auto a =
                    transport.add_node([](net::NodeId, const Bytes&) {});
                const auto b =
                    transport.add_node([&](net::NodeId, const Bytes&) {
                        delivered = transport.now();
                    });
                transport.send(a, b, Bytes(kb * 1024, 0x11));
                // No miners: the queue drains.
                transport.run([] { return false; }, net::kMaxDuration);
                const double delay_ms =
                    static_cast<double>(delivered) / 1000.0;
                std::printf("%16zu %24.2f\n", kb, delay_ms);
                bench::Json point = bench::Json::object();
                point.set("payload_kb", static_cast<std::uint64_t>(kb));
                point.set("propagation_delay_ms", delay_ms);
                propagation_points.push(std::move(point));
            }
            json.set("propagation_wall_ms",
                     bench::ms_since(propagation_begin));
        }

        json.set("throughput_points", std::move(throughput_points));
        json.set("difficulty_points", std::move(difficulty_points));
        json.set("propagation_points", std::move(propagation_points));
        if (section_enabled("long_chain")) run_long_chain(json);
        if (section_enabled("scaling")) run_scaling(json);
        bench::write_bench_json("chain_performance", json);
    }
}

}  // namespace

BENCHMARK(BM_ChainPerformance)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK_MAIN();
