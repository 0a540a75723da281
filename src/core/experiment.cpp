#include "core/experiment.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "core/parallel.hpp"
#include "ml/serialize.hpp"
#include "net/sim_transport.hpp"

namespace bcfl::core {

DecentralizedResult run_decentralized(const fl::FlTask& task,
                                      const DecentralizedConfig& config) {
    net::SimTransport transport(config.link, config.conditions, config.seed);
    return run_decentralized(task, config, transport);
}

DecentralizedResult run_decentralized(const fl::FlTask& task,
                                      const DecentralizedConfig& config,
                                      net::Transport& transport) {
    if (task.clients < config.peers) {
        throw Error("experiment: task has fewer clients than peers");
    }
    // Pin the compute engine for the whole run (0 = keep the ambient
    // default, including any override a caller already holds). The engine
    // only ever parallelizes work *inside* a single delivery event, so
    // this cannot perturb event ordering or any recorded result.
    std::optional<parallel::ThreadCountOverride> engine_threads;
    if (config.threads != 0) engine_threads.emplace(config.threads);

    chain::ChainConfig chain_config;
    chain_config.initial_difficulty = config.initial_difficulty;
    chain_config.min_difficulty = config.min_difficulty;
    chain_config.target_interval_ms = config.target_interval_ms;

    // Resolve the hierarchy first: node overlays depend on it, and every
    // peer derives its role and stages from it. NodeId == i holds by
    // construction order below.
    std::shared_ptr<const ResolvedTopology> topo;
    if (config.topology.enabled()) {
        topo = std::make_shared<const ResolvedTopology>(
            resolve_topology(config.topology, config.peers));
    }

    std::vector<std::unique_ptr<node::Node>> nodes;
    std::vector<Address> roster;
    for (std::size_t i = 0; i < config.peers; ++i) {
        node::NodeConfig node_config;
        node_config.chain = chain_config;
        node_config.key_seed = 9000 + i;
        node_config.hash_rate = config.hash_rate_per_node;
        node_config.rng_seed = config.seed * 1000 + i;
        if (topo != nullptr) {
            const std::size_t cluster = topo->cluster_of[i];
            if (topo->heads[cluster] == i) {
                // Heads mesh among themselves and fan out to their own
                // members; txs circulate only on the head mesh (members
                // never need foreign txs — they follow blocks).
                for (std::size_t h : topo->heads) {
                    if (h == i) continue;
                    node_config.neighbors.push_back(
                        static_cast<net::NodeId>(h));
                    node_config.tx_neighbors.push_back(
                        static_cast<net::NodeId>(h));
                }
                for (std::size_t m : topo->clusters[cluster]) {
                    if (m == i) continue;
                    node_config.neighbors.push_back(
                        static_cast<net::NodeId>(m));
                }
                std::sort(node_config.neighbors.begin(),
                          node_config.neighbors.end());
            } else {
                // Members: leaf nodes hanging off their cluster head. They
                // do not mine — consensus runs on the head committee — so
                // the per-round verify cost scales with heads, not peers.
                node_config.mine = false;
                const net::NodeId head =
                    static_cast<net::NodeId>(topo->heads[cluster]);
                node_config.neighbors.push_back(head);
                node_config.tx_neighbors.push_back(head);
            }
        }
        nodes.push_back(std::make_unique<node::Node>(transport, node_config));
        roster.push_back(nodes.back()->address());
    }

    std::vector<std::unique_ptr<BcflPeer>> peers;
    for (std::size_t i = 0; i < config.peers; ++i) {
        PeerConfig peer_config;
        peer_config.index = i;
        peer_config.train_duration = config.train_duration;
        peer_config.train_cpu_load = config.train_cpu_load;
        peer_config.chunk_bytes = config.chunk_bytes;
        peer_config.payload_pad_bytes = config.payload_pad_bytes;
        peer_config.wait_policy = config.wait_policy;
        peer_config.aggregation = config.aggregation;
        for (std::size_t poisoned : config.poisoned_peers) {
            if (poisoned == i) peer_config.poison_updates = true;
        }
        if (i < config.peer_start_delays.size()) {
            peer_config.start_delay = config.peer_start_delays[i];
        }
        if (config.straggler_train_duration > 0) {
            for (std::size_t straggler : config.stragglers) {
                if (straggler == i) {
                    peer_config.train_duration =
                        config.straggler_train_duration;
                }
            }
        }
        peer_config.topology = config.topology;
        peer_config.resolved = topo;
        peers.push_back(
            std::make_unique<BcflPeer>(*nodes[i], task, roster, peer_config));
    }

    // Bring the backend up only after every node/peer is wired: a socket
    // transport starts delivery threads here, while start()/run_rounds()
    // below still run on this thread — enqueued timers do not fire until
    // run() opens the gate, so construction-time state needs no locks.
    transport.start();
    for (auto& node : nodes) node->start();
    for (auto& peer : peers) peer->run_rounds(config.rounds);

    const auto all_finished = [&] {
        for (const auto& peer : peers) {
            if (!peer->finished()) return false;
        }
        return true;
    };
    transport.run(all_finished, config.max_sim_time);

    DecentralizedResult result;
    result.finished_at = transport.now();
    // Joins every delivery thread (no-op for the sim): all node/peer state
    // below is read strictly after delivery ceased.
    transport.stop();
    result.traffic = transport.stats();
    result.chain_height = nodes[0]->chain().height();
    for (const auto& node : nodes) {
        result.total_reorgs += node->stats().reorgs;
        NodeStateProbe probe;
        probe.gossip_seen_size = node->gossip_seen_size();
        probe.gossip_seen_cap = node->gossip_seen_cap();
        probe.orphans_buffered = node->orphan_blocks_buffered();
        probe.pool_size = node->pool_size();
        probe.seen_evictions = node->stats().seen_evictions;
        probe.stale_txs_pruned = node->stats().stale_txs_pruned;
        probe.nonce_snapshots_held = node->chain().nonce_snapshots_held();
        probe.nonce_snapshot_horizon =
            node->chain().config().nonce_snapshot_horizon;
        probe.total_blocks = node->chain().total_blocks();
        probe.chain_height = node->chain().height();
        result.node_probes.push_back(probe);
    }
    double round_seconds = 0.0;
    double wait_seconds = 0.0;
    std::size_t samples = 0;
    for (auto& peer : peers) {
        result.final_model_digests.push_back(
            ml::weights_digest(ml::serialize_weights(peer->current_weights())));
        result.peer_records.push_back(peer->records());
        for (const PeerRoundRecord& record : peer->records()) {
            if (record.aggregated_at == 0) continue;
            round_seconds +=
                net::to_seconds(record.aggregated_at - record.round_started);
            wait_seconds +=
                net::to_seconds(record.aggregated_at - record.published_at);
            ++samples;
        }
    }
    if (samples > 0) {
        result.mean_round_seconds = round_seconds / static_cast<double>(samples);
        result.mean_wait_seconds = wait_seconds / static_cast<double>(samples);
    }
    return result;
}

}  // namespace bcfl::core
