// Quickstart: stand up the paper's deployment — three fully-coupled peers
// (each trainer + miner + aggregator) on a simulated private Ethereum — and
// run two communication rounds of blockchain-based federated learning.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "core/paper_setup.hpp"

int main() {
    using namespace bcfl;

    // 1. A federated dataset: 10-class synthetic colour images, split across
    //    three clients (the CIFAR-10 stand-in; see docs/architecture.md).
    ml::SyntheticCifarConfig data_config = core::paper_data_config();
    data_config.train_per_client = 300;  // keep the quickstart snappy
    data_config.test_per_client = 200;
    const ml::FederatedData data = ml::make_synthetic_cifar(data_config);

    // 2. A learning task: the paper's Simple NN trained from scratch.
    const fl::FlTask task = core::paper_simple_task(data);
    std::printf("model: %s, %zu clients, %zu-parameter updates\n",
                task.model_name.c_str(), task.clients,
                task.make_model()->weight_count());

    // 3. The decentralized deployment: PoW chain, registry contract, gossip.
    //    The round loop is policy-driven (core/policy.hpp): the paper's
    //    default is synchronous waiting + "consider" combination search.
    core::DecentralizedConfig config = core::paper_chain_config();
    config.rounds = 2;
    config.train_duration = net::seconds(20);
    std::printf("wait policy: %s | aggregation: %s\n",
                config.wait_policy.c_str(), config.aggregation.c_str());

    const core::DecentralizedResult result =
        core::run_decentralized(task, config);

    // 4. What happened: each peer's per-round combination table.
    for (std::size_t peer = 0; peer < result.peer_records.size(); ++peer) {
        std::printf("\npeer %c:\n", static_cast<char>('A' + peer));
        for (const core::PeerRoundRecord& record : result.peer_records[peer]) {
            std::printf("  round %zu: aggregated %zu models at t=%.1fs\n",
                        record.round, record.models_available,
                        net::to_seconds(record.aggregated_at));
            for (const core::ComboAccuracy& combo : record.combos) {
                std::printf("    combo %-6s -> accuracy %.4f%s\n",
                            combo.label.c_str(), combo.accuracy,
                            combo.label == record.chosen_label ? "  (chosen)"
                                                               : "");
            }
        }
    }
    std::printf("\nchain height %llu, %.2f MB gossiped, finished at t=%.1fs\n",
                static_cast<unsigned long long>(result.chain_height),
                static_cast<double>(result.traffic.bytes_sent) / 1e6,
                net::to_seconds(result.finished_at));
    return 0;
}
