// Cross-module integration tests: the complete deployment (EffNet transfer
// learning over the chain), dishonest-publisher handling, cross-node state
// agreement and async round drift.
#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.hpp"
#include "core/model_store.hpp"
#include "core/paper_setup.hpp"
#include "crypto/keccak.hpp"
#include "ml/serialize.hpp"
#include "net/sim_transport.hpp"
#include "vm/registry_contract.hpp"

namespace bcfl::core {
namespace {

namespace abi = vm::registry_abi;

ml::FederatedData small_data() {
    ml::SyntheticCifarConfig config = paper_data_config();
    config.train_per_client = 100;
    config.test_per_client = 80;
    config.global_test = 80;
    return ml::make_synthetic_cifar(config);
}

DecentralizedConfig quick_chain() {
    DecentralizedConfig config;
    config.rounds = 2;
    config.train_duration = net::seconds(5);
    config.initial_difficulty = 300;
    config.min_difficulty = 64;
    config.target_interval_ms = 2000;
    config.hash_rate_per_node = 300.0;
    config.chunk_bytes = 32 * 1024;
    return config;
}

TEST(Integration, EffnetTransferLearningOverChain) {
    const auto data = small_data();
    fl::EffnetTaskOptions options;
    options.pretrain_samples = 1500;
    options.pretrain_epochs = 3;
    const fl::FlTask task = fl::make_effnet_task(data, 3, options);
    const auto result = run_decentralized(task, quick_chain());

    for (const auto& records : result.peer_records) {
        ASSERT_EQ(records.size(), 2u);
        for (const auto& record : records) {
            EXPECT_EQ(record.models_available, 3u);
            // Transfer learning: accuracy should beat chance from round 1.
            EXPECT_GT(record.chosen_accuracy, 0.15);
        }
    }
}

TEST(Integration, AllNodesAgreeOnStateRoot) {
    const auto data = small_data();
    const fl::FlTask task = paper_simple_task(data);

    // Run the deployment manually so we can inspect the nodes afterwards.
    net::SimTransport transport(net::LinkParams{}, 5);
    chain::ChainConfig chain_config;
    chain_config.initial_difficulty = 300;
    chain_config.min_difficulty = 64;
    chain_config.target_interval_ms = 2000;

    std::vector<std::unique_ptr<node::Node>> nodes;
    std::vector<Address> roster;
    for (std::size_t i = 0; i < 3; ++i) {
        node::NodeConfig config;
        config.chain = chain_config;
        config.key_seed = 70 + i;
        config.hash_rate = 300.0;
        config.rng_seed = 7000 + i;
        nodes.push_back(std::make_unique<node::Node>(transport, config));
        roster.push_back(nodes.back()->address());
    }
    std::vector<std::unique_ptr<BcflPeer>> peers;
    for (std::size_t i = 0; i < 3; ++i) {
        PeerConfig config;
        config.index = i;
        config.train_duration = net::seconds(5);
        config.chunk_bytes = 32 * 1024;
        peers.push_back(
            std::make_unique<BcflPeer>(*nodes[i], task, roster, config));
    }
    for (auto& node : nodes) node->start();
    for (auto& peer : peers) peer->run_rounds(1);
    transport.run(
        [&] {
            return peers[0]->finished() && peers[1]->finished() &&
                   peers[2]->finished();
        },
        net::seconds(5000));
    // Let gossip settle, then compare a common block's state root.
    transport.run_until(transport.now() + net::seconds(30));
    const std::uint64_t common = std::min(
        {nodes[0]->chain().height(), nodes[1]->chain().height(),
         nodes[2]->chain().height()});
    ASSERT_GT(common, 0u);
    const Hash32 root0 =
        nodes[0]->chain().block_by_number(common)->header.state_root;
    for (const auto& node : nodes) {
        const chain::Block* block = node->chain().block_by_number(common);
        ASSERT_NE(block, nullptr);
        EXPECT_EQ(block->header.state_root, root0);
    }
}

TEST(Integration, PeerRejectsModelWithMismatchedAnnouncement) {
    // A dishonest publisher announces hash(H1) but ships the bytes of a
    // different model. Honest peers must not ingest it into aggregation.
    net::SimTransport transport(net::LinkParams{}, 9);
    node::NodeConfig config;
    config.key_seed = 33;
    config.hash_rate = 400.0;
    config.chain.initial_difficulty = 200;
    config.chain.min_difficulty = 64;
    config.chain.target_interval_ms = 1000;
    node::Node node(transport, config);
    node.start();

    const std::vector<float> announced(100, 1.0f);
    const std::vector<float> shipped(100, 2.0f);
    const Bytes shipped_blob = ml::serialize_weights(shipped);
    std::uint64_t nonce = 0;
    node.submit_tx(chain::Transaction::make_signed(
        node.key(), nonce++, vm::registry_address(), 5'000'000, 1,
        abi::publish_calldata(1, ml::weights_digest(announced), 1,
                              shipped_blob.size())));
    node.submit_tx(chain::Transaction::make_signed(
        node.key(), nonce++, vm::registry_address(), 5'000'000, 1,
        abi::chunk_calldata(1, 0, shipped_blob)));
    transport.run_until(net::seconds(40));

    ModelStore store;
    store.sync(node.chain());
    const PublishedModel* model = store.find(1, node.address());
    ASSERT_NE(model, nullptr);
    ASSERT_TRUE(model->complete());
    // The chunks assemble, but the announced hash does not match the
    // payload digest — exactly the condition BcflPeer::chain_weights checks.
    EXPECT_NE(ml::weights_digest(BytesView(model->assemble())),
              model->model_hash);
}

TEST(Integration, AsyncPeersDriftAcrossRounds) {
    const auto data = small_data();
    const fl::FlTask task = paper_simple_task(data);
    DecentralizedConfig config = quick_chain();
    config.rounds = 3;
    config.wait_policy = "wait_for=1,timeout=900s";  // nobody waits
    const auto result = run_decentralized(task, config);
    // Every peer completes all rounds even though they never synchronize.
    for (const auto& records : result.peer_records) {
        EXPECT_EQ(records.size(), 3u);
    }
    // And the chain still converges to a single history.
    EXPECT_GT(result.chain_height, 0u);
}

TEST(Integration, TrafficScalesWithModelSize) {
    const auto data = small_data();
    const fl::FlTask task = paper_simple_task(data);
    DecentralizedConfig small_config = quick_chain();
    small_config.rounds = 1;
    DecentralizedConfig big = small_config;
    big.payload_pad_bytes = 512 * 1024;
    const auto small_result = run_decentralized(task, small_config);
    const auto big_result = run_decentralized(task, big);
    // Padding adds ~0.5 MB x 3 peers x gossip fan-out.
    EXPECT_GT(big_result.traffic.bytes_sent,
              small_result.traffic.bytes_sent + 3 * 512 * 1024);
}


TEST(Integration, PoisonedPeerDegradesFedAvgAll) {
    const auto data = small_data();
    const fl::FlTask task = paper_simple_task(data);
    DecentralizedConfig config = quick_chain();
    config.rounds = 2;
    config.poisoned_peers = {2};
    config.aggregation = "fedavg_all";
    const auto poisoned = run_decentralized(task, config);

    DecentralizedConfig clean_config = config;
    clean_config.poisoned_peers = {};
    const auto clean = run_decentralized(task, clean_config);

    // Honest peer A: poisoned FedAvg-all must underperform the clean run.
    EXPECT_LT(poisoned.peer_records[0].back().chosen_accuracy,
              clean.peer_records[0].back().chosen_accuracy);
}

TEST(Integration, FitnessThresholdFiltersPoisonedModel) {
    const auto data = small_data();
    const fl::FlTask task = paper_simple_task(data);
    DecentralizedConfig config = quick_chain();
    config.rounds = 2;
    config.poisoned_peers = {2};
    config.aggregation = "best_combination,fitness=0.15";
    const auto result = run_decentralized(task, config);

    // Honest peers should have filtered client C at least once.
    std::size_t filtered = 0;
    for (std::size_t peer = 0; peer < 2; ++peer) {
        for (const auto& record : result.peer_records[peer]) {
            for (std::size_t c : record.filtered_out) {
                if (c == 2) ++filtered;
            }
        }
    }
    EXPECT_GT(filtered, 0u);
    // And their combination rows must not include C when it was filtered;
    // models_available counts only updates that entered aggregation.
    for (const auto& record : result.peer_records[0]) {
        if (record.filtered_out.empty()) continue;
        EXPECT_LE(record.models_available, 2u);
        for (const auto& combo : record.combos) {
            EXPECT_EQ(combo.label.find('C'), std::string::npos);
        }
    }
}

TEST(Integration, AggregateAllProducesSingleCombo) {
    const auto data = small_data();
    const fl::FlTask task = paper_simple_task(data);
    DecentralizedConfig config = quick_chain();
    config.rounds = 1;
    config.aggregation = "fedavg_all";
    const auto result = run_decentralized(task, config);
    for (const auto& records : result.peer_records) {
        ASSERT_EQ(records[0].combos.size(), 1u);
        EXPECT_EQ(records[0].combos[0].label, "A,B,C");
    }
}

}  // namespace
}  // namespace bcfl::core
