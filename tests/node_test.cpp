#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "crypto/keccak.hpp"
#include "net/sim_transport.hpp"
#include "node/node.hpp"
#include "vm/registry_contract.hpp"

namespace bcfl::node {
namespace {

namespace abi = vm::registry_abi;

/// A three-peer private network, mirroring the paper's Geth x3 deployment.
class NodeNetworkTest : public ::testing::Test {
protected:
    NodeNetworkTest() : transport_(net::LinkParams{}, /*seed=*/3) {
        chain::ChainConfig chain_config;
        chain_config.initial_difficulty = 600;
        chain_config.min_difficulty = 64;
        chain_config.target_interval_ms = 3000;
        for (std::uint64_t i = 0; i < 3; ++i) {
            NodeConfig config;
            config.chain = chain_config;
            config.key_seed = 100 + i;
            config.hash_rate = 200.0;  // 3 x 200 h/s vs difficulty 600
            config.rng_seed = 1000 + i;
            nodes_.push_back(std::make_unique<Node>(transport_, config));
        }
    }

    void start_all() {
        for (auto& node : nodes_) node->start();
    }

    net::SimTransport transport_;
    std::vector<std::unique_ptr<Node>> nodes_;
};

TEST_F(NodeNetworkTest, AllNodesShareGenesis) {
    EXPECT_EQ(nodes_[0]->chain().genesis().hash(),
              nodes_[1]->chain().genesis().hash());
    EXPECT_EQ(nodes_[1]->chain().genesis().hash(),
              nodes_[2]->chain().genesis().hash());
}

TEST_F(NodeNetworkTest, MinersProduceAndPropagateBlocks) {
    start_all();
    transport_.run_until(net::seconds(120));
    // Everyone should be well past genesis and agree on the head.
    EXPECT_GT(nodes_[0]->chain().height(), 5u);
    EXPECT_EQ(nodes_[0]->chain().head_hash(), nodes_[1]->chain().head_hash());
    EXPECT_EQ(nodes_[1]->chain().head_hash(), nodes_[2]->chain().head_hash());
    // Work was distributed (no node mined everything).
    std::uint64_t total_mined = 0;
    for (const auto& node : nodes_) total_mined += node->stats().blocks_mined;
    EXPECT_GE(total_mined, nodes_[0]->chain().height());
    EXPECT_EQ(nodes_[0]->stats().blocks_rejected, 0u);
}

TEST_F(NodeNetworkTest, TransactionReachesChainEverywhere) {
    start_all();
    const auto& key = nodes_[1]->key();
    const Bytes calldata = abi::publish_calldata(
        1, crypto::keccak256(str_bytes("model-A-r1")), 2, 1234);
    const auto tx = chain::Transaction::make_signed(
        key, 0, vm::registry_address(), 5'000'000, 1, calldata);
    nodes_[1]->submit_tx(tx);
    transport_.run_until(net::seconds(120));

    for (const auto& node : nodes_) {
        const auto loc = node->chain().locate_tx(tx.hash());
        ASSERT_TRUE(loc.has_value()) << "node " << node->id();
        // Registry state should be queryable via view call on every node.
        const auto result =
            node->call_view(abi::get_model_calldata(1, key.address()));
        ASSERT_TRUE(result.success) << result.error;
        const auto record = abi::decode_model(result.return_data);
        EXPECT_EQ(record.chunk_count, 2u);
        EXPECT_EQ(record.size_bytes, 1234u);
    }
}

TEST_F(NodeNetworkTest, ContractEventVisibleInReceipts) {
    start_all();
    const auto& key = nodes_[0]->key();
    const auto tx = chain::Transaction::make_signed(
        key, 0, vm::registry_address(), 5'000'000, 1,
        abi::publish_calldata(3, crypto::keccak256(str_bytes("m")), 1, 10));
    nodes_[0]->submit_tx(tx);
    transport_.run_until(net::seconds(120));

    const auto loc = nodes_[2]->chain().locate_tx(tx.hash());
    ASSERT_TRUE(loc.has_value());
    const auto* receipts = nodes_[2]->chain().receipts_for(loc->block_hash);
    ASSERT_NE(receipts, nullptr);
    ASSERT_GT(receipts->size(), loc->index);
    const chain::Receipt& receipt = (*receipts)[loc->index];
    EXPECT_TRUE(receipt.success);
    ASSERT_EQ(receipt.logs.size(), 1u);
    const auto event = abi::parse_published(receipt.logs[0]);
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->round, 3u);
    EXPECT_EQ(event->publisher, key.address());
}

TEST_F(NodeNetworkTest, ChunkedModelPublishes) {
    start_all();
    const auto& key = nodes_[0]->key();
    // Publish announcement + three chunks with consecutive nonces.
    std::uint64_t nonce = 0;
    std::vector<Bytes> chunks{Bytes(500, 0x11), Bytes(500, 0x22),
                              Bytes(321, 0x33)};
    nodes_[0]->submit_tx(chain::Transaction::make_signed(
        key, nonce++, vm::registry_address(), 5'000'000, 1,
        abi::publish_calldata(1, crypto::keccak256(str_bytes("full")),
                              chunks.size(), 1321)));
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        nodes_[0]->submit_tx(chain::Transaction::make_signed(
            key, nonce++, vm::registry_address(), 5'000'000, 1,
            abi::chunk_calldata(1, i, chunks[i])));
    }
    transport_.run_until(net::seconds(200));

    // A different node reconstructs the chunks from calldata.
    const auto& observer = *nodes_[2];
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const auto digest_result = observer.call_view(
            abi::chunk_digest_calldata(1, key.address(), i));
        ASSERT_TRUE(digest_result.success);
        EXPECT_EQ(Hash32::from(digest_result.return_data),
                  crypto::keccak256(chunks[i]));
    }
}

TEST_F(NodeNetworkTest, ComputeLoadSlowsMining) {
    // The block-interval law of one fixed-difficulty miner that also
    // trains (E3b's difficulty grid, E5a's load grid): the mean interval
    // is mu = D / (H * (1 - L)). Every point shares one seed and so draws
    // the same uniforms u_i, and Node::schedule_mining makes each interval
    // floor(-mu * ln(u_i) * 1e6) + 1 us: the mean interval over mu is one
    // number r at every point, up to 1 us / mu.
    constexpr double kHashRate = 400.0;
    constexpr std::uint64_t kBlocks = 400;
    const struct {
        std::uint64_t difficulty;
        double load;  // set_compute_load clamps 1.0 to 0.999
    } grid[] = {{200, 0.0},  {400, 0.0},  {800, 0.0},  {1600, 0.0},
                {3200, 0.0}, {800, 0.25}, {800, 0.5},  {800, 0.75},
                {800, 0.9},  {800, 1.0}};
    std::vector<double> mus;
    std::vector<double> ratios;
    for (const auto& [difficulty, load] : grid) {
        net::SimTransport transport(net::LinkParams{}, /*seed=*/3);
        NodeConfig config;
        config.chain.initial_difficulty = difficulty;
        config.chain.min_difficulty = difficulty;
        config.chain.fixed_difficulty = true;
        config.key_seed = 21;
        config.hash_rate = kHashRate;
        Node node(transport, config);
        node.set_compute_load(load);
        std::uint64_t heads = 0;
        net::SimTime last_head = 0;
        node.on_new_head([&](const chain::Block&) {
            ++heads;
            last_head = transport.now();
        });
        node.start();
        transport.run([&] { return heads >= kBlocks; }, net::kMaxDuration);
        ASSERT_EQ(heads, kBlocks);
        const double mu = static_cast<double>(difficulty) /
                          (kHashRate * (1.0 - std::min(load, 0.999)));
        mus.push_back(mu);
        ratios.push_back(net::to_seconds(last_head) / kBlocks / mu);
    }
    for (std::size_t a = 0; a < ratios.size(); ++a) {
        for (std::size_t b = a + 1; b < ratios.size(); ++b) {
            EXPECT_LE(std::abs(ratios[a] - ratios[b]),
                      1e-6 / std::min(mus[a], mus[b]))
                << "points " << a << " and " << b;
        }
    }
    // r is the mean of kBlocks unit exponentials: three standard
    // deviations of that mean.
    EXPECT_LE(std::abs(ratios[0] - 1.0),
              3.0 / std::sqrt(static_cast<double>(kBlocks)));
}

TEST(NodeSingle, ViewCallAtGenesis) {
    net::SimTransport transport(net::LinkParams{});
    NodeConfig config;
    config.key_seed = 5;
    config.mine = false;
    Node node(transport, config);
    const auto result = node.call_view(abi::participant_count_calldata(1));
    ASSERT_TRUE(result.success) << result.error;
    EXPECT_EQ(abi::decode_word(result.return_data), 0u);
}

TEST(NodePartition, ForksReconvergeThroughAncestorSyncAfterHeal) {
    // A three-miner network splits {0,1} | {2} for 100 simulated seconds.
    // The isolated miner extends a private fork; after the heal the next
    // gossiped head references an unknown parent, the ancestor-sync
    // protocol (get_block) walks back to the fork point, and everyone
    // reorgs onto the heaviest chain.
    net::NetworkConditions conditions;
    conditions.partitions.push_back(
        {net::seconds(20), net::seconds(120), {{0, 1}, {2}}});
    net::SimTransport transport(net::LinkParams{}, conditions, /*seed=*/3);
    chain::ChainConfig chain_config;
    chain_config.initial_difficulty = 600;
    chain_config.min_difficulty = 64;
    chain_config.target_interval_ms = 3000;
    std::vector<std::unique_ptr<Node>> nodes;
    for (std::uint64_t i = 0; i < 3; ++i) {
        NodeConfig config;
        config.chain = chain_config;
        config.key_seed = 100 + i;
        config.hash_rate = 200.0;
        config.rng_seed = 1000 + i;
        nodes.push_back(std::make_unique<Node>(transport, config));
    }
    for (auto& node : nodes) node->start();

    transport.run_until(net::seconds(110));
    // Mid-partition: the island disagrees with the majority side.
    EXPECT_NE(nodes[0]->chain().head_hash(), nodes[2]->chain().head_hash());
    EXPECT_GT(transport.stats().dropped_partition, 0u);

    transport.run_until(net::seconds(300));
    EXPECT_EQ(nodes[0]->chain().head_hash(), nodes[1]->chain().head_hash());
    EXPECT_EQ(nodes[1]->chain().head_hash(), nodes[2]->chain().head_hash());
    // Reconvergence used the sync protocol, and somebody reorged.
    std::uint64_t requested = 0;
    std::uint64_t served = 0;
    std::uint64_t reorgs = 0;
    for (const auto& node : nodes) {
        requested += node->stats().blocks_requested;
        served += node->stats().block_requests_served;
        reorgs += node->stats().reorgs;
    }
    EXPECT_GT(requested, 0u);
    EXPECT_GT(served, 0u);
    EXPECT_GT(reorgs, 0u);
}

TEST(NodeGossip, SeenSetIsBoundedByGenerationalRotation) {
    // Regression: the gossip-dedup set used to keep one 32-byte hash per
    // tx and block forever (the leak class PR 3 removed from TxPool).
    // With a small cap, a long run must rotate generations, keep the
    // footprint under 2x the cap, and still converge on one head.
    net::SimTransport transport(net::LinkParams{}, /*seed=*/9);
    chain::ChainConfig chain_config;
    chain_config.initial_difficulty = 200;
    chain_config.min_difficulty = 64;
    chain_config.fixed_difficulty = true;
    std::vector<std::unique_ptr<Node>> nodes;
    for (std::uint64_t i = 0; i < 2; ++i) {
        NodeConfig config;
        config.chain = chain_config;
        config.key_seed = 300 + i;
        config.hash_rate = 200.0;
        config.rng_seed = 2000 + i;
        config.gossip_seen_cap = 64;
        nodes.push_back(std::make_unique<Node>(transport, config));
    }
    for (auto& node : nodes) node->start();
    transport.run_until(net::seconds(400));  // ~1 block/s: well past the cap

    ASSERT_GT(nodes[0]->chain().height(), 128u);
    EXPECT_EQ(nodes[0]->chain().head_hash(), nodes[1]->chain().head_hash());
    std::uint64_t evictions = 0;
    for (const auto& node : nodes) {
        EXPECT_LE(node->gossip_seen_size(), 2u * 64u) << "node " << node->id();
        evictions += node->stats().seen_evictions;
    }
    EXPECT_GT(evictions, 0u);
}

/// A chain config whose PoW seals in a few hashes and never retargets.
chain::ChainConfig easy_chain() {
    chain::ChainConfig chain_config;
    chain_config.initial_difficulty = 16;
    chain_config.min_difficulty = 16;
    chain_config.fixed_difficulty = true;
    return chain_config;
}

Bytes with_kind(std::uint8_t kind, const Bytes& body) {
    Bytes message{kind};
    append(message, body);
    return message;
}

TEST(NodeGossip, WrappingRlpLengthIsDroppedNotFatal) {
    // Regression: an 8-byte RLP length near 2^64 wrapped the decoder's
    // bounds check, the oversized copy threw std::length_error instead of
    // a DecodeError, and the exception left the receiver and ended the
    // run. The message must be dropped like any malformed gossip.
    net::SimTransport transport(net::LinkParams{}, /*seed=*/5);
    NodeConfig miner_config;
    miner_config.chain = easy_chain();
    miner_config.key_seed = 11;
    Node miner(transport, miner_config);
    NodeConfig follower_config = miner_config;
    follower_config.key_seed = 12;
    follower_config.mine = false;
    Node follower(transport, follower_config);
    const net::NodeId attacker =
        transport.add_node([](net::NodeId, const Bytes&) {});

    const Bytes wrapping_string{0xbf, 0xff, 0xff, 0xff, 0xff,
                                0xff, 0xff, 0xff, 0xf7};
    transport.send(attacker, follower.id(), with_kind(1, wrapping_string));
    transport.send(attacker, follower.id(), with_kind(2, wrapping_string));
    transport.run_until(net::seconds(1));
    EXPECT_EQ(follower.chain().height(), 0u);

    // The follower still imports what the miner seals afterwards.
    miner.start();
    transport.run_until(net::seconds(60));
    EXPECT_GT(follower.chain().height(), 0u);
    EXPECT_EQ(follower.chain().head_hash(), miner.chain().head_hash());
    EXPECT_EQ(follower.stats().blocks_rejected, 0u);
}

TEST(NodeImport, UnpooledTxIsVerifiedAtImport) {
    // A block's txs that the node already pooled are swapped for the
    // pooled copies, whose signature verdict was cached at admission. A
    // tx the node never pooled must still be verified at import: a block
    // pairing a pooled tx with a forged one is rejected.
    net::SimTransport transport(net::LinkParams{}, /*seed=*/5);
    NodeConfig config;
    config.chain = easy_chain();
    config.key_seed = 13;
    config.mine = false;
    Node node(transport, config);
    const net::NodeId peer =
        transport.add_node([](net::NodeId, const Bytes&) {});

    Address sink;
    sink.data[19] = 0x42;  // no contract here: a plain transfer
    const auto pooled = chain::Transaction::make_signed(
        crypto::KeyPair::from_seed(21), 0, sink, 100'000, 1,
        str_bytes("pooled"));
    node.submit_tx(pooled);
    ASSERT_EQ(node.pool_size(), 1u);
    const auto honest = chain::Transaction::make_signed(
        crypto::KeyPair::from_seed(22), 0, sink, 100'000, 1,
        str_bytes("honest"));
    chain::Transaction::Fields fields = honest.fields();
    fields.data = str_bytes("forged");
    const auto forged = chain::Transaction::from_fields(std::move(fields));

    // Seal both candidate blocks on genesis with a builder chain set up
    // exactly as a node sets up its own.
    auto executor = std::make_shared<VmBlockExecutor>(config.chain.gas);
    chain::Blockchain builder(config.chain, executor);
    executor->register_genesis(builder.genesis().header,
                               Node::genesis_state());
    const auto sealed = [&](std::vector<chain::Transaction> txs) {
        chain::Block block = builder.build_block(
            crypto::KeyPair::from_seed(23).address(), std::move(txs), 1000);
        block.header.pow_nonce = *chain::mine_seal(block.header, 0, 1'000'000);
        return block;
    };
    const chain::Block bad_block = sealed({pooled, forged});
    const chain::Block good_block = sealed({pooled, honest});
    EXPECT_EQ(builder.import_block(bad_block).reason, "bad tx signature");

    transport.send(peer, node.id(), with_kind(2, bad_block.encode()));
    transport.run_until(net::seconds(1));
    EXPECT_EQ(node.stats().blocks_rejected, 1u);
    EXPECT_EQ(node.chain().height(), 0u);

    // Control: the same block with the honest tx imports, so the forgery
    // alone caused the rejection.
    transport.send(peer, node.id(), with_kind(2, good_block.encode()));
    transport.run_until(net::seconds(2));
    EXPECT_EQ(node.stats().blocks_rejected, 1u);
    EXPECT_EQ(node.chain().head_hash(), good_block.hash());
}

TEST(NodeSingle, NonMinerNeverExtendsChain) {
    net::SimTransport transport(net::LinkParams{});
    NodeConfig config;
    config.key_seed = 6;
    config.mine = false;
    Node node(transport, config);
    node.start();
    transport.run_until(net::seconds(60));
    EXPECT_EQ(node.chain().height(), 0u);
}

}  // namespace
}  // namespace bcfl::node
