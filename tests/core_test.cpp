#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/audit.hpp"
#include "core/experiment.hpp"
#include "core/model_store.hpp"
#include "core/peer.hpp"
#include "crypto/keccak.hpp"
#include "ml/serialize.hpp"
#include "net/sim_transport.hpp"
#include "vm/registry_contract.hpp"

namespace bcfl::core {
namespace {

namespace abi = vm::registry_abi;

ml::FederatedData tiny_data() {
    ml::SyntheticCifarConfig config;
    config.train_per_client = 80;
    config.test_per_client = 60;
    config.global_test = 60;
    config.dirichlet_alpha = 0.5;
    config.seed = 77;
    return ml::make_synthetic_cifar(config);
}

core::DecentralizedConfig fast_config() {
    DecentralizedConfig config;
    config.rounds = 2;
    config.train_duration = net::seconds(5);
    config.initial_difficulty = 300;
    config.min_difficulty = 64;
    config.target_interval_ms = 2000;
    config.hash_rate_per_node = 300.0;
    config.chunk_bytes = 64 * 1024;
    return config;
}

// -------------------------------------------------------------- ModelStore

class ModelStoreTest : public ::testing::Test {
protected:
    ModelStoreTest() : transport_(net::LinkParams{}, 3) {
        node::NodeConfig config;
        config.key_seed = 31;
        config.hash_rate = 500.0;
        config.chain.initial_difficulty = 200;
        config.chain.min_difficulty = 64;
        config.chain.target_interval_ms = 1000;
        node_ = std::make_unique<node::Node>(transport_, config);
    }

    void publish_model(std::uint64_t round, const std::vector<float>& weights,
                       std::size_t chunk_bytes) {
        const Bytes payload = ml::serialize_weights(weights);
        const Hash32 digest = ml::weights_digest(BytesView(payload));
        const std::size_t chunks =
            (payload.size() + chunk_bytes - 1) / chunk_bytes;
        const auto submit = [&](Bytes calldata) {
            node_->submit_tx(chain::Transaction::make_signed(
                node_->key(), nonce_++, vm::registry_address(),
                21'000 + 16 * calldata.size() + 300'000, 1,
                std::move(calldata)));
        };
        submit(abi::publish_calldata(round, digest, chunks, payload.size()));
        for (std::size_t i = 0; i < chunks; ++i) {
            const std::size_t begin = i * chunk_bytes;
            const std::size_t end =
                std::min(begin + chunk_bytes, payload.size());
            submit(abi::chunk_calldata(
                round, i, BytesView(payload).subspan(begin, end - begin)));
        }
    }

    net::SimTransport transport_;
    std::unique_ptr<node::Node> node_;
    std::uint64_t nonce_ = 0;
};

TEST_F(ModelStoreTest, CollectsAndReassemblesChunkedModel) {
    node_->start();
    std::vector<float> weights(1000);
    for (std::size_t i = 0; i < weights.size(); ++i) {
        weights[i] = static_cast<float>(i) * 0.25f;
    }
    publish_model(4, weights, 512);
    transport_.run_until(net::seconds(60));

    ModelStore store;
    store.sync(node_->chain());
    const PublishedModel* model = store.find(4, node_->address());
    ASSERT_NE(model, nullptr);
    EXPECT_TRUE(model->complete());
    EXPECT_EQ(ml::deserialize_weights(model->assemble()), weights);
    EXPECT_EQ(store.ready_publishers(4).size(), 1u);
    EXPECT_TRUE(store.ready_publishers(5).empty());
}

TEST_F(ModelStoreTest, SyncIsIdempotent) {
    node_->start();
    publish_model(1, std::vector<float>(100, 1.0f), 128);
    transport_.run_until(net::seconds(60));
    ModelStore store;
    store.sync(node_->chain());
    const std::size_t scanned = store.blocks_scanned();
    store.sync(node_->chain());
    EXPECT_EQ(store.blocks_scanned(), scanned);
    EXPECT_EQ(store.ready_publishers(1).size(), 1u);
}

TEST_F(ModelStoreTest, SyncIsIncrementalAcrossPolls) {
    // Regression for the O(height)-per-poll rescan: the cursor must make a
    // re-sync ingest only the blocks appended since the previous poll, so
    // total ingestions equal the chain height, not its running sum.
    node_->start();
    publish_model(1, std::vector<float>(100, 1.0f), 128);
    transport_.run_until(net::seconds(60));

    ModelStore store;
    store.sync(node_->chain());
    const std::uint64_t first_height = node_->chain().height();
    ASSERT_GT(first_height, 0u);
    EXPECT_EQ(store.synced_height(), first_height);
    EXPECT_EQ(store.blocks_scanned(), first_height);

    publish_model(2, std::vector<float>(100, 2.0f), 128);
    transport_.run_until(net::seconds(120));
    store.sync(node_->chain());
    const std::uint64_t second_height = node_->chain().height();
    ASSERT_GT(second_height, first_height);
    EXPECT_EQ(store.synced_height(), second_height);
    // Only the new blocks were ingested on the second poll.
    EXPECT_EQ(store.blocks_scanned(), second_height);
    EXPECT_EQ(store.ready_publishers(2).size(), 1u);
}

TEST(ModelStoreReorg, CursorMismatchTriggersFullRescan) {
    // A store synced against one branch, then pointed at a chain whose
    // block at the cursor height differs (the reorg case), must fall back
    // to a full rescan and pick up the new branch's models.
    struct MiniChain {
        net::SimTransport transport{net::LinkParams{}, 3};
        std::unique_ptr<node::Node> node;
        std::uint64_t nonce = 0;

        explicit MiniChain(std::uint64_t key_seed) {
            node::NodeConfig config;
            config.key_seed = key_seed;
            config.hash_rate = 500.0;
            config.chain.initial_difficulty = 200;
            config.chain.min_difficulty = 64;
            config.chain.target_interval_ms = 1000;
            config.rng_seed = key_seed * 13;
            node = std::make_unique<node::Node>(transport, config);
            node->start();
        }

        void publish(std::uint64_t round, const std::vector<float>& weights) {
            const Bytes payload = ml::serialize_weights(weights);
            const Hash32 digest = ml::weights_digest(BytesView(payload));
            const auto submit = [&](Bytes calldata) {
                node->submit_tx(chain::Transaction::make_signed(
                    node->key(), nonce++, vm::registry_address(),
                    21'000 + 16 * calldata.size() + 300'000, 1,
                    std::move(calldata)));
            };
            submit(abi::publish_calldata(round, digest, 1, payload.size()));
            submit(abi::chunk_calldata(round, 0, BytesView(payload)));
        }
    };

    MiniChain branch_a(31);
    branch_a.publish(1, std::vector<float>(60, 1.0f));
    branch_a.transport.run_until(net::seconds(60));

    MiniChain branch_b(32);
    branch_b.publish(1, std::vector<float>(60, 2.0f));
    branch_b.publish(2, std::vector<float>(60, 3.0f));
    branch_b.transport.run_until(net::seconds(120));

    ModelStore store;
    store.sync(branch_a.node->chain());
    ASSERT_NE(store.find(1, branch_a.node->address()), nullptr);
    EXPECT_EQ(store.find(1, branch_b.node->address()), nullptr);

    // The cursor's block is not canonical on branch B: full rescan.
    store.sync(branch_b.node->chain());
    EXPECT_EQ(store.synced_height(), branch_b.node->chain().height());
    const PublishedModel* model = store.find(1, branch_b.node->address());
    ASSERT_NE(model, nullptr);
    EXPECT_TRUE(model->complete());
    EXPECT_EQ(store.ready_publishers(2).size(), 1u);

    // Re-syncing the same branch is a no-op again (cursor re-anchored).
    const std::size_t ingested = store.blocks_scanned();
    store.sync(branch_b.node->chain());
    EXPECT_EQ(store.blocks_scanned(), ingested);
}

TEST_F(ModelStoreTest, IncompleteModelNotReady) {
    node_->start();
    // Publish announcement claiming 3 chunks but send only one.
    const std::vector<float> weights(100, 2.0f);
    const Bytes payload = ml::serialize_weights(weights);
    node_->submit_tx(chain::Transaction::make_signed(
        node_->key(), nonce_++, vm::registry_address(), 5'000'000, 1,
        abi::publish_calldata(2, ml::weights_digest(BytesView(payload)), 3,
                              payload.size())));
    node_->submit_tx(chain::Transaction::make_signed(
        node_->key(), nonce_++, vm::registry_address(), 5'000'000, 1,
        abi::chunk_calldata(2, 0, BytesView(payload).subspan(0, 50))));
    transport_.run_until(net::seconds(60));

    ModelStore store;
    store.sync(node_->chain());
    const PublishedModel* model = store.find(2, node_->address());
    ASSERT_NE(model, nullptr);
    EXPECT_FALSE(model->complete());
    EXPECT_TRUE(store.ready_publishers(2).empty());
    EXPECT_EQ(store.announced_publishers(2).size(), 1u);
}

TEST_F(ModelStoreTest, OutOfRangeChunkIndexKeepsModelIncomplete) {
    node_->start();
    // Announce 2 chunks, then store indices 0 and 7: the right count of
    // chunks, but index 1 never arrives.
    const std::vector<float> weights(100, 2.0f);
    const Bytes payload = ml::serialize_weights(weights);
    const BytesView view(payload);
    node_->submit_tx(chain::Transaction::make_signed(
        node_->key(), nonce_++, vm::registry_address(), 5'000'000, 1,
        abi::publish_calldata(2, ml::weights_digest(view), 2,
                              payload.size())));
    node_->submit_tx(chain::Transaction::make_signed(
        node_->key(), nonce_++, vm::registry_address(), 5'000'000, 1,
        abi::chunk_calldata(2, 0, view.subspan(0, 200))));
    node_->submit_tx(chain::Transaction::make_signed(
        node_->key(), nonce_++, vm::registry_address(), 5'000'000, 1,
        abi::chunk_calldata(2, 7, view.subspan(200))));
    transport_.run_until(net::seconds(60));

    ModelStore store;
    store.sync(node_->chain());
    const PublishedModel* model = store.find(2, node_->address());
    ASSERT_NE(model, nullptr);
    ASSERT_EQ(model->chunks.size(), 2u);
    EXPECT_FALSE(model->complete());
    EXPECT_EQ(model->completed_at, net::SimTime{0});
    EXPECT_TRUE(store.ready_publishers(2).empty());
    EXPECT_EQ(store.latest_complete(node_->address(), 3), nullptr);
}

// ------------------------------------------------------------------- Audit

TEST_F(ModelStoreTest, AuditProofRoundTrip) {
    node_->start();
    publish_model(6, std::vector<float>(50, 3.0f), 512);
    transport_.run_until(net::seconds(60));

    const auto proof =
        build_audit_proof(node_->chain(), 6, node_->address());
    ASSERT_TRUE(proof.has_value());
    const AuditVerdict verdict =
        verify_audit_proof(*proof, node_->address());
    EXPECT_TRUE(verdict.signature_valid);
    EXPECT_TRUE(verdict.calldata_matches);
    EXPECT_TRUE(verdict.inclusion_valid);
    EXPECT_TRUE(verdict.headers_linked);
    EXPECT_TRUE(verdict.pow_valid);
    EXPECT_TRUE(verdict.all_valid());
}

TEST_F(ModelStoreTest, AuditDetectsWrongPublisher) {
    node_->start();
    publish_model(7, std::vector<float>(50, 3.0f), 512);
    transport_.run_until(net::seconds(60));
    const auto proof = build_audit_proof(node_->chain(), 7, node_->address());
    ASSERT_TRUE(proof.has_value());
    const Address impostor = crypto::KeyPair::from_seed(999).address();
    EXPECT_FALSE(verify_audit_proof(*proof, impostor).all_valid());
}

TEST_F(ModelStoreTest, AuditDetectsTamperedProof) {
    node_->start();
    publish_model(8, std::vector<float>(50, 4.0f), 512);
    transport_.run_until(net::seconds(60));
    auto proof = build_audit_proof(node_->chain(), 8, node_->address());
    ASSERT_TRUE(proof.has_value());

    // Tampered tx payload -> signature fails, even though verifying the
    // honest proof first warmed the original tx's id and verdict caches.
    ASSERT_TRUE(verify_audit_proof(*proof, node_->address()).all_valid());
    chain::Transaction::Fields fields = proof->publish_tx.fields();
    fields.data[10] ^= 0x01;
    auto tampered = *proof;
    tampered.publish_tx = chain::Transaction::from_fields(std::move(fields));
    EXPECT_NE(tampered.publish_tx.hash(), proof->publish_tx.hash());
    EXPECT_FALSE(
        verify_audit_proof(tampered, node_->address()).signature_valid);

    // Broken header link.
    if (proof->header_chain.size() >= 2) {
        auto unlinked = *proof;
        unlinked.header_chain[1].parent_hash.data[0] ^= 0x01;
        EXPECT_FALSE(
            verify_audit_proof(unlinked, node_->address()).headers_linked);
    }

    // Forged PoW nonce.
    auto forged = *proof;
    forged.header_chain[0].pow_nonce ^= 0xabcdef;
    const AuditVerdict verdict = verify_audit_proof(forged, node_->address());
    // Changing the nonce breaks PoW (or, with tiny probability, the link).
    EXPECT_FALSE(verdict.all_valid());
}

TEST_F(ModelStoreTest, AuditMissingPublicationReturnsNull) {
    node_->start();
    transport_.run_until(net::seconds(10));
    EXPECT_FALSE(
        build_audit_proof(node_->chain(), 1, node_->address()).has_value());
}

// ----------------------------------------------------- Decentralized peers

TEST(Decentralized, SynchronousRoundsComplete) {
    const auto data = tiny_data();
    const fl::FlTask task = fl::make_simple_nn_task(data, 5);
    DecentralizedConfig config = fast_config();
    config.wait_policy = "wait_for=3,timeout=900s";
    const DecentralizedResult result = run_decentralized(task, config);

    ASSERT_EQ(result.peer_records.size(), 3u);
    for (const auto& records : result.peer_records) {
        ASSERT_EQ(records.size(), 2u);
        for (const PeerRoundRecord& record : records) {
            EXPECT_EQ(record.models_available, 3u);
            EXPECT_FALSE(record.timed_out);
            // Five combination rows (paper's table shape for n=3).
            EXPECT_EQ(record.combos.size(), 5u);
            EXPECT_FALSE(record.chosen_label.empty());
            EXPECT_GT(record.chosen_accuracy, 0.0);
            EXPECT_GE(record.aggregated_at, record.published_at);
        }
    }
    EXPECT_GT(result.chain_height, 0u);
    EXPECT_GT(result.traffic.messages_delivered, 0u);
}

TEST(Decentralized, CombinationRowsMatchPaperShape) {
    const auto data = tiny_data();
    const fl::FlTask task = fl::make_simple_nn_task(data, 5);
    DecentralizedConfig config = fast_config();
    config.rounds = 1;
    const DecentralizedResult result = run_decentralized(task, config);
    // Client A's rows: A / A,B / A,C / B,C / A,B,C.
    const auto& rows = result.peer_records[0][0].combos;
    ASSERT_EQ(rows.size(), 5u);
    EXPECT_EQ(rows[0].label, "A");
    EXPECT_EQ(rows[1].label, "A,B");
    EXPECT_EQ(rows[2].label, "A,C");
    EXPECT_EQ(rows[3].label, "B,C");
    EXPECT_EQ(rows[4].label, "A,B,C");
    // Client B's first row is B.
    EXPECT_EQ(result.peer_records[1][0].combos[0].label, "B");
}

TEST(Decentralized, AsyncWaitForOneUsesFewerModels) {
    const auto data = tiny_data();
    const fl::FlTask task = fl::make_simple_nn_task(data, 5);
    DecentralizedConfig config = fast_config();
    config.rounds = 1;
    config.wait_policy = "wait_for=1,timeout=900s";  // do not wait for anyone
    const DecentralizedResult result = run_decentralized(task, config);
    // At least one peer should have aggregated before all 3 models arrived.
    std::size_t min_models = 99;
    for (const auto& records : result.peer_records) {
        min_models = std::min(min_models, records[0].models_available);
    }
    EXPECT_LT(min_models, 3u);
    // Waiting time should be (near) zero for wait-for-1.
    EXPECT_LT(result.mean_wait_seconds, 60.0);
}

TEST(Decentralized, AsyncIsFasterThanSync) {
    const auto data = tiny_data();
    const fl::FlTask task = fl::make_simple_nn_task(data, 5);
    DecentralizedConfig sync_config = fast_config();
    sync_config.rounds = 2;
    sync_config.wait_policy = "wait_for=3,timeout=900s";
    DecentralizedConfig async_config = sync_config;
    async_config.wait_policy = "wait_for=1,timeout=900s";
    const auto sync_result = run_decentralized(task, sync_config);
    const auto async_result = run_decentralized(task, async_config);
    EXPECT_LE(async_result.mean_round_seconds,
              sync_result.mean_round_seconds + 1e-9);
}

TEST(Decentralized, DeterministicGivenSeed) {
    const auto data = tiny_data();
    const fl::FlTask task = fl::make_simple_nn_task(data, 5);
    DecentralizedConfig config = fast_config();
    config.rounds = 1;
    const auto a = run_decentralized(task, config);
    const auto b = run_decentralized(task, config);
    EXPECT_EQ(a.finished_at, b.finished_at);
    EXPECT_EQ(a.peer_records[0][0].chosen_label,
              b.peer_records[0][0].chosen_label);
    EXPECT_EQ(a.peer_records[2][0].chosen_accuracy,
              b.peer_records[2][0].chosen_accuracy);
}

TEST(Decentralized, PayloadPaddingSlowsPublication) {
    const auto data = tiny_data();
    const fl::FlTask task = fl::make_simple_nn_task(data, 5);
    DecentralizedConfig small = fast_config();
    small.rounds = 1;
    DecentralizedConfig big = small;
    big.payload_pad_bytes = 2 * 1024 * 1024;  // +2 MiB ballast
    const auto small_result = run_decentralized(task, small);
    const auto big_result = run_decentralized(task, big);
    EXPECT_GT(big_result.traffic.bytes_sent, small_result.traffic.bytes_sent);
    EXPECT_GE(big_result.mean_round_seconds,
              small_result.mean_round_seconds);
}

}  // namespace
}  // namespace bcfl::core
