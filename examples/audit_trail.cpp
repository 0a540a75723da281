// Scenario: non-repudiation (the paper's Case 3). A peer publishes a model;
// any other participant later proves — from chain data alone — that the
// publisher cannot deny authorship. Tampering with any part of the evidence
// (payload, headers, PoW) is detected.
//
//   $ ./build/examples/audit_trail
#include <cstdio>
#include <utility>

#include "core/audit.hpp"
#include "core/paper_setup.hpp"
#include "ml/serialize.hpp"
#include "net/sim_transport.hpp"
#include "vm/registry_contract.hpp"

int main() {
    using namespace bcfl;
    namespace abi = vm::registry_abi;

    // One miner, one publisher account.
    net::SimTransport transport(net::LinkParams{}, 11);
    node::NodeConfig config;
    config.key_seed = 42;
    config.hash_rate = 400.0;
    config.chain.initial_difficulty = 400;
    config.chain.min_difficulty = 64;
    config.chain.target_interval_ms = 2000;
    node::Node node(transport, config);
    node.start();

    // Publish a (toy) model for round 3.
    const std::vector<float> weights(500, 0.125f);
    const Bytes payload = ml::serialize_weights(weights);
    const Hash32 digest = ml::weights_digest(BytesView(payload));
    std::uint64_t nonce = 0;
    node.submit_tx(chain::Transaction::make_signed(
        node.key(), nonce++, vm::registry_address(), 5'000'000, 1,
        abi::publish_calldata(3, digest, 1, payload.size())));
    node.submit_tx(chain::Transaction::make_signed(
        node.key(), nonce++, vm::registry_address(), 5'000'000, 1,
        abi::chunk_calldata(3, 0, payload)));
    transport.run_until(net::seconds(60));

    std::printf("chain height: %llu\n",
                static_cast<unsigned long long>(node.chain().height()));

    // Build the audit proof from chain data.
    const auto proof = core::build_audit_proof(node.chain(), 3, node.address());
    if (!proof.has_value()) {
        std::printf("no publish transaction found — unexpected\n");
        return 1;
    }
    std::printf("proof: publish tx %s\n       in block #%llu, %zu headers to "
                "head, model hash %s\n",
                proof->publish_tx.hash().hex().substr(0, 16).c_str(),
                static_cast<unsigned long long>(
                    proof->header_chain.front().number),
                proof->header_chain.size(),
                proof->model_hash.hex().substr(0, 16).c_str());

    const auto verdict = core::verify_audit_proof(*proof, node.address());
    std::printf("\nhonest proof verifies:\n"
                "  signature %d, calldata %d, inclusion %d, headers %d, pow %d"
                " -> %s\n",
                verdict.signature_valid, verdict.calldata_matches,
                verdict.inclusion_valid, verdict.headers_linked,
                verdict.pow_valid, verdict.all_valid() ? "VALID" : "INVALID");

    // The publisher tries to repudiate by claiming a different account sent
    // it; an auditor tries to forge evidence. Both fail.
    const Address impostor = crypto::KeyPair::from_seed(1234).address();
    std::printf("claimed by impostor          -> %s\n",
                core::verify_audit_proof(*proof, impostor).all_valid()
                    ? "VALID (bug!)"
                    : "REJECTED");

    chain::Transaction::Fields fields = proof->publish_tx.fields();
    fields.data[8] ^= 0x40;  // alter the announced round
    auto tampered = *proof;
    tampered.publish_tx = chain::Transaction::from_fields(std::move(fields));
    std::printf("tampered publish calldata    -> %s\n",
                core::verify_audit_proof(tampered, node.address()).all_valid()
                    ? "VALID (bug!)"
                    : "REJECTED");

    auto forged = *proof;
    forged.header_chain.front().pow_nonce += 1;
    std::printf("forged header (stale PoW)    -> %s\n",
                core::verify_audit_proof(forged, node.address()).all_valid()
                    ? "VALID (bug!)"
                    : "REJECTED");
    return 0;
}
