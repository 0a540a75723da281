#include "core/audit.hpp"

#include "chain/pow.hpp"
#include "vm/registry_contract.hpp"

namespace bcfl::core {

namespace abi = vm::registry_abi;

namespace {

/// Extracts (round, model_hash) from publishModel calldata by sender match.
std::optional<std::pair<std::uint64_t, Hash32>> parse_publish(
    const chain::Transaction& tx) {
    const Bytes probe = abi::publish_calldata(0, Hash32{}, 0, 0);
    if (tx.data().size() != probe.size()) return std::nullopt;
    for (std::size_t i = 0; i < 4; ++i) {
        if (tx.data()[i] != probe[i]) return std::nullopt;
    }
    const std::uint64_t round = be_u64(BytesView(tx.data()).subspan(28, 8));
    const Hash32 hash = Hash32::from(BytesView(tx.data()).subspan(36, 32));
    return std::make_pair(round, hash);
}

}  // namespace

std::optional<AuditProof> build_audit_proof(const chain::Blockchain& chain,
                                            std::uint64_t round,
                                            const Address& publisher) {
    for (std::uint64_t number = 1; number <= chain.height(); ++number) {
        const chain::Block* block = chain.block_by_number(number);
        if (block == nullptr) continue;
        for (std::size_t i = 0; i < block->transactions.size(); ++i) {
            const chain::Transaction& tx = block->transactions[i];
            if (tx.sender() != publisher) continue;
            const auto publish = parse_publish(tx);
            if (!publish.has_value() || publish->first != round) continue;

            std::vector<Hash32> leaves;
            for (const chain::Transaction& t : block->transactions) {
                leaves.push_back(t.hash());
            }
            AuditProof proof{.publish_tx = tx,
                             .round = round,
                             .model_hash = publish->second,
                             .inclusion = crypto::merkle_prove(leaves, i),
                             .header_chain = {}};
            for (std::uint64_t n = number; n <= chain.height(); ++n) {
                proof.header_chain.push_back(
                    chain.block_by_number(n)->header);
            }
            return proof;
        }
    }
    return std::nullopt;
}

AuditVerdict verify_audit_proof(const AuditProof& proof,
                                const Address& claimed_publisher) {
    AuditVerdict verdict;
    // 1. The transaction is signed by the claimed publisher.
    verdict.signature_valid = proof.publish_tx.verify_signature() &&
                              proof.publish_tx.sender() == claimed_publisher;
    // 2. The calldata announces the claimed round and model hash.
    const auto publish = parse_publish(proof.publish_tx);
    verdict.calldata_matches = publish.has_value() &&
                               publish->first == proof.round &&
                               publish->second == proof.model_hash;
    // 3. The transaction is included in the first header's tx root.
    if (!proof.header_chain.empty()) {
        verdict.inclusion_valid = crypto::merkle_verify(
            proof.publish_tx.hash(), proof.inclusion,
            proof.header_chain.front().tx_root);
    }
    // 4 + 5. Headers link and each carries valid PoW.
    verdict.headers_linked = !proof.header_chain.empty();
    verdict.pow_valid = !proof.header_chain.empty();
    for (std::size_t i = 0; i < proof.header_chain.size(); ++i) {
        const chain::BlockHeader& header = proof.header_chain[i];
        if (!chain::check_pow(header)) verdict.pow_valid = false;
        if (i > 0 && header.parent_hash != proof.header_chain[i - 1].hash()) {
            verdict.headers_linked = false;
        }
    }
    return verdict;
}

}  // namespace bcfl::core
