// Non-repudiation audit: the evidence trail that lets any participant prove
// "client X published model M in round R" — the paper's Case 3.
//
// A proof bundles: the signed publish transaction, a Merkle inclusion proof
// against the containing block's tx root, and the PoW-sealed header chain
// from that block to the current head. `verify_audit_proof` re-checks all of
// it without access to the full chain.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chain/blockchain.hpp"
#include "crypto/merkle.hpp"
#include "node/node.hpp"

namespace bcfl::core {

struct AuditProof {
    chain::Transaction publish_tx;
    std::uint64_t round = 0;
    Hash32 model_hash;
    crypto::MerkleProof inclusion;
    /// Headers from the containing block (front) to the head (back).
    std::vector<chain::BlockHeader> header_chain;
};

struct AuditVerdict {
    bool signature_valid = false;
    bool calldata_matches = false;   // publish args match (round, hash)
    bool inclusion_valid = false;    // Merkle proof against tx_root
    bool headers_linked = false;     // parent-hash chain intact
    bool pow_valid = false;          // every header passes PoW

    [[nodiscard]] bool all_valid() const {
        return signature_valid && calldata_matches && inclusion_valid &&
               headers_linked && pow_valid;
    }
};

/// Builds a proof for (round, publisher) from a node's canonical chain.
/// Returns nullopt if no matching publish transaction was mined.
[[nodiscard]] std::optional<AuditProof> build_audit_proof(
    const chain::Blockchain& chain, std::uint64_t round,
    const Address& publisher);

/// Verifies a proof (stand-alone; only needs the proof itself).
[[nodiscard]] AuditVerdict verify_audit_proof(const AuditProof& proof,
                                              const Address& claimed_publisher);

}  // namespace bcfl::core
