// Replay probes for the chain, crypto, rlp and vm layers. After the traced
// run, one node's first-seen tx and block messages are pushed again through
// the public decode/hash/verify/import functions on a fresh Blockchain whose
// VmBlockExecutor is wrapped in a timer, one call at a time.
#pragma once

#include <cstdint>
#include <vector>

#include "core/experiment.hpp"
#include "timed.hpp"

namespace bcfl::e2e {

struct ReplayResult {
    std::vector<double> tx_decode_us;   // Transaction::decode
    std::vector<double> sig_verify_us;  // Transaction::verify_signature
    double tx_hash_bytes = 0.0;         // bytes hashed by Transaction::hash
    double tx_hash_s = 0.0;
    std::vector<double> import_ms;        // Blockchain::import_block
    std::vector<double> execute_ms;       // VmBlockExecutor::execute
    std::uint64_t blocks_imported = 0;    // added_head or added_side
    std::uint64_t blocks_not_imported = 0;
    bool signatures_valid = true;
};

/// Replays `messages` against a fresh chain configured like `config`'s
/// nodes.
[[nodiscard]] ReplayResult replay(const MessageLog::Messages& messages,
                                  const core::DecentralizedConfig& config);

}  // namespace bcfl::e2e
