// Pending transaction pool (mempool).
//
// Orders candidate transactions by gas price (desc) then arrival order, and
// enforces per-sender nonce sequencing so multi-chunk model publishes (chunk
// txs with consecutive nonces) are mined in order. Selection merges
// per-sender nonce-ordered queues by price in O(n log n), reproducing the
// historical multi-pass scan order exactly (see select()).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "chain/gas.hpp"
#include "chain/types.hpp"

namespace bcfl::chain {

class TxPool {
public:
    explicit TxPool(GasSchedule schedule = {}) : schedule_(schedule) {}

    /// Adds a transaction. Returns false (and ignores it) when it is
    /// already pending, carries an invalid signature, or cannot pay
    /// intrinsic gas. A transaction removed from the pool (mined) may be
    /// re-added later; the node's chain-level nonce tracking keeps an
    /// already-mined tx from being selected again.
    bool add(const Transaction& tx);

    /// The pooled copy of a transaction, or null if it is not pending. The
    /// copy carries the id and signature verdict computed at admission.
    [[nodiscard]] const Transaction* find(const Hash32& tx_hash) const;

    /// Selects transactions for a block: highest gas price first, respecting
    /// per-sender nonce order and the remaining block gas budget (by
    /// gas_limit). Selected transactions stay in the pool until `remove`.
    [[nodiscard]] std::vector<Transaction> select(
        std::uint64_t block_gas_limit,
        const std::unordered_map<Address, std::uint64_t, FixedBytesHasher>&
            next_nonce_by_sender) const;

    /// Removes transactions (e.g. after they were mined). Frees *all* state
    /// held for them — a long-running pool's memory is bounded by what is
    /// currently pending, not by the total transaction history.
    void remove(const std::vector<Transaction>& txs);

    /// Re-injects transactions from abandoned blocks after a reorg without
    /// re-running signature/intrinsic-gas admission (the abandoned block
    /// passed validation, and each tx carries its cached verdict). Pending
    /// duplicates are skipped via `by_hash_`.
    void reinject(const std::vector<Transaction>& txs);

    /// Drops every pending tx whose nonce is below its sender's next
    /// expected nonce (already satisfied on the canonical chain): such a
    /// tx can never be selected again, so keeping it is a leak. Covers
    /// duplicates of mined txs re-admitted through gossip after the
    /// node's bounded dedup set forgot them, and replaced same-nonce txs
    /// whose sibling was mined. Returns the number dropped.
    std::size_t prune_stale(
        const std::unordered_map<Address, std::uint64_t, FixedBytesHasher>&
            next_nonce_by_sender);

    [[nodiscard]] std::size_t size() const { return by_hash_.size(); }
    [[nodiscard]] bool empty() const { return by_hash_.empty(); }

private:
    /// Rebuilds `order_` without dead/duplicate ids once it is mostly
    /// stale, bounding its memory by what is pending.
    void maybe_compact_order();

    GasSchedule schedule_;
    std::unordered_map<Hash32, Transaction, FixedBytesHasher> by_hash_;
    std::vector<Hash32> order_;  // arrival order; may hold removed ids
};

}  // namespace bcfl::chain
