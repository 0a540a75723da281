#include "chain/blockchain.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"

namespace bcfl::chain {

Blockchain::Blockchain(ChainConfig config,
                       std::shared_ptr<BlockExecutor> executor)
    : config_(config), executor_(std::move(executor)) {
    if (!executor_) throw Error("blockchain: executor must not be null");
    Block genesis;
    genesis.header.number = 0;
    genesis.header.difficulty = config_.initial_difficulty;
    genesis.header.timestamp_ms = config_.genesis_timestamp_ms;
    genesis.header.gas_limit = config_.block_gas_limit;
    genesis.header.tx_root = genesis.compute_tx_root();
    genesis_hash_ = genesis.hash();
    head_hash_ = genesis_hash_;
    records_.emplace(genesis_hash_,
                     Record{genesis,
                            {},
                            crypto::U256{genesis.header.difficulty},
                            std::make_shared<NonceSnapshot>()});
    canonical_[0] = genesis_hash_;
}

std::uint64_t Blockchain::NonceSnapshot::next_for(const Address& account) const {
    for (const NonceSnapshot* layer = this; layer != nullptr;
         layer = layer->base.get()) {
        const auto it = layer->delta.find(account);
        if (it != layer->delta.end()) return it->second;
    }
    return 0;
}

void Blockchain::flatten(NonceSnapshot& snapshot) {
    // Newest layer wins: `delta` already holds the top layer, and emplace
    // never overwrites, so walking towards the base only fills in senders
    // not touched more recently.
    for (const NonceSnapshot* layer = snapshot.base.get(); layer != nullptr;
         layer = layer->base.get()) {
        for (const auto& [account, nonce] : layer->delta) {
            snapshot.delta.emplace(account, nonce);
        }
    }
    snapshot.base = nullptr;
    snapshot.depth = 0;
}

const BlockHeader& Blockchain::head() const {
    return records_.at(head_hash_).block.header;
}

const Block& Blockchain::genesis() const {
    return records_.at(genesis_hash_).block;
}

const Block* Blockchain::block_by_hash(const Hash32& hash) const {
    const auto it = records_.find(hash);
    return it == records_.end() ? nullptr : &it->second.block;
}

const Block* Blockchain::block_by_number(std::uint64_t number) const {
    const auto it = canonical_.find(number);
    return it == canonical_.end() ? nullptr : block_by_hash(it->second);
}

const std::vector<Receipt>* Blockchain::receipts_for(
    const Hash32& block_hash) const {
    const auto it = records_.find(block_hash);
    return it == records_.end() ? nullptr : &it->second.receipts;
}

std::optional<TxLocation> Blockchain::locate_tx(const Hash32& tx_hash) const {
    const auto it = tx_index_.find(tx_hash);
    if (it == tx_index_.end()) return std::nullopt;
    return it->second;
}

std::uint64_t Blockchain::child_difficulty(const BlockHeader& parent) const {
    if (config_.fixed_difficulty) return config_.initial_difficulty;
    if (parent.number == 0) return config_.initial_difficulty;
    const Block* grandparent = block_by_hash(parent.parent_hash);
    if (grandparent == nullptr) return parent.difficulty;
    const std::uint64_t interval =
        parent.timestamp_ms - grandparent->header.timestamp_ms;
    return next_difficulty(parent.difficulty, interval,
                           config_.target_interval_ms, config_.min_difficulty);
}

std::shared_ptr<const Blockchain::NonceSnapshot> Blockchain::snapshot_for(
    Record& record) {
    if (record.nonces) return record.nonces;
    // The record sank below the snapshot horizon and was pruned. Rebuild
    // its nonce view by walking down to the nearest ancestor that still
    // holds one (genesis always does) and replaying the branch's txs —
    // the historical O(depth) path. Memoized back onto the record so a
    // burst of competing children on the same deep fork point (e.g.
    // post-partition gossip) pays the walk once, not per import; the
    // revived snapshot lives until a reorg rewinds the prune watermark
    // over it, which is bounded by actual deep-fork activity.
    std::vector<const Record*> path;
    const Record* cursor = &record;
    while (!cursor->nonces) {
        path.push_back(cursor);
        cursor = &records_.at(cursor->block.header.parent_hash);
    }
    auto snapshot = std::make_shared<NonceSnapshot>();
    snapshot->base = cursor->nonces;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
        for (const Transaction& tx : (*it)->block.transactions) {
            const auto [slot, inserted] =
                snapshot->delta.try_emplace(tx.sender(), 0);
            if (inserted) slot->second = snapshot->base->next_for(tx.sender());
            ++slot->second;
        }
    }
    flatten(*snapshot);
    record.nonces = std::move(snapshot);
    return record.nonces;
}

void Blockchain::prune_snapshots() {
    const std::uint64_t horizon = config_.nonce_snapshot_horizon;
    if (horizon == 0) return;
    const std::uint64_t head_number = head().number;
    if (head_number <= horizon) return;
    // Sweep from the watermark (amortized O(1) per head advance; genesis
    // keeps its empty snapshot forever). A reorg below the horizon lowers
    // the watermark (see set_head) so the new branch's sunk blocks are
    // swept too.
    for (std::uint64_t n = std::max<std::uint64_t>(pruned_below_, 1);
         n <= head_number - horizon; ++n) {
        const auto it = canonical_.find(n);
        if (it != canonical_.end()) records_.at(it->second).nonces.reset();
    }
    pruned_below_ = head_number - horizon + 1;
}

std::string Blockchain::validate(
    const Block& block, const Record& parent,
    const NonceSnapshot& parent_nonces,
    std::unordered_map<Address, std::uint64_t, FixedBytesHasher>& touched)
    const {
    const BlockHeader& h = block.header;
    const BlockHeader& p = parent.block.header;
    if (h.number != p.number + 1) return "bad block number";
    if (h.timestamp_ms < p.timestamp_ms) return "timestamp before parent";
    if (h.gas_limit != config_.block_gas_limit) return "bad gas limit";
    if (h.difficulty != child_difficulty(p)) {
        return "bad difficulty";
    }
    if (!check_pow(h)) return "invalid proof of work";
    if (h.tx_root != block.compute_tx_root()) return "tx root mismatch";

    // Expected nonces come from the parent's per-branch snapshot — O(1)
    // per sender — instead of re-walking the branch back to genesis on
    // every import. Spending from the remaining budget (rather than
    // summing gas limits) keeps the check overflow-proof: the old
    // `gas_budget += tx.gas_limit` accumulator could wrap uint64 and let
    // an over-limit block through.
    std::uint64_t gas_left = h.gas_limit;
    for (const Transaction& tx : block.transactions) {
        if (!tx.verify_signature()) return "bad tx signature";
        if (tx.gas_limit() < intrinsic_gas(config_.gas, tx)) {
            return "tx gas below intrinsic";
        }
        const Address from = tx.sender();
        const auto [it, inserted] = touched.try_emplace(from, 0);
        if (inserted) it->second = parent_nonces.next_for(from);
        if (tx.nonce() != it->second) return "bad tx nonce";
        ++it->second;
        if (tx.gas_limit() > gas_left) return "block over gas limit";
        gas_left -= tx.gas_limit();
    }
    return {};
}

ImportResult Blockchain::import_block(const Block& block) {
    ImportResult result;
    const Hash32 id = block.hash();
    if (records_.contains(id)) {
        result.status = ImportStatus::duplicate;
        return result;
    }
    const auto parent_it = records_.find(block.header.parent_hash);
    if (parent_it == records_.end()) {
        result.status = ImportStatus::orphan;
        result.reason = "unknown parent";
        return result;
    }
    Record& parent = parent_it->second;
    const std::shared_ptr<const NonceSnapshot> parent_nonces =
        snapshot_for(parent);
    std::unordered_map<Address, std::uint64_t, FixedBytesHasher> touched;
    if (std::string reason = validate(block, parent, *parent_nonces, touched);
        !reason.empty()) {
        result.status = ImportStatus::rejected;
        result.reason = std::move(reason);
        return result;
    }

    // Deterministic re-execution; roots must match the sealed header.
    const ExecutionResult exec =
        executor_->execute(parent.block.header, block);
    if (exec.state_root != block.header.state_root) {
        result.status = ImportStatus::rejected;
        result.reason = "state root mismatch";
        return result;
    }
    if (receipts_root(exec.receipts) != block.header.receipts_root) {
        result.status = ImportStatus::rejected;
        result.reason = "receipts root mismatch";
        return result;
    }
    if (exec.gas_used != block.header.gas_used) {
        result.status = ImportStatus::rejected;
        result.reason = "gas used mismatch";
        return result;
    }

    // Copy-on-write nonce snapshot: an empty block shares the parent's
    // snapshot outright; otherwise one delta layer holds the senders this
    // block touched, flattened periodically to bound lookup depth.
    std::shared_ptr<const NonceSnapshot> nonces = parent_nonces;
    if (!touched.empty()) {
        auto layer = std::make_shared<NonceSnapshot>();
        layer->base = parent_nonces;
        layer->delta = std::move(touched);
        layer->depth = parent_nonces->depth + 1;
        if (layer->depth >= kNonceFlattenDepth) flatten(*layer);
        nonces = std::move(layer);
    }
    Record record{block, exec.receipts,
                  add(parent.total_difficulty,
                      crypto::U256{block.header.difficulty}),
                  std::move(nonces)};
    const crypto::U256 new_td = record.total_difficulty;
    records_.emplace(id, std::move(record));

    if (new_td > records_.at(head_hash_).total_difficulty) {
        set_head(id, result);
        result.status = ImportStatus::added_head;
        prune_snapshots();
    } else {
        result.status = ImportStatus::added_side;
    }
    return result;
}

void Blockchain::set_head(const Hash32& new_head, ImportResult& result) {
    // Fast path: the new head extends the old one.
    const Record& record = records_.at(new_head);
    const std::uint64_t new_number = record.block.header.number;
    if (record.block.header.parent_hash == head_hash_) {
        head_hash_ = new_head;
        canonical_[new_number] = new_head;
        TxLocation loc{new_head, new_number, 0};
        for (std::size_t i = 0; i < record.block.transactions.size(); ++i) {
            loc.index = i;
            const Transaction& tx = record.block.transactions[i];
            tx_index_[tx.hash()] = loc;
            nonces_[tx.sender()]++;
        }
        return;
    }

    // Reorg: walk both branches back only to their common ancestor. The
    // shared prefix is untouched, so the whole switch — index retraction,
    // re-application and abandoned-tx collection — costs O(blocks past the
    // fork point), not O(chain height).
    result.reorged = true;
    std::vector<const Record*> old_suffix;  // old head -> fork (exclusive)
    std::vector<Hash32> new_suffix;         // new head -> fork (exclusive)
    {
        Hash32 a = head_hash_;
        Hash32 b = new_head;
        const Record* ra = &records_.at(a);
        const Record* rb = &records_.at(b);
        while (ra->block.header.number > rb->block.header.number) {
            old_suffix.push_back(ra);
            a = ra->block.header.parent_hash;
            ra = &records_.at(a);
        }
        while (rb->block.header.number > ra->block.header.number) {
            new_suffix.push_back(b);
            b = rb->block.header.parent_hash;
            rb = &records_.at(b);
        }
        while (a != b) {
            old_suffix.push_back(ra);
            a = ra->block.header.parent_hash;
            ra = &records_.at(a);
            new_suffix.push_back(b);
            b = rb->block.header.parent_hash;
            rb = &records_.at(b);
        }
        // Blocks the new branch re-canonicalizes below the prune
        // watermark carry un-pruned snapshots; rewind so the next sweep
        // covers them.
        pruned_below_ =
            std::min(pruned_below_, ra->block.header.number + 1);
    }

    // Retract the abandoned suffix from the canonical indices.
    const std::uint64_t old_number =
        records_.at(head_hash_).block.header.number;
    for (const Record* r : old_suffix) {
        for (const Transaction& tx : r->block.transactions) {
            tx_index_.erase(tx.hash());
            const auto it = nonces_.find(tx.sender());
            if (it != nonces_.end() && --it->second == 0) nonces_.erase(it);
        }
    }
    // A heavier branch can still be shorter: drop numbers past the new tip.
    for (std::uint64_t n = new_number + 1; n <= old_number; ++n) {
        canonical_.erase(n);
    }

    // Apply the new branch from the fork point upwards.
    for (auto it = new_suffix.rbegin(); it != new_suffix.rend(); ++it) {
        const Record& r = records_.at(*it);
        canonical_[r.block.header.number] = *it;
        TxLocation loc{*it, r.block.header.number, 0};
        for (std::size_t i = 0; i < r.block.transactions.size(); ++i) {
            loc.index = i;
            const Transaction& tx = r.block.transactions[i];
            tx_index_[tx.hash()] = loc;
            nonces_[tx.sender()]++;
        }
    }
    head_hash_ = new_head;

    // Abandoned = divergent old-suffix txs not re-included on the new
    // branch, reported head-first (the historical full-walk order) for
    // deterministic mempool re-injection.
    std::unordered_set<Hash32, FixedBytesHasher> new_branch_txs;
    for (const Hash32& hash : new_suffix) {
        for (const Transaction& tx : records_.at(hash).block.transactions) {
            new_branch_txs.insert(tx.hash());
        }
    }
    for (const Record* r : old_suffix) {
        for (const Transaction& tx : r->block.transactions) {
            if (!new_branch_txs.contains(tx.hash())) {
                result.abandoned_txs.push_back(tx);
            }
        }
    }
}

Block Blockchain::build_block(const Address& miner,
                              std::vector<Transaction> txs,
                              std::uint64_t timestamp_ms) const {
    const Record& parent = records_.at(head_hash_);
    Block block;
    block.transactions = std::move(txs);
    BlockHeader& h = block.header;
    h.number = parent.block.header.number + 1;
    h.parent_hash = head_hash_;
    h.miner = miner;
    h.timestamp_ms = timestamp_ms;
    h.gas_limit = config_.block_gas_limit;
    h.difficulty = child_difficulty(parent.block.header);
    h.tx_root = block.compute_tx_root();
    const ExecutionResult exec =
        executor_->execute(parent.block.header, block);
    h.state_root = exec.state_root;
    h.receipts_root = receipts_root(exec.receipts);
    h.gas_used = exec.gas_used;
    return block;
}

}  // namespace bcfl::chain
