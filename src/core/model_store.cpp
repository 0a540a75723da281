#include "core/model_store.hpp"

#include "crypto/keccak.hpp"
#include "vm/registry_contract.hpp"

namespace bcfl::core {

namespace abi = vm::registry_abi;

Bytes PublishedModel::assemble() const {
    Bytes out;
    out.reserve(size_bytes);
    for (const auto& [index, payload] : chunks) append(out, payload);
    return out;
}

void ModelStore::sync(const chain::Blockchain& chain) {
    const std::uint64_t height = chain.height();

    // Incremental fast path: everything up to the cursor is already
    // ingested, provided the cursor block is still canonical. A parent-hash
    // mismatch (or a chain now shorter than the cursor) means a reorg moved
    // the canonical branch below us: fall back to a full rescan, which is
    // safe because ingestion is idempotent per (block, log).
    std::uint64_t from = synced_height_ + 1;
    if (synced_height_ > 0) {
        const chain::Block* anchor = chain.block_by_number(synced_height_);
        if (height < synced_height_ || anchor == nullptr ||
            anchor->hash() != synced_hash_) {
            from = 1;
        }
    }

    for (std::uint64_t number = from; number <= height; ++number) {
        const chain::Block* block = chain.block_by_number(number);
        if (block == nullptr) continue;
        const auto* receipts = chain.receipts_for(block->hash());
        if (receipts == nullptr) continue;
        ingest(*block, *receipts);
        ++blocks_ingested_;
    }

    if (height == 0) {
        synced_height_ = 0;
        return;
    }
    if (const chain::Block* head = chain.block_by_number(height)) {
        synced_height_ = height;
        synced_hash_ = head->hash();
    }
}

void ModelStore::ingest(const chain::Block& block,
                        const std::vector<chain::Receipt>& receipts) {
    // Completion time = timestamp of the block that delivered the final
    // piece, so staleness decay works off on-chain arrival, not local polls.
    const net::SimTime block_time = net::ms(block.header.timestamp_ms);
    const auto stamp_if_complete = [block_time](PublishedModel& model) {
        if (model.completed_at == 0 && model.complete()) {
            model.completed_at = block_time;
        }
    };
    for (std::size_t i = 0;
         i < block.transactions.size() && i < receipts.size(); ++i) {
        const chain::Transaction& tx = block.transactions[i];
        const chain::Receipt& receipt = receipts[i];
        if (!receipt.success) continue;
        for (const chain::LogEntry& log : receipt.logs) {
            if (const auto published = abi::parse_published(log)) {
                if (filter_ &&
                    !filter_(published->round, published->publisher)) {
                    continue;
                }
                PublishedModel& model =
                    models_[{published->round, published->publisher}];
                model.owner = published->publisher;
                model.round = published->round;
                model.model_hash = published->model_hash;
                model.chunk_count = published->chunk_count;
                model.size_bytes = published->size_bytes;
                stamp_if_complete(model);
                continue;
            }
            if (const auto chunk = abi::parse_chunk(log)) {
                if (filter_ && !filter_(chunk->round, chunk->publisher)) {
                    continue;
                }
                // The payload travels in the transaction calldata. The log
                // publisher must equal the tx sender (by construction of
                // CALLER); the payload itself is not hashed here.
                const auto payload = abi::chunk_payload(tx.data());
                if (!payload.has_value()) continue;
                if (chunk->publisher != tx.sender()) continue;
                PublishedModel& model =
                    models_[{chunk->round, chunk->publisher}];
                model.owner = chunk->publisher;
                model.round = chunk->round;
                model.chunks[chunk->index] = *payload;
                stamp_if_complete(model);
            }
        }
    }
}

std::vector<Address> ModelStore::ready_publishers(std::uint64_t round) const {
    std::vector<Address> out;
    for (const auto& [key, model] : models_) {
        if (key.first == round && model.complete()) out.push_back(model.owner);
    }
    return out;
}

std::vector<Address> ModelStore::announced_publishers(
    std::uint64_t round) const {
    std::vector<Address> out;
    for (const auto& [key, model] : models_) {
        if (key.first == round && model.chunk_count > 0) {
            out.push_back(model.owner);
        }
    }
    return out;
}

const PublishedModel* ModelStore::find(std::uint64_t round,
                                       const Address& owner) const {
    const auto it = models_.find({round, owner});
    return it == models_.end() ? nullptr : &it->second;
}

const PublishedModel* ModelStore::latest_complete(
    const Address& owner, std::uint64_t before_round) const {
    // Keys are ordered by (round, owner): walk backwards from the first key
    // at `before_round` and return the newest complete model by `owner`.
    const PublishedModel* best = nullptr;
    for (auto it = models_.lower_bound({before_round, Address{}});
         it != models_.begin();) {
        --it;
        if (it->second.owner == owner && it->second.complete()) {
            best = &it->second;
            break;
        }
    }
    return best;
}

}  // namespace bcfl::core
