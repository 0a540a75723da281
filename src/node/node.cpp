#include "node/node.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace bcfl::node {

vm::WorldState Node::genesis_state() {
    vm::WorldState state;
    state.deploy(vm::registry_address(), vm::registry_bytecode());
    return state;
}

Node::Node(net::Transport& transport, NodeConfig config)
    : transport_(transport),
      config_(config),
      key_(crypto::KeyPair::from_seed(config.key_seed)),
      rng_(config.rng_seed ^ config.key_seed * 0x9e3779b97f4a7c15ull),
      executor_(std::make_shared<VmBlockExecutor>(config.chain.gas)),
      pool_(config.chain.gas) {
    config_.chain.genesis_timestamp_ms = 0;
    chain_ = std::make_unique<chain::Blockchain>(config_.chain, executor_);
    // The genesis header keeps its zero state root; the registry-bearing
    // state is registered under it so view calls at genesis resolve.
    executor_->register_genesis(chain_->genesis().header, genesis_state());
    id_ = transport_.add_node(
        [this](net::NodeId from, const Bytes& msg) { handle_message(from, msg); });
}

void Node::start() {
    if (started_) return;
    started_ = true;
    schedule_mining();
}

void Node::submit_tx(const chain::Transaction& tx) {
    if (!pool_.add(tx)) return;
    ++stats_.txs_submitted;
    mark_seen(tx.hash());
    broadcast(MsgKind::tx, tx.encode());
}

bool Node::already_seen(const Hash32& id) const {
    return seen_now_.contains(id) || seen_prev_.contains(id);
}

void Node::mark_seen(const Hash32& id) {
    if (!seen_now_.insert(id).second) return;
    if (seen_now_.size() < std::max<std::size_t>(config_.gossip_seen_cap, 1)) {
        return;
    }
    // Generational rotation: the oldest generation is dropped wholesale —
    // bounded memory instead of one hash per tx/block ever gossiped. A
    // dropped hash that resurfaces costs only a duplicate chain import or
    // a mempool admission check, both cheap and idempotent.
    stats_.seen_evictions += seen_prev_.size();
    seen_prev_ = std::move(seen_now_);
    seen_now_.clear();
}

vm::CallResult Node::call_view(Bytes calldata) const {
    vm::CallContext ctx;
    ctx.contract = vm::registry_address();
    ctx.caller = key_.address();
    ctx.calldata = calldata;
    ctx.gas_limit = 500'000'000;
    ctx.block_number = chain_->head().number;
    ctx.timestamp_ms = chain_->head().timestamp_ms;
    return executor_->vm().static_call(head_state(), ctx);
}

const vm::WorldState& Node::head_state() const {
    return executor_->state_after(chain_->head());
}

void Node::set_compute_load(double load) {
    if (load < 0.0) load = 0.0;
    if (load > 0.999) load = 0.999;
    compute_load_ = load;
    // Memoryless mining: rescheduling with the new rate is statistically
    // equivalent to continuing.
    if (started_) schedule_mining();
}

void Node::broadcast(MsgKind kind, const Bytes& body) {
    Bytes message;
    message.reserve(body.size() + 1);
    message.push_back(static_cast<std::uint8_t>(kind));
    append(message, body);
    // Overlay-restricted flood: txs may take a narrower overlay than
    // blocks (see NodeConfig::tx_neighbors). An empty list means the full
    // mesh, the historical behavior.
    const std::vector<net::NodeId>& overlay =
        (kind == MsgKind::tx && !config_.tx_neighbors.empty())
            ? config_.tx_neighbors
            : config_.neighbors;
    if (overlay.empty()) {
        transport_.broadcast(id_, message);
        return;
    }
    for (net::NodeId to : overlay) transport_.send(id_, to, message);
}

void Node::handle_message(net::NodeId from, const Bytes& message) {
    if (message.empty()) return;
    const auto kind = static_cast<MsgKind>(message[0]);
    const BytesView body = BytesView(message).subspan(1);
    try {
        switch (kind) {
            case MsgKind::tx: {
                const chain::Transaction tx = chain::Transaction::decode(body);
                const Hash32 id = tx.hash();
                if (already_seen(id)) return;
                mark_seen(id);
                if (pool_.add(tx)) broadcast(MsgKind::tx, tx.encode());
                return;
            }
            case MsgKind::block:
                handle_block(from, chain::Block::decode(body));
                return;
            case MsgKind::get_block: {
                if (body.size() != 32) return;
                const Hash32 wanted = Hash32::from(body);
                if (const chain::Block* found =
                        chain_->block_by_hash(wanted)) {
                    ++stats_.block_requests_served;
                    Bytes reply;
                    const Bytes encoded = found->encode();
                    reply.reserve(encoded.size() + 1);
                    reply.push_back(
                        static_cast<std::uint8_t>(MsgKind::block));
                    append(reply, encoded);
                    transport_.send(id_, from, std::move(reply));
                }
                return;
            }
        }
    } catch (const Error&) {
        // Malformed gossip is dropped, matching devp2p behaviour.
    }
}

void Node::handle_block(net::NodeId from, chain::Block block) {
    const Hash32 id = block.hash();
    if (already_seen(id)) return;
    mark_seen(id);
    // Same id means same bytes, so a tx this node already pooled is
    // replaced by its pooled copy, whose signature was verified at
    // admission: import then does not verify it again. Txs the pool never
    // held keep their fresh decode and are verified at import.
    for (chain::Transaction& tx : block.transactions) {
        if (const chain::Transaction* pooled = pool_.find(tx.hash())) {
            tx = *pooled;
        }
    }
    import_block(block, /*relay=*/true, from);
}

Hash32 Node::earliest_missing_ancestor(Hash32 hash) const {
    // Chase through the orphan buffer: if the "missing" block is itself
    // buffered, what we actually lack is *its* parent, and so on. Each
    // step is one map lookup; a hash cycle is impossible (a header commits
    // to its parent hash), but cap the walk at the buffer size anyway.
    for (std::size_t steps = 0; steps <= orphan_parent_.size(); ++steps) {
        const auto it = orphan_parent_.find(hash);
        if (it == orphan_parent_.end()) break;
        hash = it->second;
    }
    return hash;
}

void Node::request_block(net::NodeId peer, const Hash32& hash) {
    // No in-flight bookkeeping: a request (or its reply) lost to the same
    // fault that orphaned the block is retried naturally, because every
    // subsequently gossiped descendant re-enters import as an orphan and
    // asks again. Requests are 33 bytes; duplicates are cheap.
    if (already_seen(hash) || chain_->block_by_hash(hash) != nullptr) {
        return;  // already held (imported, buffered, or rejected for cause)
    }
    ++stats_.blocks_requested;
    Bytes message;
    message.reserve(33);
    message.push_back(static_cast<std::uint8_t>(MsgKind::get_block));
    append(message, hash.view());
    transport_.send(id_, peer, std::move(message));
}

void Node::import_block(const chain::Block& block, bool relay,
                        net::NodeId origin) {
    const chain::ImportResult result = chain_->import_block(block);
    switch (result.status) {
        case chain::ImportStatus::added_head: {
            ++stats_.blocks_imported;
            if (result.reorged) {
                ++stats_.reorgs;
                pool_.reinject(result.abandoned_txs);
            }
            pool_.remove(block.transactions);
            // Head changes can strand below-nonce txs in the pool (mined
            // duplicates re-admitted after seen-set eviction, replaced
            // same-nonce siblings, reorg leftovers); they are
            // unselectable forever, so drop them — on every reorg, and
            // otherwise every few heads so the O(pool) scan amortizes to
            // O(new work) per import. Stale txs are harmless while they
            // wait: select() can never pick them.
            constexpr std::uint64_t kPruneHeadInterval = 16;
            if (result.reorged ||
                ++heads_since_prune_ >= kPruneHeadInterval) {
                stats_.stale_txs_pruned +=
                    pool_.prune_stale(chain_->account_nonces());
                heads_since_prune_ = 0;
            }
            if (relay) broadcast(MsgKind::block, block.encode());
            notify_new_head();
            retry_orphans();
            if (started_) schedule_mining();
            return;
        }
        case chain::ImportStatus::added_side:
            ++stats_.blocks_imported;
            if (relay) broadcast(MsgKind::block, block.encode());
            retry_orphans();
            return;
        case chain::ImportStatus::orphan: {
            // Idempotent buffering: after a seen-set rotation the same
            // orphan can be re-delivered — never store a second copy.
            const Hash32 id = block.hash();
            if (!orphan_parent_.contains(id)) {
                orphans_[block.header.parent_hash].push_back(block);
                orphan_parent_[id] = block.header.parent_hash;
            }
            // Ancestor sync: ask whoever sent us this block for the
            // earliest ancestor we lack (one hop per request; each reply is
            // itself an orphan until the fork point connects).
            if (origin != id_) {
                request_block(
                    origin,
                    earliest_missing_ancestor(block.header.parent_hash));
            }
            return;
        }
        case chain::ImportStatus::duplicate:
            return;
        case chain::ImportStatus::rejected:
            ++stats_.blocks_rejected;
            return;
    }
}

void Node::retry_orphans() {
    // Any buffered child whose parent is now known can be imported.
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (auto it = orphans_.begin(); it != orphans_.end();) {
            if (chain_->block_by_hash(it->first) != nullptr) {
                std::vector<chain::Block> children = std::move(it->second);
                it = orphans_.erase(it);
                for (const chain::Block& child : children) {
                    orphan_parent_.erase(child.hash());
                    import_block(child, /*relay=*/true, id_);
                }
                progressed = true;
                break;  // maps mutated; restart scan
            }
            ++it;
        }
    }
}

void Node::schedule_mining() {
    if (!config_.mine) return;
    const std::uint64_t generation = ++mining_generation_;
    const double effective_rate =
        config_.hash_rate * (1.0 - compute_load_);
    const std::uint64_t difficulty = chain_->child_difficulty(chain_->head());
    const double mean_seconds =
        static_cast<double>(difficulty) / std::max(effective_rate, 1e-9);
    const double delay_seconds = rng_.exponential(mean_seconds);
    const auto delay = static_cast<net::SimTime>(delay_seconds * 1e6) + 1;
    transport_.schedule_after(
        id_, delay, [this, generation] { on_block_found(generation); });
}

void Node::on_block_found(std::uint64_t generation) {
    if (generation != mining_generation_) return;  // head moved; stale event
    const std::uint64_t timestamp = net::to_ms(transport_.now());
    const auto txs =
        pool_.select(config_.chain.block_gas_limit, chain_->account_nonces());
    chain::Block block = chain_->build_block(key_.address(), txs, timestamp);
    const auto nonce =
        chain::mine_seal(block.header, rng_.next_u64(), config_.max_seal_attempts);
    if (!nonce.has_value()) {
        // Difficulty outran the safety cap; back off and retry.
        schedule_mining();
        return;
    }
    block.header.pow_nonce = *nonce;
    ++stats_.blocks_mined;
    mark_seen(block.hash());
    import_block(block, /*relay=*/true, id_);
    // import_block scheduled the next round via added_head.
}

void Node::notify_new_head() {
    const chain::Block* head = chain_->block_by_hash(chain_->head_hash());
    for (const HeadCallback& callback : head_callbacks_) callback(*head);
}

}  // namespace bcfl::node
