#include "replay.hpp"

#include <memory>

#include "chain/blockchain.hpp"
#include "node/executor.hpp"
#include "node/node.hpp"

namespace bcfl::e2e {

namespace {

double elapsed_us(std::int64_t start_ns) {
    return static_cast<double>(now_ns() - start_ns) * 1e-3;
}

/// VmBlockExecutor behind a stopwatch.
class TimedExecutor final : public chain::BlockExecutor {
public:
    TimedExecutor(std::shared_ptr<node::VmBlockExecutor> inner,
                  std::vector<double>& execute_ms)
        : inner_(std::move(inner)), execute_ms_(execute_ms) {}

    chain::ExecutionResult execute(const chain::BlockHeader& parent,
                                   const chain::Block& block) override {
        const std::int64_t start = now_ns();
        chain::ExecutionResult result = inner_->execute(parent, block);
        execute_ms_.push_back(elapsed_us(start) * 1e-3);
        return result;
    }

private:
    std::shared_ptr<node::VmBlockExecutor> inner_;
    std::vector<double>& execute_ms_;
};

}  // namespace

ReplayResult replay(const MessageLog::Messages& messages,
                    const core::DecentralizedConfig& config) {
    ReplayResult out;

    for (const Bytes& message : messages.txs) {
        const BytesView body = BytesView(message).subspan(1);
        std::int64_t start = now_ns();
        const chain::Transaction tx = chain::Transaction::decode(body);
        out.tx_decode_us.push_back(elapsed_us(start));

        start = now_ns();
        [[maybe_unused]] const Hash32 id = tx.hash();
        out.tx_hash_s += elapsed_us(start) * 1e-6;
        out.tx_hash_bytes += static_cast<double>(body.size());

        start = now_ns();
        const bool valid = tx.verify_signature();
        out.sig_verify_us.push_back(elapsed_us(start));
        out.signatures_valid = out.signatures_valid && valid;
    }

    // A fresh chain exactly as node::Node builds one, so the logged blocks
    // connect to the same genesis.
    chain::ChainConfig chain_config;
    chain_config.initial_difficulty = config.initial_difficulty;
    chain_config.min_difficulty = config.min_difficulty;
    chain_config.target_interval_ms = config.target_interval_ms;
    chain_config.genesis_timestamp_ms = 0;
    auto vm_executor =
        std::make_shared<node::VmBlockExecutor>(chain_config.gas);
    chain::Blockchain chain(
        chain_config,
        std::make_shared<TimedExecutor>(vm_executor, out.execute_ms));
    vm_executor->register_genesis(chain.genesis().header,
                                  node::Node::genesis_state());

    for (const Bytes& message : messages.blocks) {
        const chain::Block block =
            chain::Block::decode(BytesView(message).subspan(1));
        const std::int64_t start = now_ns();
        const chain::ImportResult result = chain.import_block(block);
        out.import_ms.push_back(elapsed_us(start) * 1e-3);
        if (result.status == chain::ImportStatus::added_head ||
            result.status == chain::ImportStatus::added_side) {
            ++out.blocks_imported;
        } else {
            ++out.blocks_not_imported;
        }
    }
    return out;
}

}  // namespace bcfl::e2e
