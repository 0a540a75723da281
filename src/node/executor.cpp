#include "node/executor.hpp"

#include "common/error.hpp"
#include "crypto/keccak.hpp"

namespace bcfl::node {

Address VmBlockExecutor::creation_address(const Address& sender,
                                          std::uint64_t nonce) {
    Bytes preimage(sender.data.begin(), sender.data.end());
    for (int shift = 56; shift >= 0; shift -= 8) {
        preimage.push_back(static_cast<std::uint8_t>(nonce >> shift));
    }
    const Hash32 digest = crypto::keccak256(preimage);
    return Address::from(BytesView{digest.data.data() + 12, 20});
}

void VmBlockExecutor::register_genesis(const chain::BlockHeader& genesis,
                                       vm::WorldState state) {
    genesis_hash_ = genesis.hash();
    genesis_state_ = std::move(state);
    has_genesis_ = true;
}

chain::ExecutionResult VmBlockExecutor::execute(
    const chain::BlockHeader& parent, const chain::Block& block) {
    const Key key{parent.hash(), block.compute_tx_root(),
                  block.header.timestamp_ms};
    if (const auto it = cache_.find(key); it != cache_.end()) {
        return it->second.result;
    }

    // Resolve the parent state.
    const vm::WorldState* parent_state = nullptr;
    if (has_genesis_ && parent.hash() == genesis_hash_) {
        parent_state = &genesis_state_;
    } else {
        const auto it = cache_.find(key_of(parent));
        if (it == cache_.end()) {
            throw Error("executor: unknown parent state");
        }
        parent_state = &it->second.state;
    }

    Entry entry;
    entry.state = *parent_state;
    chain::ExecutionResult& result = entry.result;

    for (std::size_t tx_index = 0; tx_index < block.transactions.size();
         ++tx_index) {
        const chain::Transaction& tx = block.transactions[tx_index];
        chain::Receipt receipt;
        const std::uint64_t intrinsic = chain::intrinsic_gas(gas_, tx);
        if (tx.to() == Address{} && !tx.data().empty()) {
            // Contract creation: the payload is the bytecode. Installation
            // is gated on static analysis — invalid code is refused with a
            // typed, offset-carrying diagnostic, and the tx burns its gas
            // while the block still imports deterministically.
            const std::uint64_t deploy_gas =
                gas_.vm_deploy_byte * tx.data().size();
            const Address target = creation_address(tx.sender(), tx.nonce());
            if (tx.gas_limit() < intrinsic + deploy_gas ||
                entry.state.has_contract(target)) {
                receipt.success = false;
                receipt.gas_used = tx.gas_limit();
            } else {
                const auto analysis =
                    entry.state.install(target, tx.data(), *analysis_cache_);
                if (analysis->valid()) {
                    receipt.success = true;
                    receipt.gas_used = intrinsic + deploy_gas;
                    receipt.return_data.assign(target.data.begin(),
                                               target.data.end());
                } else {
                    const vm::Diagnostic* fatal = analysis->first_fatal();
                    receipt.success = false;
                    receipt.gas_used = tx.gas_limit();
                    receipt.return_data = str_bytes(fatal->message);
                    result.rejected_installs.push_back(
                        {tx_index, fatal->name, fatal->offset,
                         fatal->message});
                }
            }
        } else if (entry.state.has_contract(tx.to())) {
            vm::CallContext ctx;
            ctx.contract = tx.to();
            ctx.caller = tx.sender();
            ctx.calldata = tx.data();
            ctx.gas_limit = tx.gas_limit() - intrinsic;
            ctx.block_number = block.header.number;
            ctx.timestamp_ms = block.header.timestamp_ms;
            const vm::CallResult call = vm_.call(entry.state, ctx);
            receipt.success = call.success;
            receipt.gas_used = intrinsic + call.gas_used;
            receipt.logs = call.logs;
            receipt.return_data = call.return_data;
        } else {
            // Plain value-less transfer to an externally-owned account.
            receipt.success = true;
            receipt.gas_used = intrinsic;
        }
        result.gas_used += receipt.gas_used;
        result.receipts.push_back(std::move(receipt));
    }
    result.state_root = entry.state.state_root();

    const auto [it, inserted] = cache_.emplace(key, std::move(entry));
    (void)inserted;
    return it->second.result;
}

const vm::WorldState& VmBlockExecutor::state_after(
    const chain::BlockHeader& header) const {
    if (has_genesis_ && header.hash() == genesis_hash_) return genesis_state_;
    const auto it = cache_.find(key_of(header));
    if (it == cache_.end()) throw Error("executor: state not available");
    return it->second.state;
}

}  // namespace bcfl::node
