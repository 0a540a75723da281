// VmBlockExecutor: deterministic block execution against MiniEVM world state.
//
// Each node owns one executor; results are cached by (parent hash, tx root,
// timestamp), everything a block's execution reads, so sealing a block and
// re-importing it does not execute twice, and the post-state of every
// imported block stays queryable (eth_call at head).
#pragma once

#include <map>
#include <memory>
#include <tuple>

#include "chain/blockchain.hpp"
#include "vm/analysis.hpp"
#include "vm/evm.hpp"
#include "vm/state.hpp"

namespace bcfl::node {

class VmBlockExecutor final : public chain::BlockExecutor {
public:
    explicit VmBlockExecutor(chain::GasSchedule gas = {})
        : analysis_cache_(std::make_shared<vm::AnalysisCache>(gas)),
          vm_(gas, vm::VmLimits{}, analysis_cache_),
          gas_(gas) {}

    /// Registers the genesis world state under the genesis header.
    void register_genesis(const chain::BlockHeader& genesis,
                          vm::WorldState state);

    chain::ExecutionResult execute(const chain::BlockHeader& parent,
                                   const chain::Block& block) override;

    /// Post-state of a block (throws if the block was never executed).
    [[nodiscard]] const vm::WorldState& state_after(
        const chain::BlockHeader& header) const;

    [[nodiscard]] const vm::Vm& vm() const { return vm_; }

    /// Shared Vm/executor analysis cache (hit/miss stats feed the
    /// vm_analysis bench section).
    [[nodiscard]] const vm::AnalysisCache& analysis_cache() const {
        return *analysis_cache_;
    }

    /// Deterministic address for a contract created by (sender, nonce):
    /// last 20 bytes of keccak256(sender || nonce_be64).
    [[nodiscard]] static Address creation_address(const Address& sender,
                                                  std::uint64_t nonce);

private:
    // (parent hash, tx root, timestamp): TIMESTAMP reads the block's
    // timestamp, and the block number follows from the parent.
    using Key = std::tuple<Hash32, Hash32, std::uint64_t>;
    [[nodiscard]] static Key key_of(const chain::BlockHeader& header) {
        return {header.parent_hash, header.tx_root, header.timestamp_ms};
    }

    struct Entry {
        vm::WorldState state;
        chain::ExecutionResult result;
    };

    std::shared_ptr<vm::AnalysisCache> analysis_cache_;
    vm::Vm vm_;
    chain::GasSchedule gas_;
    std::map<Key, Entry> cache_;
    bool has_genesis_ = false;
    Hash32 genesis_hash_;
    vm::WorldState genesis_state_;
};

}  // namespace bcfl::node
