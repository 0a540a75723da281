// MiniEVM interpreter: a gas-metered, 256-bit stack machine executing the
// opcode subset in opcodes.hpp against WorldState storage.
//
// Semantics follow the EVM where implemented (stack order, zero-division
// rules, JUMPDEST validation, a failed call's storage writes dropped). The
// one documented simplification: memory expansion cost is linear per 32-byte
// word rather than quadratic.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "chain/gas.hpp"
#include "chain/types.hpp"
#include "common/bytes.hpp"
#include "vm/analysis.hpp"
#include "vm/opcodes.hpp"
#include "vm/state.hpp"

namespace bcfl::vm {

struct CallContext {
    Address contract;          // executing contract (storage owner)
    Address caller;            // CALLER opcode
    BytesView calldata;
    std::uint64_t gas_limit = 0;
    std::uint64_t block_number = 0;
    std::uint64_t timestamp_ms = 0;
};

struct CallResult {
    bool success = false;
    std::uint64_t gas_used = 0;
    Bytes return_data;
    std::vector<chain::LogEntry> logs;
    std::string error;  // human-readable failure reason (empty on success)
};

struct VmLimits {
    std::size_t max_stack = 1024;
    std::size_t max_memory = 4 << 20;  // 4 MiB
};

class Vm {
public:
    /// `cache` lets callers (the block executor, benches) share one
    /// AnalysisCache across Vm instances; when null the Vm owns a private
    /// one. Either way Vm::call never rescans code for JUMPDESTs — the
    /// bitmap comes from the cached CodeAnalysis, computed once per
    /// keccak(code).
    explicit Vm(chain::GasSchedule gas = {}, VmLimits limits = {},
                std::shared_ptr<AnalysisCache> cache = nullptr)
        : gas_(gas),
          limits_(limits),
          cache_(cache ? std::move(cache)
                       : std::make_shared<AnalysisCache>(gas,
                                                         limits.max_stack)) {}

    /// Executes the contract installed at `ctx.contract`. The call's
    /// storage writes reach `state` only when it succeeds; on failure all
    /// gas is consumed.
    CallResult call(WorldState& state, const CallContext& ctx) const;

    /// Read-only call: storage writes are always dropped (web3 `eth_call`
    /// equivalent). `Node::call_view` is its one caller in the node; the FL
    /// layer reads registry events and calldata, never a view function.
    CallResult static_call(const WorldState& state,
                           const CallContext& ctx) const;

    [[nodiscard]] const AnalysisCache& analysis_cache() const {
        return *cache_;
    }

private:
    /// Runs the call against `state` without touching it: SLOAD and
    /// SSTORE go through `writes`, which the caller applies or drops.
    CallResult execute(const WorldState& state, const CallContext& ctx,
                       AccountStorage& writes) const;

    chain::GasSchedule gas_;
    VmLimits limits_;
    std::shared_ptr<AnalysisCache> cache_;
};

}  // namespace bcfl::vm
