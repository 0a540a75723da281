// Gas accounting constants and intrinsic gas computation.
//
// The paper configures its private Ethereum "without block size and
// transaction size constraints ... ensuring that the transaction size exceeds
// the model's size" — i.e. gas is the only sizing mechanism. We keep the
// mainnet fee shape (base cost + per-byte calldata cost) so that model size
// translates into gas and therefore into block occupancy and latency.
#pragma once

#include <cstdint>

#include "chain/types.hpp"

namespace bcfl::chain {

struct GasSchedule {
    std::uint64_t tx_base = 21'000;
    std::uint64_t calldata_zero_byte = 4;
    std::uint64_t calldata_nonzero_byte = 16;

    // MiniEVM opcode tiers (consumed by the vm module).
    std::uint64_t vm_base = 2;        // stack ops, arithmetic
    std::uint64_t vm_low = 5;         // mul/div/mod
    std::uint64_t vm_mid = 8;         // jumps
    std::uint64_t vm_sha3_base = 30;  // + per-word
    std::uint64_t vm_sha3_word = 6;
    std::uint64_t vm_sload = 200;
    std::uint64_t vm_sstore_set = 20'000;    // zero -> nonzero
    std::uint64_t vm_sstore_reset = 5'000;   // nonzero -> anything
    std::uint64_t vm_log_base = 375;
    std::uint64_t vm_log_topic = 375;
    std::uint64_t vm_log_data_byte = 8;
    std::uint64_t vm_memory_word = 3;

    // Contract creation: code-deposit cost per installed byte, charged on
    // top of intrinsic gas by the executor's creation path.
    std::uint64_t vm_deploy_byte = 200;
};

/// Gas charged before execution starts: base cost plus calldata bytes.
[[nodiscard]] inline std::uint64_t intrinsic_gas(const GasSchedule& schedule,
                                                 const Transaction& tx) {
    std::uint64_t gas = schedule.tx_base;
    for (std::uint8_t b : tx.data()) {
        gas += (b == 0) ? schedule.calldata_zero_byte
                        : schedule.calldata_nonzero_byte;
    }
    return gas;
}

}  // namespace bcfl::chain
