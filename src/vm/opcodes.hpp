// MiniEVM opcode set — a faithful subset of the EVM instruction set, with
// byte values matching the real machine so disassemblies read familiarly.
//
// kOps is the one description of each opcode. The assembler, the
// disassembler, the static analyzer and the interpreter all read it, so the
// stack effects and static gas the analyzer proves are the ones the
// interpreter enforces. Adding an opcode takes one row here plus one case
// in Vm::execute.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "chain/gas.hpp"

namespace bcfl::vm {

enum class Op : std::uint8_t {
    STOP = 0x00,
    ADD = 0x01,
    MUL = 0x02,
    SUB = 0x03,
    DIV = 0x04,
    MOD = 0x06,
    LT = 0x10,
    GT = 0x11,
    EQ = 0x14,
    ISZERO = 0x15,
    AND = 0x16,
    OR = 0x17,
    XOR = 0x18,
    NOT = 0x19,
    SHL = 0x1b,
    SHR = 0x1c,
    SHA3 = 0x20,
    CALLER = 0x33,
    CALLDATALOAD = 0x35,
    CALLDATASIZE = 0x36,
    CALLDATACOPY = 0x37,
    TIMESTAMP = 0x42,
    NUMBER = 0x43,
    POP = 0x50,
    MLOAD = 0x51,
    MSTORE = 0x52,
    SLOAD = 0x54,
    SSTORE = 0x55,
    JUMP = 0x56,
    JUMPI = 0x57,
    PC = 0x58,
    GAS = 0x5a,
    JUMPDEST = 0x5b,
    PUSH1 = 0x60,
    DUP1 = 0x80,
    SWAP1 = 0x90,
    LOG0 = 0xa0,
    RETURN = 0xf3,
    REVERT = 0xfd,
};

// Environment-dependence bits: opcodes whose result depends on block/tx
// context rather than code + storage alone. Scenario policies can use the
// mask to classify contracts (e.g. forbid TIMESTAMP-dependent gating).
inline constexpr std::uint8_t kEnvTimestamp = 1u << 0;  // TIMESTAMP
inline constexpr std::uint8_t kEnvNumber = 1u << 1;     // NUMBER
inline constexpr std::uint8_t kEnvGas = 1u << 2;        // GAS
inline constexpr std::uint8_t kEnvCaller = 1u << 3;     // CALLER

/// Which chain::GasSchedule price an opcode's static gas is (static_gas).
enum class GasTier : std::uint8_t {
    zero, base, low, mid, sha3, sload, sstore, log,
};

/// One opcode byte as every MiniEVM tool sees it.
struct OpInfo {
    /// Mnemonic; for the ranged families the bare family name (PUSH, DUP,
    /// SWAP, LOG). Empty when the byte is not an opcode.
    std::string_view name;
    /// The interpreter's case: the opcode itself, or the first member of
    /// its family (PUSH1, DUP1, SWAP1, LOG0).
    Op op = Op::STOP;
    bool ranged = false;  // the full mnemonic is name + number
    int number = 0;       // n of PUSHn, DUPn, SWAPn, LOGn
    int immediate = 0;    // inline immediate bytes after the opcode
    int require = 0;      // stack values the opcode needs
    int delta = 0;        // net stack-height change
    GasTier gas = GasTier::zero;
    std::uint8_t env = 0;  // kEnv* bit

    [[nodiscard]] constexpr bool defined() const { return !name.empty(); }
};

/// The opcode table, indexed by byte.
inline constexpr std::array<OpInfo, 256> kOps = [] {
    std::array<OpInfo, 256> t{};
    const auto op = [&t](Op code, std::string_view name, int require,
                         int delta, GasTier gas, std::uint8_t env = 0) {
        t[static_cast<std::size_t>(code)] =
            OpInfo{name, code, false, 0, 0, require, delta, gas, env};
    };
    // Member n of a ranged family, `index` bytes after its first member:
    // member(first, index, family name, n, immediate width, required,
    //        net change, static-gas tier).
    const auto member = [&t](Op first, int index, std::string_view name,
                             int n, int immediate, int require, int delta,
                             GasTier gas) {
        t[static_cast<std::size_t>(first) + static_cast<std::size_t>(index)] =
            OpInfo{name, first, true, n, immediate, require, delta, gas, 0};
    };
    using enum GasTier;
    // op(opcode, mnemonic, stack values required, net stack change,
    //    static-gas tier[, kEnv* bit])
    op(Op::STOP,         "STOP",         0,  0,    zero);
    op(Op::ADD,          "ADD",          2, -1,    base);
    op(Op::MUL,          "MUL",          2, -1,    low);
    op(Op::SUB,          "SUB",          2, -1,    base);
    op(Op::DIV,          "DIV",          2, -1,    low);
    op(Op::MOD,          "MOD",          2, -1,    low);
    op(Op::LT,           "LT",           2, -1,    base);
    op(Op::GT,           "GT",           2, -1,    base);
    op(Op::EQ,           "EQ",           2, -1,    base);
    op(Op::ISZERO,       "ISZERO",       1,  0,    base);
    op(Op::AND,          "AND",          2, -1,    base);
    op(Op::OR,           "OR",           2, -1,    base);
    op(Op::XOR,          "XOR",          2, -1,    base);
    op(Op::NOT,          "NOT",          1,  0,    base);
    op(Op::SHL,          "SHL",          2, -1,    base);
    op(Op::SHR,          "SHR",          2, -1,    base);
    op(Op::SHA3,         "SHA3",         2, -1,    sha3);
    op(Op::CALLER,       "CALLER",       0, +1,    base, kEnvCaller);
    op(Op::CALLDATALOAD, "CALLDATALOAD", 1,  0,    base);
    op(Op::CALLDATASIZE, "CALLDATASIZE", 0, +1,    base);
    op(Op::CALLDATACOPY, "CALLDATACOPY", 3, -3,    base);
    op(Op::TIMESTAMP,    "TIMESTAMP",    0, +1,    base, kEnvTimestamp);
    op(Op::NUMBER,       "NUMBER",       0, +1,    base, kEnvNumber);
    op(Op::POP,          "POP",          1, -1,    base);
    op(Op::MLOAD,        "MLOAD",        1,  0,    base);
    op(Op::MSTORE,       "MSTORE",       2, -2,    base);
    op(Op::SLOAD,        "SLOAD",        1,  0,    sload);
    op(Op::SSTORE,       "SSTORE",       2, -2,    sstore);
    op(Op::JUMP,         "JUMP",         1, -1,    mid);
    op(Op::JUMPI,        "JUMPI",        2, -2,    mid);
    op(Op::PC,           "PC",           0, +1,    base);
    op(Op::GAS,          "GAS",          0, +1,    base, kEnvGas);
    op(Op::JUMPDEST,     "JUMPDEST",     0,  0,    base);
    op(Op::RETURN,       "RETURN",       2, -2,    zero);
    op(Op::REVERT,       "REVERT",       2, -2,    zero);
    for (int n = 1; n <= 32; ++n) {  // 0x60..0x7f PUSH1..PUSH32
        member(Op::PUSH1, n - 1, "PUSH", n, n, 0, +1, base);
    }
    for (int n = 1; n <= 16; ++n) {  // 0x80..0x8f DUP1..DUP16
        member(Op::DUP1, n - 1, "DUP", n, 0, n, +1, base);
    }
    for (int n = 1; n <= 16; ++n) {  // 0x90..0x9f SWAP1..SWAP16
        member(Op::SWAP1, n - 1, "SWAP", n, 0, n + 1, 0, base);
    }
    for (int n = 0; n <= 4; ++n) {  // 0xa0..0xa4 LOG0..LOG4
        member(Op::LOG0, n, "LOG", n, 0, n + 2, -(n + 2), log);
    }
    return t;
}();

/// The static part of an opcode's gas: the interpreter charges it before
/// the opcode runs, and the analyzer sums it into each block's lower
/// bound. The dynamic rest (memory words, SHA3 words, log data bytes and
/// SSTORE's set-over-reset surcharge) is charged inside the opcode's case.
[[nodiscard]] constexpr std::uint64_t static_gas(
    const OpInfo& info, const chain::GasSchedule& gas) {
    switch (info.gas) {
        case GasTier::zero: return 0;
        case GasTier::base: return gas.vm_base;
        case GasTier::low: return gas.vm_low;
        case GasTier::mid: return gas.vm_mid;
        case GasTier::sha3: return gas.vm_sha3_base;
        case GasTier::sload: return gas.vm_sload;
        case GasTier::sstore:
            return std::min(gas.vm_sstore_set, gas.vm_sstore_reset);
        case GasTier::log:
            return gas.vm_log_base +
                   gas.vm_log_topic * static_cast<std::uint64_t>(info.number);
    }
    return 0;
}

/// Family name of an opcode byte (ADD, PUSH, LOG), or empty when the byte
/// is not an opcode. Analyzer diagnostics print it, and a rejected
/// install's diagnostic is receipt data.
[[nodiscard]] constexpr std::string_view op_name(std::uint8_t byte) {
    return kOps[byte].name;
}

/// Full mnemonic of an opcode byte (ADD, PUSH2, LOG0), or empty when the
/// byte is not an opcode.
[[nodiscard]] inline std::string mnemonic(std::uint8_t byte) {
    const OpInfo& info = kOps[byte];
    std::string text(info.name);
    if (info.ranged) text += std::to_string(info.number);
    return text;
}

}  // namespace bcfl::vm
