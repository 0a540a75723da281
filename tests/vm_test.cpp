#include <gtest/gtest.h>

#include "chain/types.hpp"
#include "common/error.hpp"
#include "core/parallel.hpp"
#include "crypto/keccak.hpp"
#include "node/executor.hpp"
#include "vm/analysis.hpp"
#include "vm/assembler.hpp"
#include "vm/disasm.hpp"
#include "vm/registry_contract.hpp"
#include "vm/evm.hpp"
#include "vm/opcodes.hpp"
#include "vm/state.hpp"

namespace bcfl::vm {
namespace {

using crypto::U256;

constexpr std::uint64_t kGas = 10'000'000;

Address contract_address() {
    Address a;
    a.data[19] = 0x01;
    return a;
}

Address caller_address() {
    Address a;
    a.data[19] = 0x99;
    return a;
}

/// Deploys `code` (unless `external_state` already holds the contract) and
/// runs it with the given calldata.
CallResult run_code(const Bytes& code, Bytes calldata = {},
                    WorldState* external_state = nullptr) {
    WorldState local;
    WorldState& state = external_state ? *external_state : local;
    if (!state.has_contract(contract_address())) {
        state.deploy(contract_address(), code);
    }
    Vm vm;
    CallContext ctx;
    ctx.contract = contract_address();
    ctx.caller = caller_address();
    ctx.calldata = calldata;
    ctx.gas_limit = kGas;
    ctx.block_number = 7;
    ctx.timestamp_ms = 123'456;
    return vm.call(state, ctx);
}

/// Assembles `source` and runs it like `run_code`.
CallResult run(std::string_view source, Bytes calldata = {},
               WorldState* external_state = nullptr) {
    return run_code(assemble(source), std::move(calldata), external_state);
}

U256 word_of(const Bytes& data) { return U256::from_be_bytes(data); }

// -------------------------------------------------------------- Assembler

TEST(Assembler, EmitsSimpleOpcodes) {
    const Bytes code = assemble("PUSH1 0x01 PUSH1 0x02 ADD STOP");
    const Bytes expected{0x60, 0x01, 0x60, 0x02, 0x01, 0x00};
    EXPECT_EQ(code, expected);
}

TEST(Assembler, HandlesLabels) {
    const Bytes code = assemble("@end JUMP end: JUMPDEST STOP");
    // PUSH2 0x0004 JUMP JUMPDEST STOP
    const Bytes expected{0x61, 0x00, 0x04, 0x56, 0x5b, 0x00};
    EXPECT_EQ(code, expected);
}

TEST(Assembler, CommentsIgnored)  {
    EXPECT_EQ(assemble("; nothing here\nSTOP ; trailing"), Bytes{0x00});
}

TEST(Assembler, DecimalImmediates) {
    EXPECT_EQ(assemble("PUSH2 1024"), (Bytes{0x61, 0x04, 0x00}));
}

TEST(Assembler, RejectsUnknownMnemonic) {
    EXPECT_THROW(assemble("FLY"), Error);
}

TEST(Assembler, RejectsOversizedImmediate) {
    EXPECT_THROW(assemble("PUSH1 0x0102"), Error);
}

TEST(Assembler, RejectsUndefinedLabel) {
    EXPECT_THROW(assemble("@nowhere JUMP"), Error);
}

TEST(Assembler, RejectsDuplicateLabel) {
    EXPECT_THROW(assemble("a: JUMPDEST a: JUMPDEST"), Error);
}

TEST(Assembler, TokenLengthCapBoundary) {
    // Tokens are capped at 128 characters (a PUSH32 hex immediate is 66).
    // A 128-char label round-trips; 129 characters throw a typed error.
    const std::string max_label(127, 'a');  // +':' = 128-char token
    EXPECT_NO_THROW(assemble(max_label + ": JUMPDEST"));
    const std::string overlong(129, 'a');
    EXPECT_THROW(assemble(overlong + " JUMPDEST"), DecodeError);
}

TEST(Assembler, DecimalImmediateOverflowRejected) {
    // 2^64 exactly: one past the widest decimal immediate. Pre-cap this
    // wrapped silently and emitted PUSH8 0x00...00.
    EXPECT_THROW(assemble("PUSH8 18446744073709551616"), DecodeError);
    // 2^64 - 1 still fits.
    const Bytes code = assemble("PUSH8 18446744073709551615");
    const Bytes expected{0x67, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
    EXPECT_EQ(code, expected);
}

TEST(Assembler, DupSwapLogVariants) {
    const Bytes code = assemble("DUP1 DUP16 SWAP1 SWAP16 LOG0 LOG4");
    const Bytes expected{0x80, 0x8f, 0x90, 0x9f, 0xa0, 0xa4};
    EXPECT_EQ(code, expected);
}

TEST(Assembler, RejectsLeadingZeroSpellings) {
    // The assembler accepts exactly the opcode table's mnemonics.
    EXPECT_THROW(assemble("DUP01"), Error);
    EXPECT_THROW(assemble("SWAP01"), Error);
    EXPECT_THROW(assemble("PUSH01 7"), Error);
    EXPECT_THROW(assemble("LOG00"), Error);
}

// ------------------------------------------------------------ Interpreter

TEST(Vm, ArithmeticAndReturn) {
    // return 3 + 4
    const auto r = run(
        "PUSH1 3 PUSH1 4 ADD PUSH1 0x00 MSTORE "
        "PUSH1 0x20 PUSH1 0x00 RETURN");
    ASSERT_TRUE(r.success) << r.error;
    EXPECT_EQ(word_of(r.return_data), U256{7});
}

TEST(Vm, MulDivMod) {
    const auto r = run(
        "PUSH1 7 PUSH1 6 MUL "          // 42
        "PUSH1 5 SWAP1 DIV "            // 42/5 = 8
        "PUSH1 3 SWAP1 MOD "            // 8%3 = 2
        "PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
    ASSERT_TRUE(r.success) << r.error;
    EXPECT_EQ(word_of(r.return_data), U256{2});
}

TEST(Vm, DivByZeroYieldsZero) {
    const auto r = run(
        "PUSH1 0 PUSH1 9 DIV PUSH1 0x00 MSTORE "
        "PUSH1 0x20 PUSH1 0x00 RETURN");
    ASSERT_TRUE(r.success) << r.error;
    EXPECT_EQ(word_of(r.return_data), U256{0});
}

TEST(Vm, ComparisonAndLogic) {
    // (1 < 2) AND (5 > 3) XOR 0 == 1
    const auto r = run(
        "PUSH1 2 PUSH1 1 LT "       // 1<2 -> 1
        "PUSH1 3 PUSH1 5 GT "       // 5>3 -> 1
        "AND "
        "PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
    ASSERT_TRUE(r.success) << r.error;
    EXPECT_EQ(word_of(r.return_data), U256{1});
}

TEST(Vm, ShiftOps) {
    const auto r = run(
        "PUSH1 1 PUSH1 8 SHL "      // 1 << 8 = 256
        "PUSH1 4 SHR "              // 256 >> 4 = 16
        "PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
    ASSERT_TRUE(r.success) << r.error;
    EXPECT_EQ(word_of(r.return_data), U256{16});
}

TEST(Vm, MemoryRoundTrip) {
    const auto r = run(
        "PUSH2 0xbeef PUSH1 0x40 MSTORE "
        "PUSH1 0x40 MLOAD PUSH1 0x00 MSTORE "
        "PUSH1 0x20 PUSH1 0x00 RETURN");
    ASSERT_TRUE(r.success) << r.error;
    EXPECT_EQ(word_of(r.return_data), U256{0xbeef});
}

TEST(Vm, StoragePersistsAcrossCalls) {
    WorldState state;
    const std::string source =
        "PUSH1 0x00 CALLDATALOAD ISZERO @read JUMPI "
        "PUSH1 42 PUSH1 5 SSTORE STOP "
        "read: JUMPDEST "
        "PUSH1 5 SLOAD PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN";
    // First call (calldata word != 0): write path.
    Bytes write_flag(32, 0);
    write_flag[31] = 1;
    ASSERT_TRUE(run(source, write_flag, &state).success);
    // Second call (empty calldata -> word 0): read path.
    const auto r = run(source, {}, &state);
    ASSERT_TRUE(r.success) << r.error;
    EXPECT_EQ(word_of(r.return_data), U256{42});
}

TEST(Vm, Sha3MatchesHostKeccak) {
    const auto r = run(
        "PUSH1 0xab PUSH1 0x00 MSTORE "  // memory[0..32) = 0x00..ab
        "PUSH1 0x20 PUSH1 0x00 SHA3 "
        "PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
    ASSERT_TRUE(r.success) << r.error;
    Bytes preimage(32, 0);
    preimage[31] = 0xab;
    EXPECT_EQ(Hash32::from(r.return_data), crypto::keccak256(preimage));
}

TEST(Vm, CallerAndEnvOpcodes) {
    const auto r = run(
        "CALLER PUSH1 0x00 MSTORE "
        "NUMBER PUSH1 0x20 MSTORE "
        "TIMESTAMP PUSH1 0x40 MSTORE "
        "PUSH1 0x60 PUSH1 0x00 RETURN");
    ASSERT_TRUE(r.success) << r.error;
    ASSERT_EQ(r.return_data.size(), 96u);
    EXPECT_EQ(Address::from(BytesView(r.return_data).subspan(12, 20)),
              caller_address());
    EXPECT_EQ(word_of(Bytes(r.return_data.begin() + 32,
                            r.return_data.begin() + 64)),
              U256{7});  // block number
    EXPECT_EQ(word_of(Bytes(r.return_data.begin() + 64, r.return_data.end())),
              U256{123'456});  // timestamp
}

TEST(Vm, CalldataOpcodes) {
    Bytes calldata;
    for (int i = 0; i < 40; ++i) {
        calldata.push_back(static_cast<std::uint8_t>(i));
    }
    const auto r = run(
        "CALLDATASIZE PUSH1 0x00 MSTORE "
        "PUSH1 4 CALLDATALOAD PUSH1 0x20 MSTORE "
        "PUSH1 0x40 PUSH1 0x00 RETURN",
        calldata);
    ASSERT_TRUE(r.success) << r.error;
    EXPECT_EQ(word_of(Bytes(r.return_data.begin(), r.return_data.begin() + 32)),
              U256{40});
    // CALLDATALOAD(4) = bytes 4..36 zero-padded past the end.
    Bytes expected(32, 0);
    for (int i = 0; i < 32; ++i) {
        expected[static_cast<std::size_t>(i)] =
            4 + i < 40 ? static_cast<std::uint8_t>(4 + i) : 0;
    }
    EXPECT_EQ(Bytes(r.return_data.begin() + 32, r.return_data.end()), expected);
}

TEST(Vm, JumpLoopComputesSum) {
    // sum 1..10 via loop: i in [1..10], acc += i
    const auto r = run(
        "PUSH1 0 PUSH1 1 "                 // acc=0 i=1
        "loop: JUMPDEST "
        "DUP1 PUSH1 10 LT "                 // 10 < i ?
        "@done JUMPI "
        "DUP1 SWAP2 ADD SWAP1 "             // acc+=i, keep order [acc, i]
        "PUSH1 1 ADD "                      // i+=1
        "@loop JUMP "
        "done: JUMPDEST "
        "POP PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN");
    ASSERT_TRUE(r.success) << r.error;
    EXPECT_EQ(word_of(r.return_data), U256{55});
}

TEST(Vm, InvalidJumpFails) {
    const auto r = run("PUSH1 3 JUMP STOP");
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.error, "invalid jump destination");
    EXPECT_EQ(r.gas_used, kGas);  // failure consumes the gas budget
}

TEST(Vm, StackUnderflowFails) {
    const auto r = run("ADD");
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.error, "stack underflow");
}

TEST(Vm, InvalidOpcodeFails) {
    WorldState state;
    state.deploy(contract_address(), Bytes{0xfe});
    Vm vm;
    CallContext ctx;
    ctx.contract = contract_address();
    ctx.caller = caller_address();
    ctx.gas_limit = kGas;
    const auto r = vm.call(state, ctx);
    EXPECT_FALSE(r.success);
}

TEST(Vm, OutOfGasFails) {
    WorldState state;
    state.deploy(contract_address(),
                 assemble("loop: JUMPDEST @loop JUMP"));
    Vm vm;
    CallContext ctx;
    ctx.contract = contract_address();
    ctx.caller = caller_address();
    ctx.gas_limit = 10'000;
    const auto r = vm.call(state, ctx);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.error, "out of gas");
    EXPECT_EQ(r.gas_used, 10'000u);
}

TEST(Vm, RevertRollsBackStorage) {
    WorldState state;
    state.deploy(contract_address(),
                 assemble("PUSH1 9 PUSH1 1 SSTORE "
                          "PUSH1 0x00 PUSH1 0x00 REVERT"));
    Vm vm;
    CallContext ctx;
    ctx.contract = contract_address();
    ctx.caller = caller_address();
    ctx.gas_limit = kGas;
    const auto r = vm.call(state, ctx);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.error, "revert");
    EXPECT_TRUE(state.storage_load(contract_address(), U256{1}).is_zero());
}

TEST(Vm, LogsEmittedAndDiscardedOnRevert) {
    const auto ok = run(
        "PUSH1 0xff PUSH1 0x00 MSTORE "
        "PUSH1 7 "                      // topic0
        "PUSH1 0x20 PUSH1 0x00 LOG1 STOP");
    ASSERT_TRUE(ok.success) << ok.error;
    ASSERT_EQ(ok.logs.size(), 1u);
    EXPECT_EQ(ok.logs[0].topics.size(), 1u);
    EXPECT_EQ(crypto::U256::from_hash(ok.logs[0].topics[0]), U256{7});
    EXPECT_EQ(ok.logs[0].data.size(), 32u);

    const auto bad = run(
        "PUSH1 7 PUSH1 0x20 PUSH1 0x00 LOG1 "
        "PUSH1 0x00 PUSH1 0x00 REVERT");
    EXPECT_FALSE(bad.success);
    EXPECT_TRUE(bad.logs.empty());
}

TEST(Vm, StaticCallDoesNotMutate) {
    WorldState state;
    state.deploy(contract_address(),
                 assemble("PUSH1 5 PUSH1 0 SSTORE STOP"));
    Vm vm;
    CallContext ctx;
    ctx.contract = contract_address();
    ctx.caller = caller_address();
    ctx.gas_limit = kGas;
    const auto r = vm.static_call(state, ctx);
    EXPECT_TRUE(r.success);
    EXPECT_TRUE(state.storage_load(contract_address(), U256{0}).is_zero());
}

TEST(Vm, GasAccountingIsDeterministic) {
    const auto a = run("PUSH1 1 PUSH1 2 ADD POP STOP");
    const auto b = run("PUSH1 1 PUSH1 2 ADD POP STOP");
    ASSERT_TRUE(a.success);
    EXPECT_EQ(a.gas_used, b.gas_used);
    EXPECT_GT(a.gas_used, 0u);
    EXPECT_LT(a.gas_used, 100u);
}

TEST(Vm, SstoreChargesMoreForFreshSlot) {
    const auto fresh = run("PUSH1 1 PUSH1 1 SSTORE STOP");
    const auto rewrite = run("PUSH1 1 PUSH1 1 SSTORE PUSH1 2 PUSH1 1 SSTORE STOP");
    ASSERT_TRUE(fresh.success);
    ASSERT_TRUE(rewrite.success);
    chain::GasSchedule gas;
    // Second store on a warm slot costs vm_sstore_reset, not vm_sstore_set.
    EXPECT_LT(rewrite.gas_used - fresh.gas_used, gas.vm_sstore_set);
}


// ------------------------------------------------------------ Disassembler

TEST(Disasm, RoundTripsAssemblerOutput) {
    const std::string source = "PUSH1 0x2a PUSH2 0x0102 ADD @end JUMP end: JUMPDEST STOP";
    const Bytes code = assemble(source);
    const std::string listing = disassemble(code);
    EXPECT_NE(listing.find("PUSH1 0x2a"), std::string::npos);
    EXPECT_NE(listing.find("PUSH2 0x0102"), std::string::npos);
    EXPECT_NE(listing.find("ADD"), std::string::npos);
    EXPECT_NE(listing.find("JUMPDEST"), std::string::npos);
    EXPECT_NE(listing.find("STOP"), std::string::npos);
}

TEST(Disasm, FlagsInvalidAndTruncated) {
    EXPECT_NE(disassemble(Bytes{0xfe}).find("INVALID(0xfe)"),
              std::string::npos);
    // PUSH2 with only one immediate byte.
    EXPECT_NE(disassemble(Bytes{0x61, 0xaa}).find("??"), std::string::npos);
}

TEST(Disasm, RegistryContractListsAllEntryPoints) {
    const std::string listing = disassemble(registry_bytecode());
    // The dispatcher compares four-byte selectors; expect 6 PUSH4s.
    std::size_t push4_count = 0;
    std::size_t pos = 0;
    while ((pos = listing.find("PUSH4", pos)) != std::string::npos) {
        ++push4_count;
        pos += 5;
    }
    EXPECT_EQ(push4_count, 6u);
    EXPECT_NE(listing.find("SHA3"), std::string::npos);
    EXPECT_NE(listing.find("SSTORE"), std::string::npos);
    EXPECT_NE(listing.find("LOG3"), std::string::npos);
    EXPECT_NE(listing.find("REVERT"), std::string::npos);
}

// ------------------------------------------------------------ Opcode table

/// Name of the first fatal diagnostic, or "" when `code` is accepted.
std::string first_fatal_name(const Bytes& code) {
    const CodeAnalysis analysis = analyze(code);
    const Diagnostic* fatal = analysis.first_fatal();
    return fatal ? fatal->name : std::string{};
}

TEST(OpcodeTable, StackEffectsMatchTheInterpreter) {
    // Every defined opcode that neither jumps nor halts, fed by zero-valued
    // pushes and drained by POPs. The analyzer reads require and delta
    // from the table; the interpreter's cases pop and push on their own,
    // so this pins each case to its row.
    int checked = 0;
    for (std::size_t b = 0; b < kOps.size(); ++b) {
        const auto byte = static_cast<std::uint8_t>(b);
        const OpInfo& info = kOps[byte];
        if (!info.defined() || info.op == Op::STOP || info.op == Op::JUMP ||
            info.op == Op::JUMPI || info.op == Op::RETURN ||
            info.op == Op::REVERT) {
            continue;
        }
        SCOPED_TRACE(mnemonic(byte));
        ++checked;
        // `pushes` PUSH1 0x00s, the opcode (zero immediate), `pops` POPs.
        const auto program = [&](int pushes, int pops) {
            Bytes code;
            for (int i = 0; i < pushes; ++i) append(code, Bytes{0x60, 0x00});
            code.push_back(byte);
            code.resize(code.size() + static_cast<std::size_t>(info.immediate),
                        0x00);
            code.resize(code.size() + static_cast<std::size_t>(pops),
                        static_cast<std::uint8_t>(Op::POP));
            return code;
        };

        const Bytes fed = program(info.require, 0);
        EXPECT_EQ(first_fatal_name(fed), "");
        const CallResult ran = run_code(fed);
        EXPECT_TRUE(ran.success) << ran.error;

        if (info.require >= 1) {
            const Bytes starved = program(info.require - 1, 0);
            EXPECT_EQ(first_fatal_name(starved), "stack-underflow");
            EXPECT_EQ(run_code(starved).error, "stack underflow");
        }

        // The opcode leaves require + delta values: that many POPs run,
        // and one more fails on the last POP.
        const int left = info.require + info.delta;
        const Bytes drained = program(info.require, left);
        EXPECT_EQ(first_fatal_name(drained), "");
        EXPECT_TRUE(run_code(drained).success);
        const Bytes overdrawn = program(info.require, left + 1);
        const CodeAnalysis analysis = analyze(overdrawn);
        ASSERT_NE(analysis.first_fatal(), nullptr);
        EXPECT_EQ(analysis.first_fatal()->name, "stack-underflow");
        EXPECT_EQ(analysis.first_fatal()->offset, overdrawn.size() - 1);
        EXPECT_EQ(run_code(overdrawn).error, "stack underflow");
    }
    EXPECT_EQ(checked, 99);  // 104 defined opcodes less the 5 jumps/halts
}

TEST(OpcodeTable, MnemonicsAssembleBackToTheirBytes) {
    int defined = 0;
    for (std::size_t b = 0; b < kOps.size(); ++b) {
        const auto byte = static_cast<std::uint8_t>(b);
        const OpInfo& info = kOps[byte];
        if (!info.defined()) {
            EXPECT_EQ(mnemonic(byte), "");
            continue;
        }
        ++defined;
        const std::string source =
            mnemonic(byte) + (info.immediate > 0 ? " 0" : "");
        Bytes expected{byte};
        expected.resize(1 + static_cast<std::size_t>(info.immediate), 0x00);
        EXPECT_EQ(assemble(source), expected) << source;
    }
    // 35 single opcodes, PUSH1..32, DUP1..16, SWAP1..16, LOG0..4.
    EXPECT_EQ(defined, 104);
}

TEST(OpcodeTable, RegistryBytecodeIsUnchanged) {
    const Bytes code = registry_bytecode();
    EXPECT_EQ(code.size(), 494u);
    EXPECT_EQ(crypto::keccak256(code).hex(),
              "249793810cfd7e8ef67f6914813ac871e969ba6db407b5d30af48c8b71c15c75");
}

// ------------------------------------------------------------- WorldState

TEST(WorldState, RootChangesWithStorage) {
    WorldState state;
    state.deploy(contract_address(), Bytes{0x00});
    const Hash32 before = state.state_root();
    state.storage_store(contract_address(), U256{1}, U256{2});
    const Hash32 after = state.state_root();
    EXPECT_NE(before, after);
    // Deleting (storing zero) restores the original root.
    state.storage_store(contract_address(), U256{1}, U256{});
    EXPECT_EQ(state.state_root(), before);
}

TEST(WorldState, RootIndependentOfInsertionOrder) {
    WorldState a;
    WorldState b;
    a.deploy(contract_address(), Bytes{0x00});
    b.deploy(contract_address(), Bytes{0x00});
    a.storage_store(contract_address(), U256{1}, U256{10});
    a.storage_store(contract_address(), U256{2}, U256{20});
    b.storage_store(contract_address(), U256{2}, U256{20});
    b.storage_store(contract_address(), U256{1}, U256{10});
    EXPECT_EQ(a.state_root(), b.state_root());
}

// ---------------------------------------------------------- Static analysis

/// The first fatal diagnostic's message, or "" when the verdict is valid.
std::string first_fatal_message(const CodeAnalysis& analysis) {
    const Diagnostic* fatal = analysis.first_fatal();
    return fatal ? fatal->message : std::string{};
}

TEST(Analysis, RegistryContractAnalyzesClean) {
    const CodeAnalysis analysis = analyze(registry_bytecode());
    EXPECT_TRUE(analysis.valid());
    EXPECT_EQ(analysis.unreachable_bytes, 0u);
    for (const Diagnostic& d : analysis.diagnostics) {
        EXPECT_FALSE(d.fatal) << d.message;
        EXPECT_NE(d.name, "unreachable-jumpdest") << d.message;
    }
    // The registry reads CALLER but none of the other env opcodes — the
    // determinism mask future scenario policies will key on.
    EXPECT_EQ(analysis.env_mask, kEnvCaller);
    EXPECT_GT(analysis.blocks.size(), 8u);
    for (const BasicBlock& block : analysis.blocks) {
        EXPECT_TRUE(block.reachable)
            << "block at offset " << block.start << " unreachable";
    }
}

TEST(Analysis, RejectsStackUnderflowWithByteOffset) {
    // ADD at offset 0 on an empty stack.
    const CodeAnalysis analysis = analyze(Bytes{0x01});
    EXPECT_FALSE(analysis.valid());
    const std::string message = first_fatal_message(analysis);
    EXPECT_NE(message.find("stack-underflow"), std::string::npos) << message;
    EXPECT_NE(message.find("offset 0x0000"), std::string::npos) << message;
}

TEST(Analysis, RejectsInvalidJumpTargetWithByteOffset) {
    // PUSH1 3; JUMP; STOP — offset 3 is past the single STOP at 2... the
    // target (3) addresses STOP's successor byte, which is not a JUMPDEST.
    const CodeAnalysis analysis = analyze(assemble("PUSH1 3 JUMP STOP"));
    EXPECT_FALSE(analysis.valid());
    const std::string message = first_fatal_message(analysis);
    EXPECT_NE(message.find("invalid-jump-target"), std::string::npos)
        << message;
    EXPECT_NE(message.find("offset 0x0002"), std::string::npos) << message;
}

TEST(Analysis, RejectsTruncatedPushWithByteOffset) {
    // PUSH2 with no immediate bytes at all: the interpreter aborts with
    // "push extends past end of code" when it reaches this.
    const CodeAnalysis analysis = analyze(Bytes{0x61});
    EXPECT_FALSE(analysis.valid());
    const std::string message = first_fatal_message(analysis);
    EXPECT_NE(message.find("truncated-push"), std::string::npos) << message;
    EXPECT_NE(message.find("offset 0x0000"), std::string::npos) << message;
}

TEST(Analysis, AcceptsPushZeroPaddedByOneByteLikeInterpreter) {
    // PUSH2 with one immediate byte present: the interpreter zero-pads
    // this case (only a shortfall of two or more aborts), so the analyzer
    // must accept it too — the fuzz differential invariant depends on the
    // boundary matching exactly.
    const CodeAnalysis analysis = analyze(Bytes{0x61, 0xaa});
    EXPECT_TRUE(analysis.valid()) << first_fatal_message(analysis);
}

TEST(Analysis, RejectsDynamicJump) {
    const CodeAnalysis analysis = analyze(assemble("PC JUMP"));
    EXPECT_FALSE(analysis.valid());
    const std::string message = first_fatal_message(analysis);
    EXPECT_NE(message.find("dynamic-jump"), std::string::npos) << message;
    EXPECT_NE(message.find("offset 0x0001"), std::string::npos) << message;
}

TEST(Analysis, RejectsUnboundedStackGrowthLoop) {
    // Each round trip through the loop nets +1 stack entry; the interval
    // analysis (with widening) must prove eventual overflow.
    const CodeAnalysis analysis =
        analyze(assemble("loop: JUMPDEST CALLDATASIZE @loop JUMP"));
    EXPECT_FALSE(analysis.valid());
    EXPECT_NE(first_fatal_message(analysis).find("stack-overflow"),
              std::string::npos);
}

TEST(Analysis, WarnsOnUnreachableJumpdestWithoutRejecting) {
    const CodeAnalysis analysis = analyze(assemble("STOP dead: JUMPDEST STOP"));
    EXPECT_TRUE(analysis.valid());
    EXPECT_EQ(analysis.unreachable_bytes, 2u);
    ASSERT_EQ(analysis.diagnostics.size(), 1u);
    EXPECT_EQ(analysis.diagnostics[0].name, "unreachable-jumpdest");
    EXPECT_FALSE(analysis.diagnostics[0].fatal);
    EXPECT_NE(analysis.diagnostics[0].message.find("offset 0x0001"),
              std::string::npos);
}

TEST(Analysis, EnvironmentMaskCoversAllFourOpcodes) {
    const CodeAnalysis analysis =
        analyze(assemble("TIMESTAMP NUMBER GAS CALLER POP POP POP POP STOP"));
    EXPECT_TRUE(analysis.valid());
    EXPECT_EQ(analysis.env_mask,
              kEnvTimestamp | kEnvNumber | kEnvGas | kEnvCaller);
}

TEST(Analysis, BlockTableDumpIsDeterministic) {
    const Bytes code = registry_bytecode();
    const Bytes a = block_table_dump(analyze(code));
    const Bytes b = block_table_dump(analyze(code));
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
}

TEST(Analysis, CacheHitsOnRepeatedCalls) {
    WorldState state;
    state.deploy(contract_address(),
                 assemble("PUSH1 0x00 PUSH1 0x00 RETURN"));
    Vm vm;
    CallContext ctx;
    ctx.contract = contract_address();
    ctx.caller = caller_address();
    ctx.gas_limit = kGas;
    EXPECT_TRUE(vm.call(state, ctx).success);
    EXPECT_TRUE(vm.call(state, ctx).success);
    const AnalysisCache::Stats stats = vm.analysis_cache().stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
}

TEST(Analysis, InstallRefusesInvalidCodeAndKeepsStateClean) {
    WorldState state;
    AnalysisCache cache;
    const Hash32 root_before = state.state_root();
    const auto analysis = state.install(contract_address(), Bytes{0x01}, cache);
    EXPECT_FALSE(analysis->valid());
    EXPECT_FALSE(state.has_contract(contract_address()));
    EXPECT_EQ(state.state_root(), root_before);

    const auto ok =
        state.install(contract_address(), assemble("STOP"), cache);
    EXPECT_TRUE(ok->valid());
    EXPECT_TRUE(state.has_contract(contract_address()));
}

// ----------------------------------------------------- Assembler diagnostics

TEST(Assembler, WarnsOnUnreferencedLabel) {
    std::vector<AsmDiagnostic> diagnostics;
    const Bytes code = assemble("orphan: JUMPDEST STOP", &diagnostics);
    EXPECT_EQ(code, (Bytes{0x5b, 0x00}));
    ASSERT_EQ(diagnostics.size(), 1u);
    EXPECT_EQ(diagnostics[0].name, "unreferenced-label");
    EXPECT_NE(diagnostics[0].message.find("orphan"), std::string::npos);
    EXPECT_NE(diagnostics[0].message.find("line 1"), std::string::npos);
}

TEST(Assembler, RegistrySourceHasNoUnreferencedLabels) {
    std::vector<AsmDiagnostic> diagnostics;
    (void)assemble(registry_source(), &diagnostics);
    for (const AsmDiagnostic& d : diagnostics) {
        ADD_FAILURE() << d.message;
    }
}

// ------------------------------------------------------- Annotated listing

TEST(Disasm, AnnotatedListingShowsBlocksStackHeightsAndDeadBytes) {
    const Bytes code = assemble("STOP dead: JUMPDEST STOP");
    const std::string listing =
        disassemble_annotated(code, analyze(code));
    EXPECT_NE(listing.find("; block 0"), std::string::npos) << listing;
    EXPECT_NE(listing.find("stack in [0,0]"), std::string::npos) << listing;
    EXPECT_NE(listing.find("unreachable"), std::string::npos) << listing;
    EXPECT_NE(listing.find("unreachable-jumpdest"), std::string::npos)
        << listing;

    const std::string registry = disassemble_annotated(
        registry_bytecode(), analyze(registry_bytecode()));
    EXPECT_NE(registry.find("; block"), std::string::npos);
    EXPECT_NE(registry.find("gas >= "), std::string::npos);
    EXPECT_EQ(registry.find("unreachable"), std::string::npos);
}

// ----------------------------------------------- Executor install gating

chain::Block creation_block(const chain::BlockHeader& parent,
                            const crypto::KeyPair& key, Bytes code) {
    chain::Block block;
    block.header.number = parent.number + 1;
    block.header.parent_hash = parent.hash();
    block.header.timestamp_ms = 1'000;
    block.transactions.push_back(chain::Transaction::make_signed(
        key, 0, Address{}, 1'000'000, 1, std::move(code)));
    block.header.tx_root = block.compute_tx_root();
    return block;
}

TEST(Executor, RejectsInvalidInstallDeterministicallyAcrossThreadCounts) {
    const auto key = crypto::KeyPair::from_seed(7);
    const chain::BlockHeader genesis;  // defaults; only the hash matters
    const chain::Block block =
        creation_block(genesis, key, Bytes{0x01});  // ADD on empty stack

    const auto run_at = [&](std::size_t threads) {
        const core::parallel::ThreadCountOverride override_threads(threads);
        node::VmBlockExecutor executor;
        executor.register_genesis(genesis, vm::WorldState{});
        return executor.execute(genesis, block);
    };
    const chain::ExecutionResult serial = run_at(1);
    const chain::ExecutionResult wide = run_at(8);

    // Identical outcome at both widths: the determinism contract.
    EXPECT_EQ(serial.state_root, wide.state_root);
    EXPECT_EQ(chain::receipts_root(serial.receipts),
              chain::receipts_root(wide.receipts));
    ASSERT_EQ(serial.rejected_installs.size(), 1u);
    ASSERT_EQ(wide.rejected_installs.size(), 1u);
    EXPECT_EQ(serial.rejected_installs[0].message,
              wide.rejected_installs[0].message);

    // The typed, offset-carrying diagnostic.
    const chain::InstallRejection& rejection = serial.rejected_installs[0];
    EXPECT_EQ(rejection.tx_index, 0u);
    EXPECT_EQ(rejection.diagnostic, "stack-underflow");
    EXPECT_EQ(rejection.offset, 0u);
    EXPECT_NE(rejection.message.find("offset 0x0000"), std::string::npos);

    // The tx fails and burns its gas, but the block still executes.
    ASSERT_EQ(serial.receipts.size(), 1u);
    EXPECT_FALSE(serial.receipts[0].success);
    EXPECT_EQ(serial.receipts[0].gas_used, 1'000'000u);
}

TEST(Executor, InstallsValidCreationCodeAtDerivedAddress) {
    const auto key = crypto::KeyPair::from_seed(8);
    const chain::BlockHeader genesis;
    const chain::Block block = creation_block(
        genesis, key,
        assemble("PUSH1 0x2a PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN"));

    node::VmBlockExecutor executor;
    executor.register_genesis(genesis, vm::WorldState{});
    const chain::ExecutionResult result = executor.execute(genesis, block);
    EXPECT_TRUE(result.rejected_installs.empty());
    ASSERT_EQ(result.receipts.size(), 1u);
    EXPECT_TRUE(result.receipts[0].success);

    // The receipt returns the derived contract address; the contract is
    // installed there and callable.
    const Address target =
        node::VmBlockExecutor::creation_address(key.address(), 0);
    EXPECT_EQ(result.receipts[0].return_data,
              Bytes(target.data.begin(), target.data.end()));
    const vm::WorldState& state = executor.state_after(block.header);
    ASSERT_TRUE(state.has_contract(target));
    CallContext ctx;
    ctx.contract = target;
    ctx.caller = key.address();
    ctx.gas_limit = kGas;
    const CallResult call = executor.vm().static_call(state, ctx);
    ASSERT_TRUE(call.success) << call.error;
    ASSERT_EQ(call.return_data.size(), 32u);
    EXPECT_EQ(call.return_data[31], 0x2a);
}

TEST(Executor, SiblingBlocksWithDifferentTimestampsKeepTheirOwnState) {
    // Two children of genesis with the same call, differing only in their
    // timestamp, which the contract stores at slot 0.
    const chain::BlockHeader genesis;
    WorldState genesis_state;
    genesis_state.deploy(contract_address(),
                         assemble("TIMESTAMP PUSH1 0x00 SSTORE STOP"));
    const auto key = crypto::KeyPair::from_seed(9);
    const auto sibling = [&](std::uint64_t timestamp_ms) {
        chain::Block block;
        block.header.number = 1;
        block.header.parent_hash = genesis.hash();
        block.header.timestamp_ms = timestamp_ms;
        block.transactions.push_back(chain::Transaction::make_signed(
            key, 0, contract_address(), 1'000'000, 1, {}));
        block.header.tx_root = block.compute_tx_root();
        return block;
    };
    const chain::Block early = sibling(2'000);
    const chain::Block late = sibling(3'000);

    node::VmBlockExecutor both;
    both.register_genesis(genesis, genesis_state);
    (void)both.execute(genesis, early);
    const chain::ExecutionResult late_after_early = both.execute(genesis, late);

    node::VmBlockExecutor alone;
    alone.register_genesis(genesis, genesis_state);
    const chain::ExecutionResult late_only = alone.execute(genesis, late);

    EXPECT_EQ(late_after_early.state_root, late_only.state_root);
    EXPECT_EQ(both.state_after(early.header)
                  .storage_load(contract_address(), U256{0}),
              U256{2'000});
    EXPECT_EQ(both.state_after(late.header)
                  .storage_load(contract_address(), U256{0}),
              U256{3'000});
}

}  // namespace
}  // namespace bcfl::vm
