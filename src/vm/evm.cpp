#include "vm/evm.hpp"

#include <algorithm>

#include "crypto/keccak.hpp"

namespace bcfl::vm {

namespace {

using crypto::U256;

/// Thrown internally to abort execution; converted into CallResult.
struct Abort {
    std::string reason;
    bool out_of_gas = false;
};

struct Machine {
    const Bytes& code;
    const CallContext& ctx;
    const WorldState& state;
    AccountStorage& writes;  // the call's storage writes; a zero value clears
    const chain::GasSchedule& gas_table;
    const VmLimits& limits;

    std::vector<U256> stack;
    Bytes memory;
    std::vector<chain::LogEntry> logs;
    std::uint64_t gas_left = 0;
    std::size_t pc = 0;

    void charge(std::uint64_t amount) {
        if (amount > gas_left) throw Abort{"out of gas", true};
        gas_left -= amount;
    }

    void push(const U256& value) {
        if (stack.size() >= limits.max_stack) throw Abort{"stack overflow"};
        stack.push_back(value);
    }

    U256 pop() {
        if (stack.empty()) throw Abort{"stack underflow"};
        U256 value = stack.back();
        stack.pop_back();
        return value;
    }

    /// Bounded conversion for offsets/sizes.
    std::size_t pop_size(std::size_t bound, const char* what) {
        const U256 value = pop();
        if (value.bit_length() > 32 || value.low64() > bound) {
            throw Abort{std::string("size/offset out of range: ") + what};
        }
        return static_cast<std::size_t>(value.low64());
    }

    void ensure_memory(std::size_t end) {
        if (end <= memory.size()) return;
        if (end > limits.max_memory) throw Abort{"memory limit exceeded"};
        const std::size_t old_words = (memory.size() + 31) / 32;
        const std::size_t new_words = (end + 31) / 32;
        charge(gas_table.vm_memory_word * (new_words - old_words));
        memory.resize(new_words * 32, 0);
    }

    U256 mload(std::size_t offset) {
        ensure_memory(offset + 32);
        return U256::from_be_bytes(BytesView{memory.data() + offset, 32});
    }

    void mstore(std::size_t offset, const U256& value) {
        ensure_memory(offset + 32);
        const Hash32 be = value.to_hash();
        std::copy(be.data.begin(), be.data.end(), memory.begin() + offset);
    }

    /// Storage read through the call's pending writes.
    U256 sload(const U256& key) const {
        const auto it = writes.find(key);
        return it != writes.end() ? it->second
                                  : state.storage_load(ctx.contract, key);
    }

    U256 calldata_word(std::size_t offset) const {
        Bytes word(32, 0);
        for (std::size_t i = 0; i < 32; ++i) {
            if (offset + i < ctx.calldata.size()) {
                word[i] = ctx.calldata[offset + i];
            }
        }
        return U256::from_be_bytes(word);
    }
};

U256 bool_word(bool v) { return v ? U256{1} : U256{}; }

}  // namespace

CallResult Vm::call(WorldState& state, const CallContext& ctx) const {
    AccountStorage writes;
    CallResult result = execute(state, ctx, writes);
    if (result.success) {
        for (const auto& [key, value] : writes) {
            state.storage_store(ctx.contract, key, value);
        }
    } else {
        result.logs.clear();
        result.gas_used = ctx.gas_limit;  // failure consumes the budget
    }
    return result;
}

CallResult Vm::static_call(const WorldState& state,
                           const CallContext& ctx) const {
    AccountStorage writes;  // dropped: a view call never mutates state
    return execute(state, ctx, writes);
}

CallResult Vm::execute(const WorldState& state, const CallContext& ctx,
                       AccountStorage& writes) const {
    CallResult result;
    if (!state.has_contract(ctx.contract)) {
        result.error = "no code at target address";
        return result;
    }
    const Bytes& code = state.code_at(ctx.contract);

    // The JUMPDEST bitmap comes from the cached static analysis (computed
    // once per code hash) instead of a per-call rescan of the code.
    const std::shared_ptr<const CodeAnalysis> analysis =
        cache_->get(state.code_hash_at(ctx.contract), code);
    const std::vector<bool>& jumpdest = analysis->jumpdest;

    Machine m{code, ctx, state, writes, gas_, limits_, {}, {}, {},
              ctx.gas_limit, 0};

    try {
        while (m.pc < code.size()) {
            const std::uint8_t byte = code[m.pc];
            const OpInfo& info = kOps[byte];
            if (!info.defined()) {
                throw Abort{"invalid opcode 0x" + to_hex(BytesView{&byte, 1})};
            }
            m.charge(static_gas(info, gas_));

            switch (info.op) {
                case Op::STOP:
                    result.success = true;
                    result.logs = std::move(m.logs);
                    result.gas_used = ctx.gas_limit - m.gas_left;
                    return result;
                case Op::ADD: {
                    const U256 a = m.pop();
                    const U256 b = m.pop();
                    m.push(crypto::add(a, b));
                    break;
                }
                case Op::MUL: {
                    const U256 a = m.pop();
                    const U256 b = m.pop();
                    m.push(crypto::mul(a, b));
                    break;
                }
                case Op::SUB: {
                    const U256 a = m.pop();
                    const U256 b = m.pop();
                    m.push(crypto::sub(a, b));
                    break;
                }
                case Op::DIV: {
                    const U256 a = m.pop();
                    const U256 b = m.pop();
                    m.push(crypto::divmod(a, b).quotient);
                    break;
                }
                case Op::MOD: {
                    const U256 a = m.pop();
                    const U256 b = m.pop();
                    m.push(crypto::divmod(a, b).remainder);
                    break;
                }
                case Op::LT: {
                    const U256 a = m.pop();
                    const U256 b = m.pop();
                    m.push(bool_word(a < b));
                    break;
                }
                case Op::GT: {
                    const U256 a = m.pop();
                    const U256 b = m.pop();
                    m.push(bool_word(a > b));
                    break;
                }
                case Op::EQ: {
                    const U256 a = m.pop();
                    const U256 b = m.pop();
                    m.push(bool_word(a == b));
                    break;
                }
                case Op::ISZERO:
                    m.push(bool_word(m.pop().is_zero()));
                    break;
                case Op::AND: {
                    const U256 a = m.pop();
                    const U256 b = m.pop();
                    m.push(crypto::bit_and(a, b));
                    break;
                }
                case Op::OR: {
                    const U256 a = m.pop();
                    const U256 b = m.pop();
                    m.push(crypto::bit_or(a, b));
                    break;
                }
                case Op::XOR: {
                    const U256 a = m.pop();
                    const U256 b = m.pop();
                    m.push(crypto::bit_xor(a, b));
                    break;
                }
                case Op::NOT:
                    m.push(crypto::bit_not(m.pop()));
                    break;
                case Op::SHL: {
                    const U256 shift = m.pop();
                    const U256 value = m.pop();
                    m.push(shift.bit_length() > 9
                               ? U256{}
                               : crypto::shl(value, static_cast<unsigned>(
                                                        shift.low64())));
                    break;
                }
                case Op::SHR: {
                    const U256 shift = m.pop();
                    const U256 value = m.pop();
                    m.push(shift.bit_length() > 9
                               ? U256{}
                               : crypto::shr(value, static_cast<unsigned>(
                                                        shift.low64())));
                    break;
                }
                case Op::SHA3: {
                    const std::size_t offset =
                        m.pop_size(limits_.max_memory, "sha3 offset");
                    const std::size_t size =
                        m.pop_size(limits_.max_memory, "sha3 size");
                    m.ensure_memory(offset + size);
                    m.charge(gas_.vm_sha3_word * ((size + 31) / 32));
                    const Hash32 digest = crypto::keccak256(
                        BytesView{m.memory.data() + offset, size});
                    m.push(U256::from_hash(digest));
                    break;
                }
                case Op::CALLER: {
                    Bytes padded(32, 0);
                    std::copy(ctx.caller.data.begin(), ctx.caller.data.end(),
                              padded.begin() + 12);
                    m.push(U256::from_be_bytes(padded));
                    break;
                }
                case Op::CALLDATALOAD: {
                    const std::size_t offset = m.pop_size(
                        std::max(ctx.calldata.size(), std::size_t{1}) + 32,
                        "calldata offset");
                    m.push(m.calldata_word(offset));
                    break;
                }
                case Op::CALLDATASIZE:
                    m.push(U256{ctx.calldata.size()});
                    break;
                case Op::CALLDATACOPY: {
                    const std::size_t mem_offset =
                        m.pop_size(limits_.max_memory, "mem offset");
                    const std::size_t data_offset = m.pop_size(
                        ctx.calldata.size() + 32, "calldata offset");
                    const std::size_t size =
                        m.pop_size(limits_.max_memory, "copy size");
                    m.ensure_memory(mem_offset + size);
                    m.charge(gas_.vm_memory_word * ((size + 31) / 32));
                    for (std::size_t i = 0; i < size; ++i) {
                        m.memory[mem_offset + i] =
                            data_offset + i < ctx.calldata.size()
                                ? ctx.calldata[data_offset + i]
                                : 0;
                    }
                    break;
                }
                case Op::TIMESTAMP:
                    m.push(U256{ctx.timestamp_ms});
                    break;
                case Op::NUMBER:
                    m.push(U256{ctx.block_number});
                    break;
                case Op::POP:
                    (void)m.pop();
                    break;
                case Op::MLOAD: {
                    const std::size_t offset =
                        m.pop_size(limits_.max_memory, "mload offset");
                    m.push(m.mload(offset));
                    break;
                }
                case Op::MSTORE: {
                    const std::size_t offset =
                        m.pop_size(limits_.max_memory, "mstore offset");
                    const U256 value = m.pop();
                    m.mstore(offset, value);
                    break;
                }
                case Op::SLOAD:
                    m.push(m.sload(m.pop()));
                    break;
                case Op::SSTORE: {
                    const U256 key = m.pop();
                    const U256 value = m.pop();
                    const std::uint64_t price =
                        m.sload(key).is_zero() && !value.is_zero()
                            ? gas_.vm_sstore_set
                            : gas_.vm_sstore_reset;
                    m.charge(price - static_gas(info, gas_));
                    m.writes[key] = value;
                    break;
                }
                case Op::JUMP: {
                    const std::size_t dest =
                        m.pop_size(code.size(), "jump dest");
                    if (dest >= code.size() || !jumpdest[dest]) {
                        throw Abort{"invalid jump destination"};
                    }
                    m.pc = dest;
                    continue;
                }
                case Op::JUMPI: {
                    const std::size_t dest =
                        m.pop_size(code.size(), "jump dest");
                    const U256 cond = m.pop();
                    if (!cond.is_zero()) {
                        if (dest >= code.size() || !jumpdest[dest]) {
                            throw Abort{"invalid jump destination"};
                        }
                        m.pc = dest;
                        continue;
                    }
                    break;
                }
                case Op::PC:
                    m.push(U256{m.pc});
                    break;
                case Op::GAS:
                    m.push(U256{m.gas_left});
                    break;
                case Op::JUMPDEST:
                    break;
                case Op::PUSH1: {
                    const auto width = static_cast<std::size_t>(info.immediate);
                    if (m.pc + width >= code.size() + 1) {
                        throw Abort{"push extends past end of code"};
                    }
                    Bytes imm(width, 0);
                    for (std::size_t i = 0; i < width; ++i) {
                        if (m.pc + 1 + i < code.size()) {
                            imm[i] = code[m.pc + 1 + i];
                        }
                    }
                    m.push(U256::from_be_bytes(imm));
                    m.pc += width;
                    break;
                }
                case Op::DUP1: {
                    const auto n = static_cast<std::size_t>(info.number);
                    if (m.stack.size() < n) throw Abort{"stack underflow"};
                    m.push(m.stack[m.stack.size() - n]);
                    break;
                }
                case Op::SWAP1: {
                    const auto n = static_cast<std::size_t>(info.number);
                    if (m.stack.size() < n + 1) throw Abort{"stack underflow"};
                    std::swap(m.stack.back(), m.stack[m.stack.size() - 1 - n]);
                    break;
                }
                case Op::LOG0: {
                    const std::size_t offset =
                        m.pop_size(limits_.max_memory, "log offset");
                    const std::size_t size =
                        m.pop_size(limits_.max_memory, "log size");
                    m.ensure_memory(offset + size);
                    chain::LogEntry log;
                    log.address = ctx.contract;
                    for (int t = 0; t < info.number; ++t) {
                        log.topics.push_back(m.pop().to_hash());
                    }
                    log.data.assign(m.memory.begin() + offset,
                                    m.memory.begin() + offset + size);
                    m.charge(gas_.vm_log_data_byte * size);
                    m.logs.push_back(std::move(log));
                    break;
                }
                case Op::RETURN: {
                    const std::size_t offset =
                        m.pop_size(limits_.max_memory, "return offset");
                    const std::size_t size =
                        m.pop_size(limits_.max_memory, "return size");
                    m.ensure_memory(offset + size);
                    result.success = true;
                    result.return_data.assign(
                        m.memory.begin() + offset,
                        m.memory.begin() + offset + size);
                    result.logs = std::move(m.logs);
                    result.gas_used = ctx.gas_limit - m.gas_left;
                    return result;
                }
                case Op::REVERT: {
                    const std::size_t offset =
                        m.pop_size(limits_.max_memory, "revert offset");
                    const std::size_t size =
                        m.pop_size(limits_.max_memory, "revert size");
                    m.ensure_memory(offset + size);
                    result.return_data.assign(
                        m.memory.begin() + offset,
                        m.memory.begin() + offset + size);
                    result.error = "revert";
                    result.gas_used = ctx.gas_limit - m.gas_left;
                    return result;
                }
            }
            ++m.pc;
        }
        // Fell off the end of code: implicit STOP.
        result.success = true;
        result.logs = std::move(m.logs);
        result.gas_used = ctx.gas_limit - m.gas_left;
        return result;
    } catch (const Abort& abort) {
        result.success = false;
        result.error = abort.reason;
        result.gas_used = ctx.gas_limit;
        return result;
    }
}

}  // namespace bcfl::vm
