#include "vm/analysis.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <sstream>

#include "crypto/keccak.hpp"
#include "vm/opcodes.hpp"

namespace bcfl::vm {

namespace {

// Diagnostic names — the stable identifiers tests and docs key on. The set
// is harvested by scripts/check_docs.sh; every name must be documented in
// docs/vm.md.
constexpr std::string_view kDiagTruncatedPush = "truncated-push";
constexpr std::string_view kDiagInvalidOpcode = "invalid-opcode";
constexpr std::string_view kDiagStackUnderflow = "stack-underflow";
constexpr std::string_view kDiagStackOverflow = "stack-overflow";
constexpr std::string_view kDiagDynamicJump = "dynamic-jump";
constexpr std::string_view kDiagInvalidJumpTarget = "invalid-jump-target";
constexpr std::string_view kDiagDeadCode = "dead-code";
constexpr std::string_view kDiagUnreachableJumpdest = "unreachable-jumpdest";

/// Diagnostics are capped so adversarial inputs (every byte an invalid
/// opcode) cannot balloon the result; suppressed findings are counted.
constexpr std::size_t kMaxDiagnostics = 128;

/// After this many interval updates a block's interval is widened to the
/// full range, bounding worklist iterations on adversarial loop nests.
/// Widening only grows intervals, so it can cause conservative rejection
/// but never unsound acceptance.
constexpr int kWidenAfter = 64;

/// One decoded instruction. `size` includes the PUSH immediate; `truncated`
/// marks a PUSH whose span runs past the end of code *by more than the one
/// byte the interpreter zero-pads* — exactly the inputs that abort with
/// "push extends past end of code" at runtime.
struct Insn {
    std::size_t offset = 0;
    std::uint8_t byte = 0;
    std::size_t size = 1;
    bool truncated = false;
};

std::string offset_prefix(std::size_t offset) {
    std::ostringstream out;
    out << "bytecode offset 0x";
    out.width(4);
    out.fill('0');
    out << std::hex << offset;
    return out.str();
}

/// Mnemonic for error messages; falls back to the raw byte for undefined
/// opcodes (op_name returns "" for those).
std::string insn_name(std::uint8_t byte) {
    const std::string_view name = op_name(byte);
    if (!name.empty()) return std::string(name);
    std::ostringstream out;
    out << "0x";
    out.width(2);
    out.fill('0');
    out << std::hex << static_cast<int>(byte);
    return out.str();
}

class Analyzer {
public:
    Analyzer(BytesView code, const chain::GasSchedule& gas,
             std::size_t max_stack)
        : code_(code), gas_(gas), max_stack_(static_cast<int>(max_stack)) {}

    CodeAnalysis run() {
        decode();
        build_blocks();
        summarize_blocks();
        propagate();
        finish();
        return std::move(result_);
    }

private:
    void diag(std::string_view name, std::size_t offset, bool fatal,
              const std::string& detail) {
        if (fatal) result_.verdict = Verdict::invalid;
        if (result_.diagnostics.size() >= kMaxDiagnostics) {
            ++result_.suppressed_diagnostics;
            return;
        }
        Diagnostic d;
        d.name = std::string(name);
        d.offset = offset;
        d.fatal = fatal;
        d.message = offset_prefix(offset) + ": " + std::string(name) + ": " +
                    detail;
        result_.diagnostics.push_back(std::move(d));
    }

    /// Linear instruction sweep using the interpreter's exact advance rule
    /// (`pc += 1 + immediate width`), which is also how the JUMPDEST
    /// bitmap is defined — so bytes inside PUSH immediates are data, never
    /// instructions, and jump-into-push-data cannot be missed.
    void decode() {
        result_.jumpdest.assign(code_.size(), false);
        for (std::size_t i = 0; i < code_.size();) {
            Insn insn;
            insn.offset = i;
            insn.byte = code_[i];
            const auto width =
                static_cast<std::size_t>(kOps[insn.byte].immediate);
            if (width > 0) {
                insn.size = 1 + width;
                // The interpreter zero-pads a PUSH short by exactly one
                // byte and aborts only when i + width > code.size().
                insn.truncated = i + width > code_.size();
            } else if (static_cast<Op>(insn.byte) == Op::JUMPDEST) {
                result_.jumpdest[i] = true;
            }
            i += insn.size;
            insns_.push_back(insn);
        }
    }

    static bool is_terminator(const Insn& insn) {
        if (insn.truncated) return true;  // runtime abort, no fall-through
        if (!kOps[insn.byte].defined()) return true;  // invalid opcode
        switch (static_cast<Op>(insn.byte)) {
            case Op::STOP:
            case Op::JUMP:
            case Op::RETURN:
            case Op::REVERT: return true;
            default: return false;
        }
    }

    void build_blocks() {
        if (insns_.empty()) return;
        std::vector<bool> leader(insns_.size(), false);
        leader[0] = true;
        for (std::size_t i = 0; i < insns_.size(); ++i) {
            const Insn& insn = insns_[i];
            if (static_cast<Op>(insn.byte) == Op::JUMPDEST) leader[i] = true;
            const bool ends_block = is_terminator(insn) ||
                                    static_cast<Op>(insn.byte) == Op::JUMPI;
            if (ends_block && i + 1 < insns_.size()) leader[i + 1] = true;
        }
        for (std::size_t i = 0; i < insns_.size(); ++i) {
            if (leader[i]) {
                BasicBlock block;
                block.start = insns_[i].offset;
                result_.blocks.push_back(block);
                first_insn_.push_back(i);
            }
            result_.blocks.back().end = insns_[i].offset + insns_[i].size;
        }
    }

    /// Index of the block starting at byte `offset`. Only called for
    /// offsets that are valid JUMPDESTs, which are always block leaders.
    std::size_t block_at(std::size_t offset) const {
        const auto it = std::lower_bound(
            result_.blocks.begin(), result_.blocks.end(), offset,
            [](const BasicBlock& block, std::size_t off) {
                return block.start < off;
            });
        return static_cast<std::size_t>(it - result_.blocks.begin());
    }

    /// Constant-folds the PUSH immediately preceding a JUMP/JUMPI. Returns
    /// false when the value does not fit 64 bits (always an invalid target:
    /// code is far smaller than 2^64 bytes).
    bool push_value(const Insn& push, std::uint64_t& value) const {
        const auto width =
            static_cast<std::size_t>(kOps[push.byte].immediate);
        value = 0;
        for (std::size_t i = 0; i < width; ++i) {
            const std::size_t at = push.offset + 1 + i;
            // Same zero-padding the interpreter applies.
            const std::uint8_t b = at < code_.size() ? code_[at] : 0;
            if (value > (std::numeric_limits<std::uint64_t>::max() >> 8)) {
                return false;
            }
            value = (value << 8) | b;
        }
        return true;
    }

    void summarize_blocks() {
        per_block_.resize(result_.blocks.size());
        for (std::size_t b = 0; b < result_.blocks.size(); ++b) {
            BasicBlock& block = result_.blocks[b];
            const std::size_t begin = first_insn_[b];
            const std::size_t last = b + 1 < result_.blocks.size()
                                         ? first_insn_[b + 1]
                                         : insns_.size();
            int d = 0;
            for (std::size_t i = begin; i < last; ++i) {
                const Insn& insn = insns_[i];
                const OpInfo& info = kOps[insn.byte];
                if (insn.truncated || !info.defined()) break;
                block.min_entry = std::max(block.min_entry, info.require - d);
                d += info.delta;
                block.peak = std::max(block.peak, d);
                block.static_gas += static_gas(info, gas_);
                block.env_mask |= info.env;
            }
            block.delta = d;

            // Terminator classification + successor edges.
            const Insn& tail = insns_[last - 1];
            PerBlock& extra = per_block_[b];
            extra.last_insn = last - 1;
            const Op tail_op = static_cast<Op>(tail.byte);
            if (tail.truncated || !kOps[tail.byte].defined()) {
                extra.fatal_tail = true;  // diagnosed when proven reachable
            } else if (tail_op == Op::JUMP || tail_op == Op::JUMPI) {
                if (last - 1 == begin ||
                    kOps[insns_[last - 2].byte].op != Op::PUSH1) {
                    extra.dynamic_jump = true;
                } else {
                    std::uint64_t target = 0;
                    if (!push_value(insns_[last - 2], target) ||
                        target >= code_.size() || !result_.jumpdest[target]) {
                        extra.bad_target = true;
                        extra.target = target;
                    } else {
                        const std::size_t succ =
                            block_at(static_cast<std::size_t>(target));
                        result_.blocks[b].successors.push_back(
                            static_cast<std::uint32_t>(succ));
                    }
                }
                if (tail_op == Op::JUMPI && last < insns_.size()) {
                    result_.blocks[b].successors.push_back(
                        static_cast<std::uint32_t>(b + 1));
                }
            } else if (tail_op != Op::STOP && tail_op != Op::RETURN &&
                       tail_op != Op::REVERT && last < insns_.size()) {
                // Fall-through into the next block (a JUMPDEST leader).
                result_.blocks[b].successors.push_back(
                    static_cast<std::uint32_t>(b + 1));
            }
        }
    }

    /// Worklist fixpoint over entry stack-height intervals. Heights are
    /// clamped to [0, max_stack], so the lattice is finite and the loop
    /// terminates; kWidenAfter bounds it further on adversarial inputs.
    void propagate() {
        if (result_.blocks.empty()) return;
        result_.blocks[0].reachable = true;
        result_.blocks[0].entry_min = 0;
        result_.blocks[0].entry_max = 0;
        std::deque<std::size_t> worklist{0};
        std::vector<bool> queued(result_.blocks.size(), false);
        queued[0] = true;
        while (!worklist.empty()) {
            const std::size_t b = worklist.front();
            worklist.pop_front();
            queued[b] = false;
            BasicBlock& block = result_.blocks[b];
            check_block(b);
            const int out_lo =
                std::clamp(block.entry_min + block.delta, 0, max_stack_);
            const int out_hi =
                std::clamp(block.entry_max + block.delta, 0, max_stack_);
            for (const std::uint32_t succ : block.successors) {
                BasicBlock& next = result_.blocks[succ];
                int lo = out_lo;
                int hi = out_hi;
                if (next.reachable) {
                    lo = std::min(lo, next.entry_min);
                    hi = std::max(hi, next.entry_max);
                }
                if (next.reachable && lo == next.entry_min &&
                    hi == next.entry_max) {
                    continue;
                }
                if (++per_block_[succ].updates > kWidenAfter) {
                    lo = 0;
                    hi = max_stack_;
                }
                next.reachable = true;
                next.entry_min = lo;
                next.entry_max = hi;
                if (!queued[succ]) {
                    queued[succ] = true;
                    worklist.push_back(succ);
                }
            }
        }
    }

    /// Per-reachable-block checks, each diagnosed at most once.
    void check_block(std::size_t b) {
        BasicBlock& block = result_.blocks[b];
        PerBlock& extra = per_block_[b];

        if (!extra.underflow_diagnosed && block.entry_min < block.min_entry) {
            extra.underflow_diagnosed = true;
            // Walk to the first instruction the minimal entry cannot feed.
            int d = 0;
            const std::size_t begin = first_insn_[b];
            for (std::size_t i = begin; i <= extra.last_insn; ++i) {
                const OpInfo& info = kOps[insns_[i].byte];
                if (!info.defined() || insns_[i].truncated) break;
                if (block.entry_min + d < info.require) {
                    std::ostringstream detail;
                    detail << insn_name(insns_[i].byte) << " needs "
                           << info.require << " stack value(s) but only "
                           << (block.entry_min + d)
                           << " may be available on this path";
                    diag(kDiagStackUnderflow, insns_[i].offset, true,
                         detail.str());
                    break;
                }
                d += info.delta;
            }
        }
        if (!extra.overflow_diagnosed &&
            block.entry_max + block.peak > max_stack_) {
            extra.overflow_diagnosed = true;
            int d = 0;
            const std::size_t begin = first_insn_[b];
            std::size_t at = insns_[begin].offset;
            for (std::size_t i = begin; i <= extra.last_insn; ++i) {
                const OpInfo& info = kOps[insns_[i].byte];
                if (!info.defined() || insns_[i].truncated) break;
                d += info.delta;
                if (block.entry_max + d > max_stack_) {
                    at = insns_[i].offset;
                    break;
                }
            }
            std::ostringstream detail;
            detail << "stack may grow to " << (block.entry_max + block.peak)
                   << " entries (limit " << max_stack_ << ")";
            diag(kDiagStackOverflow, at, true, detail.str());
        }
        if (!extra.tail_diagnosed &&
            (extra.fatal_tail || extra.dynamic_jump || extra.bad_target)) {
            extra.tail_diagnosed = true;
            const Insn& tail = insns_[extra.last_insn];
            if (tail.truncated) {
                std::ostringstream detail;
                detail << insn_name(tail.byte) << " needs "
                       << (tail.size - 1) << " immediate byte(s) but only "
                       << (code_.size() - tail.offset - 1)
                       << " remain before end of code";
                diag(kDiagTruncatedPush, tail.offset, true, detail.str());
            } else if (extra.fatal_tail) {
                diag(kDiagInvalidOpcode, tail.offset, true,
                     "opcode " + insn_name(tail.byte) +
                         " is not part of the MiniEVM subset");
            } else if (extra.dynamic_jump) {
                diag(kDiagDynamicJump, tail.offset, true,
                     std::string(op_name(tail.byte)) +
                         " target is not an immediately preceding PUSH, so "
                         "it cannot be verified statically");
            } else {
                std::ostringstream detail;
                detail << "jump to 0x" << std::hex << extra.target
                       << " which is not a JUMPDEST";
                diag(kDiagInvalidJumpTarget, tail.offset, true, detail.str());
            }
        }
    }

    void finish() {
        for (std::size_t b = 0; b < result_.blocks.size(); ++b) {
            const BasicBlock& block = result_.blocks[b];
            if (block.reachable) {
                result_.env_mask |= block.env_mask;
                continue;
            }
            result_.unreachable_bytes += block.end - block.start;
            const bool at_jumpdest =
                static_cast<Op>(insns_[first_insn_[b]].byte) == Op::JUMPDEST;
            std::ostringstream detail;
            detail << (block.end - block.start)
                   << " byte(s) not reachable from offset 0x0000";
            diag(at_jumpdest ? kDiagUnreachableJumpdest : kDiagDeadCode,
                 block.start, false, detail.str());
        }
        std::stable_sort(result_.diagnostics.begin(),
                         result_.diagnostics.end(),
                         [](const Diagnostic& a, const Diagnostic& b) {
                             if (a.offset != b.offset) {
                                 return a.offset < b.offset;
                             }
                             return a.fatal && !b.fatal;
                         });
    }

    struct PerBlock {
        std::size_t last_insn = 0;
        bool fatal_tail = false;    // truncated PUSH or invalid opcode
        bool dynamic_jump = false;  // JUMP/JUMPI without preceding PUSH
        bool bad_target = false;    // constant target is not a JUMPDEST
        std::uint64_t target = 0;
        int updates = 0;
        bool underflow_diagnosed = false;
        bool overflow_diagnosed = false;
        bool tail_diagnosed = false;
    };

    BytesView code_;
    const chain::GasSchedule& gas_;
    int max_stack_;
    std::vector<Insn> insns_;
    std::vector<std::size_t> first_insn_;  // block -> first insn index
    std::vector<PerBlock> per_block_;
    CodeAnalysis result_;
};

void append_be32(Bytes& out, std::uint64_t value) {
    for (int shift = 24; shift >= 0; shift -= 8) {
        out.push_back(static_cast<std::uint8_t>(value >> shift));
    }
}

void append_be64(Bytes& out, std::uint64_t value) {
    for (int shift = 56; shift >= 0; shift -= 8) {
        out.push_back(static_cast<std::uint8_t>(value >> shift));
    }
}

}  // namespace

const Diagnostic* CodeAnalysis::first_fatal() const {
    for (const Diagnostic& d : diagnostics) {
        if (d.fatal) return &d;
    }
    return nullptr;
}

CodeAnalysis analyze(BytesView code, const chain::GasSchedule& gas,
                     std::size_t max_stack) {
    return Analyzer(code, gas, max_stack).run();
}

Bytes block_table_dump(const CodeAnalysis& analysis) {
    Bytes out;
    append_be32(out, analysis.blocks.size());
    for (const BasicBlock& block : analysis.blocks) {
        append_be32(out, block.start);
        append_be32(out, block.end);
        out.push_back(block.reachable ? 1 : 0);
        append_be32(out, static_cast<std::uint32_t>(block.entry_min));
        append_be32(out, static_cast<std::uint32_t>(block.entry_max));
        append_be32(out, static_cast<std::uint32_t>(block.delta));
        append_be32(out, static_cast<std::uint32_t>(block.min_entry));
        append_be32(out, static_cast<std::uint32_t>(block.peak));
        append_be64(out, block.static_gas);
        out.push_back(block.env_mask);
        append_be32(out, block.successors.size());
        for (const std::uint32_t succ : block.successors) {
            append_be32(out, succ);
        }
    }
    return out;
}

std::shared_ptr<const CodeAnalysis> AnalysisCache::get(BytesView code) {
    return get(crypto::keccak256(code), code);
}

std::shared_ptr<const CodeAnalysis> AnalysisCache::get(const Hash32& code_hash,
                                                       BytesView code) {
    {
        common::MutexLock lock(mutex_);
        const auto it = entries_.find(code_hash);
        if (it != entries_.end()) {
            ++stats_.hits;
            return it->second;
        }
        ++stats_.misses;
    }
    // Analyze outside the lock: a concurrent duplicate insert is benign
    // (both sides computed the identical, immutable result).
    auto analysis =
        std::make_shared<const CodeAnalysis>(analyze(code, gas_, max_stack_));
    common::MutexLock lock(mutex_);
    store_locked(code_hash, analysis);
    return analysis;
}

void AnalysisCache::store_locked(
    const Hash32& code_hash,
    const std::shared_ptr<const CodeAnalysis>& analysis) {
    if (entries_.size() >= max_entries_) {
        stats_.evictions += entries_.size();
        entries_.clear();
    }
    entries_.emplace(code_hash, analysis);
}

AnalysisCache::Stats AnalysisCache::stats() const {
    common::MutexLock lock(mutex_);
    return stats_;
}

std::size_t AnalysisCache::size() const {
    common::MutexLock lock(mutex_);
    return entries_.size();
}

void AnalysisCache::clear() {
    common::MutexLock lock(mutex_);
    stats_.evictions += entries_.size();
    entries_.clear();
}

}  // namespace bcfl::vm
