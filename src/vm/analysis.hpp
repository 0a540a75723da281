// Static bytecode analysis for the MiniEVM: control-flow-graph recovery,
// worklist stack-height abstract interpretation, constant jump-target
// resolution, reachability, per-block static gas lower bounds and an
// environment-dependence bitmask.
//
// This is the vetting layer contract code passes before the chain agrees to
// execute it — the same philosophy as the determinism linter, applied to the
// untrusted input the chain itself runs. The analyzer is deliberately
// stricter than the interpreter: it rejects *possible* stack underflow and
// overflow (interval bounds, not single heights) and it rejects dynamic
// jumps (a JUMP/JUMPI whose target is not the immediately preceding PUSH).
// Within that discipline the verdict is a guarantee: accepted code can never
// trap on stack underflow or an invalid jump destination at runtime, for any
// calldata (fuzz-verified by fuzz/fuzz_analysis.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/gas.hpp"
#include "common/bytes.hpp"
#include "common/sync.hpp"
#include "vm/opcodes.hpp"

namespace bcfl::vm {

enum class Verdict : std::uint8_t { valid, invalid };

/// One analyzer finding. `name` is a stable kebab-case identifier (the set
/// is documented in docs/vm.md and enforced by scripts/check_docs.sh);
/// `message` is human-readable and always cites the byte offset in the same
/// style as the scenario-parser errors.
struct Diagnostic {
    std::string name;
    std::size_t offset = 0;  // byte offset into the analyzed code
    bool fatal = false;      // fatal findings flip the verdict to invalid
    std::string message;
};

/// One basic block of the recovered CFG. Blocks are split at JUMPDESTs,
/// after terminators (STOP/RETURN/REVERT/JUMP, invalid opcodes, fatally
/// truncated PUSHes) and after JUMPI; PUSH immediates are decoded with the
/// interpreter's exact scan rule, so jump-into-push-data is structurally
/// impossible to miss.
struct BasicBlock {
    std::size_t start = 0;  // offset of the first instruction
    std::size_t end = 0;    // one past the block's last byte
    bool reachable = false;
    // Stack-height interval on entry (meaningful only when reachable).
    int entry_min = 0;
    int entry_max = 0;
    int delta = 0;      // net stack-height change across the block
    int min_entry = 0;  // entry height required to never underflow
    int peak = 0;       // max prefix delta (overflow check: entry + peak)
    std::uint64_t static_gas = 0;  // lower bound; dynamic costs excluded
    std::uint8_t env_mask = 0;     // kEnv* bits used inside the block
    std::vector<std::uint32_t> successors;  // indices into the block table
};

struct CodeAnalysis {
    Verdict verdict = Verdict::valid;
    /// Valid jump destinations, computed with the interpreter's scan rule
    /// (JUMPDEST bytes, skipping PUSH immediates). Vm::execute consumes this
    /// through the cache instead of rescanning the code on every call.
    std::vector<bool> jumpdest;
    std::vector<BasicBlock> blocks;
    std::vector<Diagnostic> diagnostics;  // capped; overflow counted below
    std::size_t suppressed_diagnostics = 0;
    std::uint8_t env_mask = 0;  // union over reachable blocks
    std::size_t unreachable_bytes = 0;

    [[nodiscard]] bool valid() const { return verdict == Verdict::valid; }
    /// First fatal diagnostic, or nullptr when the verdict is valid.
    [[nodiscard]] const Diagnostic* first_fatal() const;
};

/// Analyzes `code`. Total: never throws on any byte string, always returns
/// a verdict. `gas` feeds the static per-block gas lower bounds; `max_stack`
/// must match the interpreter limit the code will run under.
[[nodiscard]] CodeAnalysis analyze(BytesView code,
                                   const chain::GasSchedule& gas = {},
                                   std::size_t max_stack = 1024);

/// Canonical byte serialization of the block table (offsets, intervals,
/// gas bounds, successor lists). Deterministic across platforms — its
/// keccak is the bench parity digest for the registry contract.
[[nodiscard]] Bytes block_table_dump(const CodeAnalysis& analysis);

/// Keccak-keyed cache of CodeAnalysis results, shared between Vm and
/// VmBlockExecutor so a contract is analyzed once per code hash, not once
/// per call. Thread-safe (a coarse mutex; analysis itself runs outside the
/// lock). Bounded: when `max_entries` distinct code hashes have been seen
/// the table is reset wholesale — cheap, deterministic, and in practice
/// never hit (a deployment set is far smaller than the cap).
class AnalysisCache {
public:
    explicit AnalysisCache(chain::GasSchedule gas = {},
                           std::size_t max_stack = 1024,
                           std::size_t max_entries = 1024)
        : gas_(gas), max_stack_(max_stack), max_entries_(max_entries) {}

    /// Analysis for `code`, hashing it first. Prefer the two-argument form
    /// when the caller already knows keccak(code).
    std::shared_ptr<const CodeAnalysis> get(BytesView code)
        BCFL_EXCLUDES(mutex_);
    std::shared_ptr<const CodeAnalysis> get(const Hash32& code_hash,
                                            BytesView code)
        BCFL_EXCLUDES(mutex_);

    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };
    [[nodiscard]] Stats stats() const BCFL_EXCLUDES(mutex_);
    [[nodiscard]] std::size_t size() const BCFL_EXCLUDES(mutex_);
    void clear() BCFL_EXCLUDES(mutex_);

private:
    /// Insert under mutex_, applying the wholesale-reset bound. Split out
    /// of get() so the "caller already holds the lock" contract is an
    /// annotated, compiler-checked fact rather than a comment.
    void store_locked(const Hash32& code_hash,
                      const std::shared_ptr<const CodeAnalysis>& analysis)
        BCFL_REQUIRES(mutex_);

    mutable common::Mutex mutex_;
    chain::GasSchedule gas_;
    std::size_t max_stack_;
    std::size_t max_entries_;
    Stats stats_ BCFL_GUARDED_BY(mutex_);
    std::unordered_map<Hash32, std::shared_ptr<const CodeAnalysis>,
                       FixedBytesHasher>
        entries_ BCFL_GUARDED_BY(mutex_);
};

}  // namespace bcfl::vm
