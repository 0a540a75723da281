#include "vm/disasm.hpp"

#include <sstream>

#include "vm/opcodes.hpp"

namespace bcfl::vm {

namespace {

/// Renders the instruction at `pc` ("0x0004  PUSH2 0x001a") and returns its
/// size in bytes, immediate included.
std::size_t render_insn(std::ostringstream& out, BytesView code,
                        std::size_t pc) {
    const std::uint8_t byte = code[pc];
    out << "0x";
    out.width(4);
    out.fill('0');
    out << std::hex << pc << std::dec << "  ";

    const OpInfo& info = kOps[byte];
    if (!info.defined()) {
        out << "INVALID(0x" << to_hex(BytesView{&byte, 1}) << ")";
        return 1;
    }
    out << mnemonic(byte);
    const auto width = static_cast<std::size_t>(info.immediate);
    if (width == 0) return 1;
    out << " 0x";
    for (std::size_t i = 0; i < width; ++i) {
        if (pc + 1 + i < code.size()) {
            const std::uint8_t imm = code[pc + 1 + i];
            out << to_hex(BytesView{&imm, 1});
        } else {
            out << "??";  // truncated immediate
        }
    }
    return 1 + width;
}

void render_offset(std::ostringstream& out, std::size_t offset) {
    out << "0x";
    out.width(4);
    out.fill('0');
    out << std::hex << offset << std::dec;
}

}  // namespace

std::string disassemble(BytesView code) {
    std::ostringstream out;
    std::size_t pc = 0;
    while (pc < code.size()) {
        pc += render_insn(out, code, pc);
        out << "\n";
    }
    return out.str();
}

std::string disassemble_annotated(BytesView code,
                                  const CodeAnalysis& analysis) {
    std::ostringstream out;
    for (std::size_t b = 0; b < analysis.blocks.size(); ++b) {
        const BasicBlock& block = analysis.blocks[b];
        out << "; block " << b << "  [";
        render_offset(out, block.start);
        out << ", ";
        render_offset(out, block.end);
        out << ")";
        if (block.reachable) {
            out << "  stack in [" << block.entry_min << ","
                << block.entry_max << "]  delta "
                << (block.delta >= 0 ? "+" : "") << block.delta
                << "  gas >= " << block.static_gas;
        } else {
            out << "  unreachable";
        }
        out << "\n";
        std::size_t pc = block.start;
        while (pc < block.end && pc < code.size()) {
            pc += render_insn(out, code, pc);
            out << "\n";
        }
    }
    if (!analysis.diagnostics.empty()) {
        out << "; diagnostics (" << (analysis.valid() ? "valid" : "invalid")
            << "):\n";
        for (const Diagnostic& d : analysis.diagnostics) {
            out << ";   " << (d.fatal ? "error: " : "warning: ") << d.message
                << "\n";
        }
    }
    return out.str();
}

}  // namespace bcfl::vm
