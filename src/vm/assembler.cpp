#include "vm/assembler.hpp"

#include <cctype>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "vm/opcodes.hpp"

namespace bcfl::vm {

namespace {

// Diagnostic names — harvested by scripts/check_docs.sh into docs/vm.md.
constexpr std::string_view kDiagUnreferencedLabel = "unreferenced-label";

struct Token {
    std::string text;
    std::size_t line;
};

/// Untrusted-input guard: the longest legitimate token is a PUSH32 hex
/// immediate ("0x" + 64 digits); anything past this cap is rejected while
/// still short enough to echo in the error message.
constexpr std::size_t kMaxTokenLength = 128;

std::vector<Token> tokenize(std::string_view source) {
    std::vector<Token> tokens;
    std::string current;
    std::size_t line = 1;
    bool in_comment = false;
    const auto flush = [&] {
        if (!current.empty()) {
            tokens.push_back(Token{current, line});
            current.clear();
        }
    };
    for (char c : source) {
        if (c == '\n') {
            flush();
            in_comment = false;
            ++line;
            continue;
        }
        if (in_comment) continue;
        if (c == ';') {
            flush();
            in_comment = true;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            flush();
            continue;
        }
        if (current.size() >= kMaxTokenLength) {
            std::ostringstream out;
            out << "asm line " << line << ": token exceeds " << kMaxTokenLength
                << " characters";
            throw DecodeError(out.str());
        }
        current.push_back(c);
    }
    flush();
    return tokens;
}

[[noreturn]] void fail(const Token& token, const std::string& message) {
    std::ostringstream out;
    out << "asm line " << token.line << ": " << message << " ('" << token.text
        << "')";
    throw DecodeError(out.str());
}

/// Opcode byte for a full mnemonic, looked up in the opcode table.
std::optional<std::uint8_t> opcode_of(const std::string& name) {
    static const std::map<std::string, std::uint8_t> kByMnemonic = [] {
        std::map<std::string, std::uint8_t> by_mnemonic;
        for (std::size_t byte = 0; byte < kOps.size(); ++byte) {
            const auto b = static_cast<std::uint8_t>(byte);
            if (kOps[b].defined()) by_mnemonic.emplace(mnemonic(b), b);
        }
        return by_mnemonic;
    }();
    const auto it = kByMnemonic.find(name);
    if (it == kByMnemonic.end()) return std::nullopt;
    return it->second;
}

/// Parses a PUSH immediate into big-endian bytes of exactly `width`.
Bytes parse_immediate(const Token& token, std::size_t width) {
    const std::string& text = token.text;
    Bytes value;
    if (text.starts_with("0x") || text.starts_with("0X")) {
        std::string hex = text.substr(2);
        if (hex.empty() || hex.size() > width * 2) {
            fail(token, "immediate does not fit PUSH width");
        }
        if (hex.size() % 2 != 0) hex.insert(hex.begin(), '0');
        value = from_hex(hex);
    } else {
        std::uint64_t number = 0;
        for (char c : text) {
            if (!std::isdigit(static_cast<unsigned char>(c))) {
                fail(token, "expected numeric immediate");
            }
            const auto digit = static_cast<std::uint64_t>(c - '0');
            if (number > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
                fail(token, "decimal immediate overflows 64 bits (use hex)");
            }
            number = number * 10 + digit;
        }
        while (number > 0) {
            value.insert(value.begin(),
                         static_cast<std::uint8_t>(number & 0xff));
            number >>= 8;
        }
    }
    if (value.size() > width) fail(token, "immediate does not fit PUSH width");
    Bytes padded(width - value.size(), 0);
    append(padded, value);
    return padded;
}

}  // namespace

Bytes assemble(std::string_view source,
               std::vector<AsmDiagnostic>* diagnostics) {
    const std::vector<Token> tokens = tokenize(source);

    // Pass 1: compute label offsets (all widths are known statically).
    std::map<std::string, std::size_t> labels;
    std::map<std::string, std::size_t> label_lines;  // for diagnostics
    std::set<std::string> referenced;
    std::size_t offset = 0;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const Token& token = tokens[i];
        if (token.text.ends_with(":")) {
            const std::string name = token.text.substr(0, token.text.size() - 1);
            if (name.empty()) fail(token, "empty label name");
            if (labels.contains(name)) fail(token, "duplicate label");
            labels[name] = offset;
            label_lines[name] = token.line;
            continue;
        }
        if (token.text.starts_with("@")) {
            offset += 3;  // PUSH2 + 2 bytes
            continue;
        }
        const auto byte = opcode_of(token.text);
        if (!byte) fail(token, "unknown mnemonic");
        const auto width = static_cast<std::size_t>(kOps[*byte].immediate);
        if (width > 0) {
            if (i + 1 >= tokens.size()) fail(token, "PUSH missing immediate");
            ++i;  // skip immediate token
        }
        offset += 1 + width;
    }

    // Pass 2: emit bytes.
    Bytes code;
    code.reserve(offset);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const Token& token = tokens[i];
        if (token.text.ends_with(":")) continue;
        if (token.text.starts_with("@")) {
            const std::string name = token.text.substr(1);
            const auto it = labels.find(name);
            if (it == labels.end()) fail(token, "undefined label");
            referenced.insert(name);
            if (it->second > 0xffff) fail(token, "label offset exceeds PUSH2");
            code.push_back(0x61);  // PUSH2
            code.push_back(static_cast<std::uint8_t>(it->second >> 8));
            code.push_back(static_cast<std::uint8_t>(it->second & 0xff));
            continue;
        }
        const std::uint8_t byte = *opcode_of(token.text);
        code.push_back(byte);
        const auto width = static_cast<std::size_t>(kOps[byte].immediate);
        if (width > 0) append(code, parse_immediate(tokens[++i], width));
    }

    if (diagnostics != nullptr) {
        // `labels` is an ordered map, so the warning order is stable.
        for (const auto& [name, label_offset] : labels) {
            if (referenced.contains(name)) continue;
            (void)label_offset;
            AsmDiagnostic d;
            d.name = std::string(kDiagUnreferencedLabel);
            d.line = label_lines[name];
            std::ostringstream out;
            out << "asm line " << d.line << ": " << kDiagUnreferencedLabel
                << ": label '" << name << "' is defined but never referenced";
            d.message = out.str();
            diagnostics->push_back(std::move(d));
        }
    }
    return code;
}

}  // namespace bcfl::vm
