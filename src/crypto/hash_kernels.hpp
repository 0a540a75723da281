// The kernels behind crypto::Sha256 and crypto::keccak256, each compiled in
// more than one variant. Private to the crypto layer: sha256.cpp and
// keccak.cpp each pick the last variant the host supports, once, by cpuid.
// crypto_test and fuzz/fuzz_hash.cpp reach every variant through this
// header and check it against tests/hash_reference.hpp, so the path of a
// host without SHA-NI or BMI2 is checked everywhere.
//
// Contract, bit for bit: the variants of a kernel compute the same
// function. Which one runs changes the time a hash takes, never its output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace bcfl::crypto::kernel {

/// Compresses `count` whole 64-byte blocks into a SHA-256 state.
using Sha256Blocks = void (*)(std::uint32_t state[8],
                              const std::uint8_t* blocks, std::size_t count);
/// keccak-f[1600] over 25 little-endian lanes, lane x + 5y at index x + 5y.
using KeccakPermute = void (*)(std::uint64_t state[25]);

/// One compiled variant of a kernel and whether this host can run it.
template <typename Fn>
struct Variant {
    const char* name;
    Fn fn;
    bool supported;
};

/// Every variant compiled into this build, the portable one first.
[[nodiscard]] std::span<const Variant<Sha256Blocks>> sha256_variants();
[[nodiscard]] std::span<const Variant<KeccakPermute>> keccak_variants();

/// The variant a hash runs: the last one in `variants` this host supports.
template <typename Fn>
[[nodiscard]] const Variant<Fn>& last_supported(
    std::span<const Variant<Fn>> variants) {
    std::size_t i = variants.size() - 1;
    while (!variants[i].supported) --i;  // the portable variant always is
    return variants[i];
}

/// A Sha256 that compresses through `blocks` instead of the variant cpuid
/// picked: the same buffering and padding code, another kernel.
struct Sha256Access {
    [[nodiscard]] static Sha256 with(Sha256Blocks blocks) {
        return Sha256(blocks);
    }
};

/// keccak256(a, b) through `permute` instead of the variant cpuid picked.
[[nodiscard]] Hash32 keccak256_with(KeccakPermute permute, BytesView a,
                                    BytesView b);

}  // namespace bcfl::crypto::kernel
