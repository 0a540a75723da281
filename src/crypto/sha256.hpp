// FIPS 180-4 SHA-256, implemented from scratch.
//
// Used for deterministic nonce derivation in the Schnorr signer and as a
// second, independent hash in tests (cross-checking the Keccak pipeline).
//
// Blocks are compressed with SHA-NI where the CPU has it and by scalar code
// elsewhere, chosen once by cpuid; both give the same digest bit for bit
// (crypto/hash_kernels.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"

namespace bcfl::crypto {

namespace kernel {
struct Sha256Access;
}

/// Incremental SHA-256 hasher.
class Sha256 {
public:
    Sha256();

    void reset();
    void update(BytesView data);
    [[nodiscard]] Hash32 finalize();

private:
    friend struct kernel::Sha256Access;
    using Blocks = void (*)(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t count);
    explicit Sha256(Blocks blocks) : blocks_(blocks) { reset(); }

    Blocks blocks_;
    std::uint32_t state_[8]{};
    std::uint8_t buffer_[64]{};
    std::size_t buffered_ = 0;
    std::uint64_t total_bits_ = 0;
};

/// One-shot convenience wrapper.
[[nodiscard]] Hash32 sha256(BytesView data);

/// Name of the block function cpuid picked for this host: "sha-ni" or
/// "scalar".
[[nodiscard]] const char* sha256_kernel_name();

}  // namespace bcfl::crypto
