// Keccak-256 (the pre-NIST-padding variant used by Ethereum).
//
// Transaction hashes, block hashes, addresses, contract storage keys and the
// MiniEVM SHA3 opcode all go through this function, matching the role
// keccak256 plays in the paper's private-Ethereum deployment.
//
// The permutation is unrolled two rounds at a time and built twice, for
// baseline x86-64 and for BMI1/BMI2, one picked once by cpuid; both give the
// same digest bit for bit (crypto/hash_kernels.hpp).
#pragma once

#include "common/bytes.hpp"

namespace bcfl::crypto {

/// One-shot Keccak-256 (Ethereum-style 0x01 domain padding).
[[nodiscard]] Hash32 keccak256(BytesView data);

/// keccak256 over the concatenation of two buffers (avoids a copy at call
/// sites that hash `prefix || payload`).
[[nodiscard]] Hash32 keccak256(BytesView a, BytesView b);

/// Name of the keccak-f[1600] build cpuid picked for this host: "bmi2" or
/// "baseline".
[[nodiscard]] const char* keccak_kernel_name();

}  // namespace bcfl::crypto
