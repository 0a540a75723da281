// 256-bit unsigned integer arithmetic.
//
// This is the word type of the MiniEVM and the field/scalar element of the
// secp256k1 implementation. Little-endian limb order (limb[0] is least
// significant 64 bits).
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"

namespace bcfl::crypto {

struct U256 {
    std::uint64_t limb[4]{0, 0, 0, 0};

    constexpr U256() = default;
    constexpr U256(std::uint64_t v) : limb{v, 0, 0, 0} {}  // NOLINT(implicit)
    constexpr U256(std::uint64_t l3, std::uint64_t l2, std::uint64_t l1,
                   std::uint64_t l0)
        : limb{l0, l1, l2, l3} {}

    [[nodiscard]] bool operator==(const U256& other) const = default;
    [[nodiscard]] std::strong_ordering operator<=>(const U256& other) const {
        for (int i = 3; i >= 0; --i) {
            if (limb[i] != other.limb[i])
                return limb[i] < other.limb[i] ? std::strong_ordering::less
                                               : std::strong_ordering::greater;
        }
        return std::strong_ordering::equal;
    }

    [[nodiscard]] bool is_zero() const {
        return (limb[0] | limb[1] | limb[2] | limb[3]) == 0;
    }
    [[nodiscard]] bool bit(int index) const {
        return (limb[index >> 6] >> (index & 63)) & 1;
    }
    /// Number of significant bits (index of the highest set bit plus one),
    /// or 0 for zero.
    [[nodiscard]] int bit_length() const;

    [[nodiscard]] std::uint64_t low64() const { return limb[0]; }

    /// Big-endian 32-byte encoding (EVM word layout).
    [[nodiscard]] Hash32 to_hash() const;
    [[nodiscard]] Bytes to_be_bytes() const;
    static U256 from_be_bytes(BytesView data);  // accepts 1..32 bytes
    static U256 from_hash(const Hash32& h) { return from_be_bytes(h.view()); }

    [[nodiscard]] std::string hex() const;
};

// Arithmetic (mod 2^256, EVM semantics).
[[nodiscard]] U256 add(const U256& a, const U256& b);
[[nodiscard]] U256 sub(const U256& a, const U256& b);
[[nodiscard]] U256 mul(const U256& a, const U256& b);
/// Quotient and remainder; division by zero yields {0, 0} (EVM semantics).
struct DivMod {
    U256 quotient;
    U256 remainder;
};
[[nodiscard]] DivMod divmod(const U256& a, const U256& b);

// Bit ops.
[[nodiscard]] U256 bit_and(const U256& a, const U256& b);
[[nodiscard]] U256 bit_or(const U256& a, const U256& b);
[[nodiscard]] U256 bit_xor(const U256& a, const U256& b);
[[nodiscard]] U256 bit_not(const U256& a);
[[nodiscard]] U256 shl(const U256& a, unsigned shift);
[[nodiscard]] U256 shr(const U256& a, unsigned shift);

// Modular arithmetic (inputs must already be < modulus for add/sub).
[[nodiscard]] U256 add_mod(const U256& a, const U256& b, const U256& modulus);
[[nodiscard]] U256 sub_mod(const U256& a, const U256& b, const U256& modulus);
[[nodiscard]] U256 mul_mod(const U256& a, const U256& b, const U256& modulus);
[[nodiscard]] U256 pow_mod(const U256& base, const U256& exponent,
                           const U256& modulus);
/// Modular inverse via Fermat (modulus must be prime, a != 0).
[[nodiscard]] U256 inv_mod_prime(const U256& a, const U256& prime);

}  // namespace bcfl::crypto
