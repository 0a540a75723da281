// secp256k1 group arithmetic and Schnorr signatures.
//
// This provides the account layer of the chain: key pairs, Ethereum-style
// addresses (keccak256(pubkey)[12..]) and the signatures that give the paper
// its non-repudiation property — a participant cannot deny having published a
// model update once it is signed and mined.
//
// The signature scheme is Schnorr (BIP340-flavoured: deterministic nonce,
// binding challenge over R, P and the message) rather than ECDSA; it is
// simpler to implement correctly and offers the same provenance guarantee.
//
// A verify is one joint wNAF multiplication, s·G - e·P, compared with R in
// Jacobian coordinates, so it inverts nothing; signing and key derivation
// add from the same table of odd multiples of G, built once on first use.
// Sign and verify are variable-time: the threat model is non-repudiation,
// not side channels.
#pragma once

#include <span>

#include "common/bytes.hpp"
#include "crypto/u256.hpp"

namespace bcfl::crypto {

/// Affine curve point; `infinity == true` is the group identity.
struct Point {
    U256 x;
    U256 y;
    bool infinity = true;

    [[nodiscard]] bool operator==(const Point&) const = default;
};

/// Curve constants (y^2 = x^3 + 7 over F_p).
[[nodiscard]] const U256& field_prime();   // p
[[nodiscard]] const U256& group_order();   // n
[[nodiscard]] const Point& generator();    // G

/// Field arithmetic mod p, reduced with p = 2^256 - 0x1000003d1. fe_mul and
/// fe_inv take any 256-bit input and return a value below p. fe_add and
/// fe_sub equal add_mod and sub_mod with modulus p bit for bit, so inputs
/// below p give a result below p.
[[nodiscard]] U256 fe_mul(const U256& a, const U256& b);
[[nodiscard]] U256 fe_add(const U256& a, const U256& b);
[[nodiscard]] U256 fe_sub(const U256& a, const U256& b);
[[nodiscard]] U256 fe_inv(const U256& a);

/// Group operations (complete for our usage; inputs must be on-curve).
[[nodiscard]] Point point_add(const Point& a, const Point& b);
[[nodiscard]] Point point_double(const Point& a);
[[nodiscard]] Point scalar_mul(const U256& k, const Point& p);
[[nodiscard]] bool on_curve(const Point& p);

/// a·G + b·P in the one joint pass that `verify` runs (Strauss–Shamir over
/// wNAF digits), converted to affine.
[[nodiscard]] Point joint_mul(const U256& a, const U256& b, const Point& p);
/// The affine odd multiples G, 3G, ..., 127G that the joint pass adds from.
[[nodiscard]] std::span<const Point> generator_multiples();

struct Signature {
    U256 rx;  // R.x
    U256 ry;  // R.y
    U256 s;

    [[nodiscard]] bool operator==(const Signature&) const = default;
    [[nodiscard]] Bytes serialize() const;  // 96 bytes
    static Signature deserialize(BytesView data);
};

class KeyPair {
public:
    /// Derives a key pair deterministically from a seed (tests, simulation).
    static KeyPair from_seed(std::uint64_t seed);
    /// Derives from an explicit secret scalar (clamped into [1, n-1]).
    static KeyPair from_secret(const U256& secret);

    [[nodiscard]] const U256& secret() const { return secret_; }
    [[nodiscard]] const Point& public_key() const { return public_; }
    [[nodiscard]] Address address() const;

    /// Schnorr signature over an arbitrary message (hashed internally).
    [[nodiscard]] Signature sign(BytesView message) const;
    /// sign(head || body), hashed from the two parts without joining them.
    [[nodiscard]] Signature sign(BytesView head, BytesView body) const;

private:
    KeyPair(U256 secret, Point pub)
        : secret_(secret), public_(pub) {}

    U256 secret_;
    Point public_;
};

/// Verifies signature `sig` on `message` under public key `pub`.
[[nodiscard]] bool verify(const Point& pub, BytesView message,
                          const Signature& sig);
/// verify(pub, head || body, sig), without joining the two parts.
[[nodiscard]] bool verify(const Point& pub, BytesView head, BytesView body,
                          const Signature& sig);

/// Ethereum-style address of a public key.
[[nodiscard]] Address to_address(const Point& pub);

}  // namespace bcfl::crypto
