// The original secp256k1 group arithmetic and Schnorr code, kept verbatim
// as the reference that crypto_test and fuzz/fuzz_sig.cpp compare the
// production code against: separate right-to-left double-and-add
// multiplications, full Jacobian additions and square-and-multiply
// inversions, with no wNAF, no tables and no curve-specific shortcuts
// beyond the reduction.
//
// The function bodies are unchanged. They are static members of a struct so
// that calls inside resolve to the reference and not, by argument-dependent
// lookup on U256 and Point, to the production functions of the same names.
// KeyPair's members become functions of an explicit `Keys` value.
#pragma once

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "crypto/keccak.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "crypto/u256.hpp"

namespace bcfl::crypto {

struct Secp256k1Reference {

using u128 = unsigned __int128;

// p = 2^256 - 2^32 - 977 = 2^256 - kComplement.
static constexpr std::uint64_t kComplement = 0x1000003d1ull;  // 2^32 + 977

static inline const U256 kPrime{0xffffffffffffffffull, 0xffffffffffffffffull,
                  0xffffffffffffffffull, 0xfffffffefffffc2full};
static inline const U256 kOrder{0xffffffffffffffffull, 0xfffffffffffffffeull,
                  0xbaaedce6af48a03bull, 0xbfd25e8cd0364141ull};
static inline const U256 kGx{0x79be667ef9dcbbacull, 0x55a06295ce870b07ull,
               0x029bfcdb2dce28d9ull, 0x59f2815b16f81798ull};
static inline const U256 kGy{0x483ada7726a3c465ull, 0x5da4fbfc0e1108a8ull,
               0xfd17b448a6855419ull, 0x9c47d08ffb10d4b8ull};

/// 5-limb accumulator for the fast reduction.
struct Acc {
    std::uint64_t limb[5]{};
};

/// out = a + b*kComplement where a is 4 limbs and b is 4 limbs.
static Acc mul_add_complement(const std::uint64_t lo[4], const std::uint64_t hi[4]) {
    Acc out;
    std::uint64_t carry = 0;
    for (int i = 0; i < 4; ++i) {
        const u128 cur =
            static_cast<u128>(hi[i]) * kComplement + lo[i] + carry;
        out.limb[i] = static_cast<std::uint64_t>(cur);
        carry = static_cast<std::uint64_t>(cur >> 64);
    }
    out.limb[4] = carry;
    return out;
}

/// Reduces a 512-bit product (8 limbs) modulo p using p = 2^256 - c.
static U256 reduce_p(const std::uint64_t t[8]) {
    // Round 1: fold the top 256 bits: t = lo + hi*c (fits in 5 limbs).
    const Acc r1 = mul_add_complement(t, t + 4);
    // Round 2: fold the 5th limb.
    std::uint64_t hi2[4] = {r1.limb[4], 0, 0, 0};
    const Acc r2 = mul_add_complement(r1.limb, hi2);
    U256 out;
    for (int i = 0; i < 4; ++i) out.limb[i] = r2.limb[i];
    // r2.limb[4] can be at most 1; fold once more.
    if (r2.limb[4] != 0) {
        U256 fold{kComplement};
        out = add(out, fold);  // cannot carry past 2^256 again
    }
    while (out >= kPrime) out = sub(out, kPrime);
    return out;
}

static void mul_full_limbs(const U256& a, const U256& b, std::uint64_t out[8]) {
    for (int i = 0; i < 8; ++i) out[i] = 0;
    for (int i = 0; i < 4; ++i) {
        std::uint64_t carry = 0;
        for (int j = 0; j < 4; ++j) {
            const u128 cur =
                static_cast<u128>(a.limb[i]) * b.limb[j] + out[i + j] + carry;
            out[i + j] = static_cast<std::uint64_t>(cur);
            carry = static_cast<std::uint64_t>(cur >> 64);
        }
        out[i + 4] = carry;
    }
}

/// Jacobian point: x = X/Z^2, y = Y/Z^3. Z == 0 encodes infinity.
struct Jacobian {
    U256 x;
    U256 y;
    U256 z;

    [[nodiscard]] bool is_infinity() const { return z.is_zero(); }
};

static Jacobian to_jacobian(const Point& p) {
    if (p.infinity) return Jacobian{U256{1}, U256{1}, U256{}};
    return Jacobian{p.x, p.y, U256{1}};
}

static Point to_affine(const Jacobian& p) {
    if (p.is_infinity()) return Point{};
    const U256 zinv = fe_inv(p.z);
    const U256 zinv2 = fe_mul(zinv, zinv);
    const U256 zinv3 = fe_mul(zinv2, zinv);
    return Point{fe_mul(p.x, zinv2), fe_mul(p.y, zinv3), false};
}

static Jacobian jac_double(const Jacobian& p) {
    if (p.is_infinity() || p.y.is_zero()) return Jacobian{U256{1}, U256{1}, U256{}};
    const U256 y2 = fe_mul(p.y, p.y);
    const U256 s = fe_mul(U256{4}, fe_mul(p.x, y2));
    const U256 m = fe_mul(U256{3}, fe_mul(p.x, p.x));  // a == 0 on secp256k1
    const U256 x = fe_sub(fe_mul(m, m), fe_add(s, s));
    const U256 y4 = fe_mul(y2, y2);
    const U256 y = fe_sub(fe_mul(m, fe_sub(s, x)), fe_mul(U256{8}, y4));
    const U256 z = fe_mul(U256{2}, fe_mul(p.y, p.z));
    return Jacobian{x, y, z};
}

static Jacobian jac_add(const Jacobian& p, const Jacobian& q) {
    if (p.is_infinity()) return q;
    if (q.is_infinity()) return p;
    const U256 z1z1 = fe_mul(p.z, p.z);
    const U256 z2z2 = fe_mul(q.z, q.z);
    const U256 u1 = fe_mul(p.x, z2z2);
    const U256 u2 = fe_mul(q.x, z1z1);
    const U256 s1 = fe_mul(p.y, fe_mul(q.z, z2z2));
    const U256 s2 = fe_mul(q.y, fe_mul(p.z, z1z1));
    if (u1 == u2) {
        if (s1 == s2) return jac_double(p);
        return Jacobian{U256{1}, U256{1}, U256{}};  // P + (-P) = infinity
    }
    const U256 h = fe_sub(u2, u1);
    const U256 h2 = fe_mul(h, h);
    const U256 h3 = fe_mul(h2, h);
    const U256 r = fe_sub(s2, s1);
    const U256 u1h2 = fe_mul(u1, h2);
    U256 x = fe_sub(fe_mul(r, r), h3);
    x = fe_sub(x, fe_add(u1h2, u1h2));
    const U256 y = fe_sub(fe_mul(r, fe_sub(u1h2, x)), fe_mul(s1, h3));
    const U256 z = fe_mul(h, fe_mul(p.z, q.z));
    return Jacobian{x, y, z};
}

static U256 scalar_from_hash(const Hash32& h) {
    const U256 raw = U256::from_hash(h);
    const U256 reduced = divmod(raw, kOrder).remainder;
    return reduced.is_zero() ? U256{1} : reduced;
}

static Hash32 challenge(const Point& r, const Point& pub, BytesView message) {
    Sha256 hasher;
    hasher.update(r.x.to_hash().view());
    hasher.update(r.y.to_hash().view());
    hasher.update(pub.x.to_hash().view());
    hasher.update(pub.y.to_hash().view());
    hasher.update(message);
    return hasher.finalize();
}

static const Point& generator() {
    static const Point g{kGx, kGy, false};
    return g;
}

static U256 fe_mul(const U256& a, const U256& b) {
    std::uint64_t t[8];
    mul_full_limbs(a, b, t);
    return reduce_p(t);
}

static U256 fe_add(const U256& a, const U256& b) { return add_mod(a, b, kPrime); }
static U256 fe_sub(const U256& a, const U256& b) { return sub_mod(a, b, kPrime); }

static U256 fe_inv(const U256& a) {
    // Fermat: a^(p-2). Uses the fast fe_mul, so ~256 squarings + ~128 muls.
    U256 result{1};
    U256 acc = a;
    const U256 exponent = sub(kPrime, U256{2});
    const int bits = exponent.bit_length();
    for (int i = 0; i < bits; ++i) {
        if (exponent.bit(i)) result = fe_mul(result, acc);
        acc = fe_mul(acc, acc);
    }
    return result;
}

static Point point_add(const Point& a, const Point& b) {
    return to_affine(jac_add(to_jacobian(a), to_jacobian(b)));
}

static Point point_double(const Point& a) {
    return to_affine(jac_double(to_jacobian(a)));
}

static Point scalar_mul(const U256& k, const Point& p) {
    Jacobian result{U256{1}, U256{1}, U256{}};
    Jacobian base = to_jacobian(p);
    const int bits = k.bit_length();
    for (int i = 0; i < bits; ++i) {
        if (k.bit(i)) result = jac_add(result, base);
        base = jac_double(base);
    }
    return to_affine(result);
}

static bool on_curve(const Point& p) {
    if (p.infinity) return true;
    const U256 lhs = fe_mul(p.y, p.y);
    const U256 rhs = fe_add(fe_mul(fe_mul(p.x, p.x), p.x), U256{7});
    return lhs == rhs;
}

/// KeyPair's secret and public key.
struct Keys {
    U256 secret;
    Point pub;
};

static Keys from_secret(const U256& secret) {
    U256 sk = divmod(secret, kOrder).remainder;
    if (sk.is_zero()) sk = U256{1};
    Point pub = scalar_mul(sk, generator());
    return Keys{sk, pub};
}

static Signature sign(const Keys& keys, BytesView message) {
    const U256& secret_ = keys.secret;
    const Point& public_ = keys.pub;
    // Deterministic nonce: k = H(sk || msg) mod n (RFC6979 in spirit).
    Sha256 nonce_hasher;
    nonce_hasher.update(secret_.to_hash().view());
    nonce_hasher.update(message);
    const U256 k = scalar_from_hash(nonce_hasher.finalize());

    const Point r = scalar_mul(k, generator());
    const U256 e = scalar_from_hash(challenge(r, public_, message));
    const U256 s = add_mod(k, mul_mod(e, secret_, kOrder), kOrder);
    return Signature{r.x, r.y, s};
}

static bool verify(const Point& pub, BytesView message, const Signature& sig) {
    if (pub.infinity || !on_curve(pub)) return false;
    const Point r{sig.rx, sig.ry, false};
    if (!on_curve(r)) return false;
    if (sig.s >= kOrder) return false;

    const U256 e = scalar_from_hash(challenge(r, pub, message));
    // Check s*G == R + e*P.
    const Point lhs = scalar_mul(sig.s, generator());
    const Point rhs = point_add(r, scalar_mul(e, pub));
    return lhs == rhs;
}

static Address to_address(const Point& pub) {
    Bytes encoded;
    encoded.reserve(64);
    append(encoded, pub.x.to_hash().view());
    append(encoded, pub.y.to_hash().view());
    const Hash32 digest = keccak256(encoded);
    return Address::from(BytesView{digest.data.data() + 12, 20});
}

};

}  // namespace bcfl::crypto
