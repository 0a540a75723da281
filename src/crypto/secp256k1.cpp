#include "crypto/secp256k1.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>

#include "common/error.hpp"
#include "crypto/keccak.hpp"
#include "crypto/sha256.hpp"

namespace bcfl::crypto {

namespace {

using u128 = unsigned __int128;

// p = 2^256 - 2^32 - 977 = 2^256 - kComplement, so a multiple of 2^256
// folds back in as the same multiple of kComplement.
constexpr std::uint64_t kComplement = 0x1000003d1ull;  // 2^32 + 977

const U256 kPrime{0xffffffffffffffffull, 0xffffffffffffffffull,
                  0xffffffffffffffffull, 0xfffffffefffffc2full};
const U256 kOrder{0xffffffffffffffffull, 0xfffffffffffffffeull,
                  0xbaaedce6af48a03bull, 0xbfd25e8cd0364141ull};
const U256 kGx{0x79be667ef9dcbbacull, 0x55a06295ce870b07ull,
               0x029bfcdb2dce28d9ull, 0x59f2815b16f81798ull};
const U256 kGy{0x483ada7726a3c465ull, 0x5da4fbfc0e1108a8ull,
               0xfd17b448a6855419ull, 0x9c47d08ffb10d4b8ull};

// ------------------------------------------------------------------ field
//
// Arithmetic mod p on U256 values below p (mul, sqr and mul_small accept
// any 256-bit input). The limbs live in scalar locals, not arrays, so GCC
// keeps them in registers instead of spilling them for the vectorizer, and
// everything is inline so the group formulas compile to straight-line code.
// Carries go through 128-bit sums: carries written as 64-bit compares
// (`sum < a`) compile to fewer instructions, but GCC turns some of them
// into branches on the data, which miss on every new key and signature.
namespace fp {

/// a·b + c + carry: returns the low limb and leaves the high limb in carry.
inline std::uint64_t mac(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                         std::uint64_t& carry) {
    const u128 t = static_cast<u128>(a) * b + c + carry;
    carry = static_cast<std::uint64_t>(t >> 64);
    return static_cast<std::uint64_t>(t);
}

/// a + b + carry: returns the low limb and leaves the carry bit in carry.
inline std::uint64_t adc(std::uint64_t a, std::uint64_t b,
                         std::uint64_t& carry) {
    const u128 t = static_cast<u128>(a) + b + carry;
    carry = static_cast<std::uint64_t>(t >> 64);
    return static_cast<std::uint64_t>(t);
}

/// a - b - borrow: returns the low limb and leaves the borrow bit in borrow.
inline std::uint64_t sbb(std::uint64_t a, std::uint64_t b,
                         std::uint64_t& borrow) {
    const u128 t = static_cast<u128>(a) - b - borrow;
    borrow = static_cast<std::uint64_t>(t >> 64) & 1;
    return static_cast<std::uint64_t>(t);
}

/// (r + top·2^256) mod p for top < 2^35: fold the carry limb, then one
/// conditional subtraction.
inline U256 fold(std::uint64_t r0, std::uint64_t r1, std::uint64_t r2,
                 std::uint64_t r3, std::uint64_t top) {
    std::uint64_t carry = 0;
    r0 = mac(top, kComplement, r0, carry);
    r1 = adc(r1, 0, carry);
    r2 = adc(r2, 0, carry);
    r3 = adc(r3, 0, carry);
    if (carry != 0) {
        // The sum passed 2^256 by less than 2^68, so r is that small and
        // one more kComplement carries at most into r1.
        carry = 0;
        r0 = adc(r0, kComplement, carry);
        r1 += carry;
    }
    // r < 2^256 = p + kComplement, so r >= p means r1..r3 are all ones
    // and r - p fits in r0.
    if ((r1 & r2 & r3) == ~0ull && r0 >= kPrime.limb[0]) {
        return U256{r0 - kPrime.limb[0]};
    }
    return U256{r3, r2, r1, r0};
}

/// t mod p for the 512-bit t = t0 + t1·2^64 + ... + t7·2^448: fold the
/// high half, since t_hi·2^256 ≡ t_hi·kComplement, then fold the carry.
inline U256 reduce(std::uint64_t t0, std::uint64_t t1, std::uint64_t t2,
                   std::uint64_t t3, std::uint64_t t4, std::uint64_t t5,
                   std::uint64_t t6, std::uint64_t t7) {
    std::uint64_t carry = 0;
    t0 = mac(t4, kComplement, t0, carry);
    t1 = mac(t5, kComplement, t1, carry);
    t2 = mac(t6, kComplement, t2, carry);
    t3 = mac(t7, kComplement, t3, carry);
    return fold(t0, t1, t2, t3, carry);
}

/// a·b mod p: the 16 limb products row by row, then reduce.
inline U256 mul(const U256& a, const U256& b) {
    const std::uint64_t a0 = a.limb[0], a1 = a.limb[1], a2 = a.limb[2],
                        a3 = a.limb[3];
    const std::uint64_t b0 = b.limb[0], b1 = b.limb[1], b2 = b.limb[2],
                        b3 = b.limb[3];
    std::uint64_t c = 0;
    const std::uint64_t t0 = mac(a0, b0, 0, c);
    std::uint64_t t1 = mac(a0, b1, 0, c);
    std::uint64_t t2 = mac(a0, b2, 0, c);
    std::uint64_t t3 = mac(a0, b3, 0, c);
    std::uint64_t t4 = c;
    c = 0;
    t1 = mac(a1, b0, t1, c);
    t2 = mac(a1, b1, t2, c);
    t3 = mac(a1, b2, t3, c);
    t4 = mac(a1, b3, t4, c);
    std::uint64_t t5 = c;
    c = 0;
    t2 = mac(a2, b0, t2, c);
    t3 = mac(a2, b1, t3, c);
    t4 = mac(a2, b2, t4, c);
    t5 = mac(a2, b3, t5, c);
    std::uint64_t t6 = c;
    c = 0;
    t3 = mac(a3, b0, t3, c);
    t4 = mac(a3, b1, t4, c);
    t5 = mac(a3, b2, t5, c);
    t6 = mac(a3, b3, t6, c);
    return reduce(t0, t1, t2, t3, t4, t5, t6, c);
}

/// a^2 mod p: the six cross products once, doubled, plus the four squares.
inline U256 sqr(const U256& a) {
    const std::uint64_t a0 = a.limb[0], a1 = a.limb[1], a2 = a.limb[2],
                        a3 = a.limb[3];
    std::uint64_t c = 0;
    std::uint64_t t1 = mac(a0, a1, 0, c);
    std::uint64_t t2 = mac(a0, a2, 0, c);
    std::uint64_t t3 = mac(a0, a3, 0, c);
    std::uint64_t t4 = c;
    c = 0;
    t3 = mac(a1, a2, t3, c);
    t4 = mac(a1, a3, t4, c);
    std::uint64_t t5 = c;
    c = 0;
    t5 = mac(a2, a3, t5, c);
    std::uint64_t t6 = c;
    std::uint64_t t7 = t6 >> 63;
    t6 = (t6 << 1) | (t5 >> 63);
    t5 = (t5 << 1) | (t4 >> 63);
    t4 = (t4 << 1) | (t3 >> 63);
    t3 = (t3 << 1) | (t2 >> 63);
    t2 = (t2 << 1) | (t1 >> 63);
    t1 <<= 1;
    std::uint64_t high = 0;
    const std::uint64_t t0 = mac(a0, a0, 0, high);
    c = 0;
    t1 = adc(t1, high, c);
    high = 0;
    t2 = adc(t2, mac(a1, a1, 0, high), c);
    t3 = adc(t3, high, c);
    high = 0;
    t4 = adc(t4, mac(a2, a2, 0, high), c);
    t5 = adc(t5, high, c);
    high = 0;
    t6 = adc(t6, mac(a3, a3, 0, high), c);
    t7 = adc(t7, high, c);
    return reduce(t0, t1, t2, t3, t4, t5, t6, t7);
}

/// a^(2^n) mod p.
inline U256 sqr_n(U256 a, int n) {
    for (int i = 0; i < n; ++i) a = sqr(a);
    return a;
}

/// k·a mod p for a small k (2, 3, 4, 8): one row of limb products, folded.
inline U256 mul_small(const U256& a, std::uint64_t k) {
    std::uint64_t c = 0;
    const std::uint64_t r0 = mac(a.limb[0], k, 0, c);
    const std::uint64_t r1 = mac(a.limb[1], k, 0, c);
    const std::uint64_t r2 = mac(a.limb[2], k, 0, c);
    const std::uint64_t r3 = mac(a.limb[3], k, 0, c);
    return fold(r0, r1, r2, r3, c);
}

/// a + b, or a + b - p = a + b + kComplement - 2^256 when either sum
/// carries out of 2^256; add_mod(a, b, p) bit for bit, on any input. The
/// choice is a mask, not a branch the predictor would miss half the time.
inline U256 add(const U256& a, const U256& b) {
    std::uint64_t carry = 0;
    const std::uint64_t s0 = adc(a.limb[0], b.limb[0], carry);
    const std::uint64_t s1 = adc(a.limb[1], b.limb[1], carry);
    const std::uint64_t s2 = adc(a.limb[2], b.limb[2], carry);
    const std::uint64_t s3 = adc(a.limb[3], b.limb[3], carry);
    std::uint64_t wrap = 0;
    const std::uint64_t w0 = adc(s0, kComplement, wrap);
    const std::uint64_t w1 = adc(s1, 0, wrap);
    const std::uint64_t w2 = adc(s2, 0, wrap);
    const std::uint64_t w3 = adc(s3, 0, wrap);
    const std::uint64_t take = 0 - (carry | wrap);
    return U256{(w3 & take) | (s3 & ~take), (w2 & take) | (s2 & ~take),
                (w1 & take) | (s1 & ~take), (w0 & take) | (s0 & ~take)};
}

/// a - b, plus p (that is, minus kComplement mod 2^256) on a borrow;
/// sub_mod(a, b, p) bit for bit, on any input.
inline U256 sub(const U256& a, const U256& b) {
    std::uint64_t borrow = 0;
    std::uint64_t d0 = sbb(a.limb[0], b.limb[0], borrow);
    std::uint64_t d1 = sbb(a.limb[1], b.limb[1], borrow);
    std::uint64_t d2 = sbb(a.limb[2], b.limb[2], borrow);
    std::uint64_t d3 = sbb(a.limb[3], b.limb[3], borrow);
    const std::uint64_t fix = kComplement & (0 - borrow);
    borrow = 0;
    d0 = sbb(d0, fix, borrow);
    d1 = sbb(d1, 0, borrow);
    d2 = sbb(d2, 0, borrow);
    d3 = sbb(d3, 0, borrow);
    return U256{d3, d2, d1, d0};
}

inline U256 neg(const U256& a) { return fp::sub(U256{}, a); }

/// a mod p for any 256-bit a (a coordinate read off the wire).
inline U256 reduce(const U256& a) {
    return fold(a.limb[0], a.limb[1], a.limb[2], a.limb[3], 0);
}

/// a^(p-2) = a^-1 (Fermat). From the top, p - 2 is 223 ones, a zero,
/// 22 ones, 0000, 1, 0, 11, 0, 1. Build a^(2^k - 1) for the run lengths,
/// then splice the runs: 255 squarings and 15 multiplications. (Calls
/// within fp are qualified: U256's mul, add and sub would also match.)
U256 inv(const U256& a) {
    const U256 x2 = fp::mul(sqr(a), a);
    const U256 x3 = fp::mul(sqr(x2), a);
    const U256 x6 = fp::mul(sqr_n(x3, 3), x3);
    const U256 x9 = fp::mul(sqr_n(x6, 3), x3);
    const U256 x11 = fp::mul(sqr_n(x9, 2), x2);
    const U256 x22 = fp::mul(sqr_n(x11, 11), x11);
    const U256 x44 = fp::mul(sqr_n(x22, 22), x22);
    const U256 x88 = fp::mul(sqr_n(x44, 44), x44);
    const U256 x176 = fp::mul(sqr_n(x88, 88), x88);
    const U256 x220 = fp::mul(sqr_n(x176, 44), x44);
    const U256 x223 = fp::mul(sqr_n(x220, 3), x3);
    U256 r = fp::mul(sqr_n(x223, 23), x22);
    r = fp::mul(sqr_n(r, 5), a);
    r = fp::mul(sqr_n(r, 3), x2);
    return fp::mul(sqr_n(r, 2), a);
}

}  // namespace fp

/// v mod n with one conditional subtraction: every 256-bit value is
/// below 2n.
U256 mod_order(const U256& v) { return v >= kOrder ? sub(v, kOrder) : v; }

// ------------------------------------------------------------------ group

/// Jacobian point: x = X/Z^2, y = Y/Z^3, each coordinate reduced mod p.
/// Z == 0 encodes infinity.
struct Jacobian {
    U256 x;
    U256 y;
    U256 z;

    [[nodiscard]] bool is_infinity() const { return z.is_zero(); }
};

constexpr Jacobian kInfinity{U256{1}, U256{1}, U256{}};

Jacobian to_jacobian(const Point& p) {
    if (p.infinity) return kInfinity;
    return Jacobian{fp::reduce(p.x), fp::reduce(p.y), U256{1}};
}

Point to_affine(const Jacobian& p) {
    if (p.is_infinity()) return Point{};
    const U256 zinv = fp::inv(p.z);
    const U256 zinv2 = fp::sqr(zinv);
    return Point{fp::mul(p.x, zinv2), fp::mul(p.y, fp::mul(zinv2, zinv)),
                 false};
}

/// 2·p on y^2 = x^3 + 7 (a = 0): 3M + 4S. Z' = 2·Y·Z, so infinity and a
/// point with Y = 0 both double to Z' = 0, infinity.
Jacobian dbl(const Jacobian& p) {
    const U256 y2 = fp::sqr(p.y);
    const U256 s = fp::mul_small(fp::mul(p.x, y2), 4);
    const U256 m = fp::mul_small(fp::sqr(p.x), 3);
    const U256 x = fp::sub(fp::sqr(m), fp::mul_small(s, 2));
    const U256 y =
        fp::sub(fp::mul(m, fp::sub(s, x)), fp::mul_small(fp::sqr(y2), 8));
    return Jacobian{x, y, fp::mul_small(fp::mul(p.y, p.z), 2)};
}

/// p + q from the addition's products U1 = X1·Z2^2, S1 = Y1·Z2^3,
/// U2 = X2·Z1^2, S2 = Y2·Z1^3 and Z1·Z2. Equal U means q = ±p: the sum is
/// then 2·p, or infinity when the S differ.
Jacobian add_from(const Jacobian& p, const U256& u1, const U256& s1,
                  const U256& u2, const U256& s2, const U256& z1z2) {
    const U256 h = fp::sub(u2, u1);
    const U256 r = fp::sub(s2, s1);
    if (h.is_zero()) return r.is_zero() ? dbl(p) : kInfinity;
    const U256 h2 = fp::sqr(h);
    const U256 h3 = fp::mul(h2, h);
    const U256 u1h2 = fp::mul(u1, h2);
    const U256 x = fp::sub(fp::sub(fp::sqr(r), h3), fp::mul_small(u1h2, 2));
    const U256 y = fp::sub(fp::mul(r, fp::sub(u1h2, x)), fp::mul(s1, h3));
    return Jacobian{x, y, fp::mul(h, z1z2)};
}

/// p + q, both Jacobian: 12M + 4S.
Jacobian add(const Jacobian& p, const Jacobian& q) {
    if (p.is_infinity()) return q;
    if (q.is_infinity()) return p;
    const U256 z1z1 = fp::sqr(p.z);
    const U256 z2z2 = fp::sqr(q.z);
    return add_from(p, fp::mul(p.x, z2z2), fp::mul(p.y, fp::mul(q.z, z2z2)),
                    fp::mul(q.x, z1z1), fp::mul(q.y, fp::mul(p.z, z1z1)),
                    fp::mul(p.z, q.z));
}

/// p + q for an affine q with reduced coordinates (a table entry, never
/// infinity): Z2 = 1, so 8M + 3S.
Jacobian add_affine(const Jacobian& p, const Point& q) {
    if (p.is_infinity()) return Jacobian{q.x, q.y, U256{1}};
    const U256 z1z1 = fp::sqr(p.z);
    return add_from(p, p.x, p.y, fp::mul(q.x, z1z1),
                    fp::mul(q.y, fp::mul(p.z, z1z1)), p.z);
}

// ------------------------------------------------ joint multiplication

constexpr int kWindowG = 8;  // G's table: 2^(8-2) = 64 odd multiples
constexpr int kWindowP = 5;  // P's table: 2^(5-2) = 8 odd multiples
constexpr std::size_t kTableG = std::size_t{1} << (kWindowG - 2);
constexpr std::size_t kTableP = std::size_t{1} << (kWindowP - 2);

/// Width-w NAF of a scalar, least significant digit first: every digit is
/// zero or odd with |d| < 2^(w-1), nonzero digits sit at least w apart, and
/// k = Σ digit[i]·2^i. A 256-bit k can carry into digit 256.
struct Wnaf {
    std::array<std::int8_t, 257> digit{};
    int length = 0;  // one past the top nonzero digit
};

/// Bits i, i+1, ... of k (zero past bit 255), lowest first.
std::uint64_t bits_from(const U256& k, int i) {
    if (i >= 256) return 0;
    const int limb = i / 64;
    const int shift = i % 64;
    std::uint64_t bits = k.limb[limb] >> shift;
    if (shift != 0 && limb < 3) bits |= k.limb[limb + 1] << (64 - shift);
    return bits;
}

Wnaf wnaf(const U256& k, int w) {
    Wnaf out;
    // carry = 1 when the digits so far exceed the bits so far by 2^i,
    // after a negative digit.
    int carry = 0;
    for (int i = 0; i < static_cast<int>(out.digit.size());) {
        const std::uint64_t bits = bits_from(k, i);
        if (static_cast<int>(bits & 1) == carry) {  // bit i + carry is even
            ++i;
            continue;
        }
        int word = static_cast<int>(bits & ((1u << w) - 1)) + carry;
        carry = word >> (w - 1);  // words >= 2^(w-1) take a negative digit
        word -= carry << w;
        out.digit[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(word);
        out.length = i + 1;
        i += w;
    }
    return out;
}

/// G, 3G, ..., 127G in affine coordinates, built once on first use (the
/// function-local static makes concurrent first callers wait for it).
const std::array<Point, kTableG>& g_table() {
    static const std::array<Point, kTableG> table = [] {
        std::array<Point, kTableG> odd{};
        const Jacobian g = to_jacobian(generator());
        const Jacobian twice = dbl(g);
        Jacobian multiple = g;
        for (Point& entry : odd) {
            entry = to_affine(multiple);
            multiple = add(multiple, twice);
        }
        return odd;
    }();
    return table;
}

/// a·G + b·P in one Strauss–Shamir pass over the wNAF digits of a and b:
/// one doubling per digit position, shared by both scalars, and at each
/// nonzero digit a mixed addition from the static G table or a Jacobian
/// one from P's per-call table of odd multiples.
Jacobian mul_add(const U256& a, const U256& b, const Point& p) {
    const Wnaf na = wnaf(a, kWindowG);
    const Wnaf nb = p.infinity ? Wnaf{} : wnaf(b, kWindowP);
    std::array<Jacobian, kTableP> p_table{};  // P, 3P, ..., 15P
    if (nb.length > 0) {
        p_table[0] = to_jacobian(p);
        const Jacobian twice = dbl(p_table[0]);
        for (std::size_t i = 1; i < kTableP; ++i) {
            p_table[i] = add(p_table[i - 1], twice);
        }
    }
    const std::array<Point, kTableG>& g_odd = g_table();
    Jacobian acc = kInfinity;
    for (int i = std::max(na.length, nb.length) - 1; i >= 0; --i) {
        acc = dbl(acc);
        const auto index = static_cast<std::size_t>(i);
        // Digit d adds the table entry |d|·Q = table[|d| / 2], negated
        // when d < 0.
        if (const int d = na.digit[index]; d != 0) {
            const Point& q = g_odd[static_cast<std::size_t>(std::abs(d) / 2)];
            acc = add_affine(acc, d > 0 ? q : Point{q.x, fp::neg(q.y), false});
        }
        if (const int d = nb.digit[index]; d != 0) {
            const Jacobian& q =
                p_table[static_cast<std::size_t>(std::abs(d) / 2)];
            acc = add(acc, d > 0 ? q : Jacobian{q.x, fp::neg(q.y), q.z});
        }
    }
    return acc;
}

/// k·G, affine.
Point mul_g(const U256& k) { return to_affine(mul_add(k, U256{}, Point{})); }

U256 scalar_from_hash(const Hash32& h) {
    const U256 reduced = mod_order(U256::from_hash(h));
    return reduced.is_zero() ? U256{1} : reduced;
}

Hash32 challenge(const Point& r, const Point& pub, BytesView head,
                 BytesView body) {
    Sha256 hasher;
    hasher.update(r.x.to_hash().view());
    hasher.update(r.y.to_hash().view());
    hasher.update(pub.x.to_hash().view());
    hasher.update(pub.y.to_hash().view());
    hasher.update(head);
    hasher.update(body);
    return hasher.finalize();
}

}  // namespace

const U256& field_prime() { return kPrime; }
const U256& group_order() { return kOrder; }
const Point& generator() {
    static const Point g{kGx, kGy, false};
    return g;
}

U256 fe_mul(const U256& a, const U256& b) { return fp::mul(a, b); }
U256 fe_add(const U256& a, const U256& b) { return fp::add(a, b); }
U256 fe_sub(const U256& a, const U256& b) { return fp::sub(a, b); }
U256 fe_inv(const U256& a) { return fp::inv(a); }

Point point_add(const Point& a, const Point& b) {
    return to_affine(add(to_jacobian(a), to_jacobian(b)));
}

Point point_double(const Point& a) {
    return to_affine(dbl(to_jacobian(a)));
}

Point scalar_mul(const U256& k, const Point& p) {
    return to_affine(mul_add(U256{}, k, p));
}

Point joint_mul(const U256& a, const U256& b, const Point& p) {
    return to_affine(mul_add(a, b, p));
}

std::span<const Point> generator_multiples() { return g_table(); }

bool on_curve(const Point& p) {
    if (p.infinity) return true;
    const U256 lhs = fp::sqr(p.y);
    const U256 rhs = fp::add(fp::mul(fp::sqr(p.x), p.x), U256{7});
    return lhs == rhs;
}

Bytes Signature::serialize() const {
    Bytes out;
    out.reserve(96);
    append(out, rx.to_hash().view());
    append(out, ry.to_hash().view());
    append(out, s.to_hash().view());
    return out;
}

Signature Signature::deserialize(BytesView data) {
    if (data.size() != 96) throw DecodeError("signature must be 96 bytes");
    Signature sig;
    sig.rx = U256::from_be_bytes(data.subspan(0, 32));
    sig.ry = U256::from_be_bytes(data.subspan(32, 32));
    sig.s = U256::from_be_bytes(data.subspan(64, 32));
    return sig;
}

KeyPair KeyPair::from_seed(std::uint64_t seed) {
    Bytes seed_bytes = be_bytes(seed);
    Bytes tagged = str_bytes("bcfl-keypair-v1:");
    append(tagged, seed_bytes);
    return from_secret(U256::from_hash(sha256(tagged)));
}

KeyPair KeyPair::from_secret(const U256& secret) {
    U256 sk = mod_order(secret);
    if (sk.is_zero()) sk = U256{1};
    return KeyPair{sk, mul_g(sk)};
}

Address KeyPair::address() const { return to_address(public_); }

Signature KeyPair::sign(BytesView message) const {
    return sign(message, BytesView{});
}

Signature KeyPair::sign(BytesView head, BytesView body) const {
    // Deterministic nonce: k = H(sk || msg) mod n (RFC6979 in spirit).
    Sha256 nonce_hasher;
    nonce_hasher.update(secret_.to_hash().view());
    nonce_hasher.update(head);
    nonce_hasher.update(body);
    const U256 k = scalar_from_hash(nonce_hasher.finalize());

    const Point r = mul_g(k);
    const U256 e = scalar_from_hash(challenge(r, public_, head, body));
    const U256 s = add_mod(k, mul_mod(e, secret_, kOrder), kOrder);
    return Signature{r.x, r.y, s};
}

bool verify(const Point& pub, BytesView message, const Signature& sig) {
    return verify(pub, message, BytesView{}, sig);
}

bool verify(const Point& pub, BytesView head, BytesView body,
            const Signature& sig) {
    if (pub.infinity || !on_curve(pub)) return false;
    const Point r{sig.rx, sig.ry, false};
    if (!on_curve(r)) return false;
    if (sig.s >= kOrder) return false;

    const U256 e = scalar_from_hash(challenge(r, pub, head, body));
    // Check s·G - e·P == R in Jacobian coordinates: X == rx·Z^2 and
    // Y == ry·Z^3 (fp::mul reduces rx and ry mod p), so no inversion.
    const Jacobian q = mul_add(sig.s, sub(kOrder, e), pub);
    if (q.is_infinity()) return false;
    const U256 z2 = fp::sqr(q.z);
    return q.x == fp::mul(r.x, z2) && q.y == fp::mul(r.y, fp::mul(z2, q.z));
}

Address to_address(const Point& pub) {
    Bytes encoded;
    encoded.reserve(64);
    append(encoded, pub.x.to_hash().view());
    append(encoded, pub.y.to_hash().view());
    const Hash32 digest = keccak256(encoded);
    return Address::from(BytesView{digest.data.data() + 12, 20});
}

}  // namespace bcfl::crypto
