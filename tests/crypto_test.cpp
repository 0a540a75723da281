#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "core/parallel.hpp"
#include "crypto/hash_kernels.hpp"
#include "crypto/keccak.hpp"
#include "crypto/merkle.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "crypto/u256.hpp"
#include "hash_reference.hpp"
#include "secp256k1_reference.hpp"

namespace bcfl::crypto {
namespace {

using Ref = Secp256k1Reference;

const U256 kMaxU256 = bit_not(U256{});

U256 random_u256(std::uint64_t& state) {
    U256 out;
    for (std::uint64_t& limb : out.limb) limb = bcfl::splitmix64(state);
    return out;
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, KnownVectors) {
    EXPECT_EQ(sha256(BytesView{}).hex(),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256(str_bytes("abc")).hex(),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        sha256(str_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
            .hex(),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
    Sha256 hasher;
    const Bytes chunk(1000, static_cast<std::uint8_t>('a'));
    for (int i = 0; i < 1000; ++i) hasher.update(chunk);
    EXPECT_EQ(hasher.finalize().hex(),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
    const Bytes msg = str_bytes("the quick brown fox jumps over the lazy dog");
    for (std::size_t split = 0; split <= msg.size(); ++split) {
        Sha256 hasher;
        hasher.update(BytesView(msg).subspan(0, split));
        hasher.update(BytesView(msg).subspan(split));
        EXPECT_EQ(hasher.finalize(), sha256(msg)) << "split=" << split;
    }
    // An empty Bytes has a null data pointer; an update with it after a
    // partial block changes nothing (signing an empty message does this).
    Sha256 hasher;
    hasher.update(BytesView(msg).subspan(0, 10));
    hasher.update(Bytes{});
    hasher.update(BytesView(msg).subspan(10));
    EXPECT_EQ(hasher.finalize(), sha256(msg));
}

// -------------------------------------------------------------- Keccak-256

TEST(Keccak, KnownVectors) {
    // Ethereum's keccak256("") and keccak256("abc").
    EXPECT_EQ(keccak256(BytesView{}).hex(),
              "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
    EXPECT_EQ(keccak256(str_bytes("abc")).hex(),
              "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
    EXPECT_EQ(keccak256(str_bytes("The quick brown fox jumps over the lazy dog"))
                  .hex(),
              "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15");
}

TEST(Keccak, TwoPartMatchesConcatenation) {
    const Bytes a = str_bytes("hello ");
    const Bytes b = str_bytes("world");
    Bytes joined = a;
    append(joined, b);
    EXPECT_EQ(keccak256(a, b), keccak256(joined));
}

TEST(Keccak, LongInputCrossesRateBoundary) {
    // 136 bytes is exactly one rate block; check lengths around it.
    for (std::size_t n : {135u, 136u, 137u, 272u, 300u}) {
        const Bytes data(n, 0x5a);
        const Hash32 once = keccak256(data);
        const Hash32 split = keccak256(BytesView(data).subspan(0, n / 2),
                                       BytesView(data).subspan(n / 2));
        EXPECT_EQ(once, split) << n;
    }
}

// ---------------------------------------- hash kernels vs the reference
//
// Every compiled SHA-256 and keccak-f[1600] variant against the original
// code kept in tests/hash_reference.hpp: random data at every length
// 0..300 and at 2 MiB + 7 bytes, hashed in one piece and cut at random
// split points. A variant this host cannot run is skipped, not passed.

std::vector<std::size_t> differential_lengths() {
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
    lengths.push_back((2u << 20) + 7);
    return lengths;
}

Bytes random_bytes(std::size_t n, std::uint64_t& state) {
    Bytes out(n);
    for (std::uint8_t& byte : out) {
        byte = static_cast<std::uint8_t>(bcfl::splitmix64(state));
    }
    return out;
}

/// Up to eight random cut points in [0, size], ascending (repeats give
/// empty pieces).
std::vector<std::size_t> random_cuts(std::size_t size, std::uint64_t& state) {
    std::vector<std::size_t> cuts(1 + bcfl::splitmix64(state) % 8);
    for (std::size_t& cut : cuts) cut = bcfl::splitmix64(state) % (size + 1);
    std::sort(cuts.begin(), cuts.end());
    return cuts;
}

template <typename Fn>
const kernel::Variant<Fn>* find_variant(
    std::span<const kernel::Variant<Fn>> variants, std::string_view name) {
    for (const kernel::Variant<Fn>& variant : variants) {
        if (variant.name == name) return &variant;
    }
    return nullptr;
}

void expect_sha256_matches_reference(std::string_view name) {
    const auto* variant = find_variant(kernel::sha256_variants(), name);
    if (variant == nullptr || !variant->supported) {
        GTEST_SKIP() << "SHA-256 variant " << name
                     << " is not built for or not supported by this CPU";
    }
    std::uint64_t state = 0x5a256;
    for (const std::size_t n : differential_lengths()) {
        const Bytes data = random_bytes(n, state);
        const Hash32 want = Sha256Reference::sha256(data);

        Sha256 whole = kernel::Sha256Access::with(variant->fn);
        whole.update(data);
        EXPECT_EQ(whole.finalize(), want) << name << ", " << n << " bytes";

        // An empty Bytes (null data pointer) goes in first: a no-op.
        Sha256 pieces = kernel::Sha256Access::with(variant->fn);
        pieces.update(Bytes{});
        std::size_t from = 0;
        for (const std::size_t cut : random_cuts(n, state)) {
            pieces.update(BytesView(data).subspan(from, cut - from));
            from = cut;
        }
        pieces.update(BytesView(data).subspan(from));
        EXPECT_EQ(pieces.finalize(), want)
            << name << ", " << n << " bytes in pieces";
    }
}

void expect_keccak_matches_reference(std::string_view name) {
    const auto* variant = find_variant(kernel::keccak_variants(), name);
    if (variant == nullptr || !variant->supported) {
        GTEST_SKIP() << "keccak-f variant " << name
                     << " is not built for or not supported by this CPU";
    }
    std::uint64_t state = 0x5a3;
    for (const std::size_t n : differential_lengths()) {
        const Bytes data = random_bytes(n, state);
        const Hash32 want = KeccakReference::keccak256(data);
        EXPECT_EQ(kernel::keccak256_with(variant->fn, data, Bytes{}), want)
            << name << ", " << n << " bytes";
        EXPECT_EQ(kernel::keccak256_with(variant->fn, Bytes{}, data), want)
            << name << ", " << n << " bytes as the second part";
        const std::size_t cut = random_cuts(n, state).front();
        EXPECT_EQ(kernel::keccak256_with(variant->fn,
                                         BytesView(data).subspan(0, cut),
                                         BytesView(data).subspan(cut)),
                  want)
            << name << ", " << n << " bytes cut at " << cut;
    }
}

TEST(HashKernels, Sha256ScalarMatchesReference) {
    expect_sha256_matches_reference("scalar");
}

TEST(HashKernels, Sha256ShaNiMatchesReference) {
    expect_sha256_matches_reference("sha-ni");
}

TEST(HashKernels, KeccakBaselineMatchesReference) {
    expect_keccak_matches_reference("baseline");
}

TEST(HashKernels, KeccakBmi2MatchesReference) {
    expect_keccak_matches_reference("bmi2");
}

TEST(HashKernels, PublicHashesRunTheLastSupportedVariant) {
    const auto& sha = kernel::last_supported(kernel::sha256_variants());
    const auto& keccak = kernel::last_supported(kernel::keccak_variants());
    EXPECT_STREQ(sha256_kernel_name(), sha.name);
    EXPECT_STREQ(keccak_kernel_name(), keccak.name);
    EXPECT_TRUE(kernel::sha256_variants().front().supported);
    EXPECT_TRUE(kernel::keccak_variants().front().supported);
    const Bytes data = str_bytes("dispatched");
    EXPECT_EQ(sha256(data), Sha256Reference::sha256(data));
    EXPECT_EQ(keccak256(data), KeccakReference::keccak256(data));
}

// ------------------------------------------------------------------- U256

TEST(U256, BytesRoundTrip) {
    const U256 v{0x0102030405060708ull, 0x1112131415161718ull,
                 0x2122232425262728ull, 0x3132333435363738ull};
    EXPECT_EQ(U256::from_be_bytes(v.to_hash().view()), v);
    EXPECT_EQ(v.hex(),
              "0x0102030405060708111213141516171821222324252627283132333435363738");
}

TEST(U256, AddSubWrap) {
    const U256 max = bit_not(U256{});
    EXPECT_EQ(add(max, U256{1}), U256{});
    EXPECT_EQ(sub(U256{}, U256{1}), max);
    EXPECT_EQ(add(U256{3}, U256{4}), U256{7});
    EXPECT_EQ(sub(U256{7}, U256{4}), U256{3});
}

TEST(U256, MulBasics) {
    EXPECT_EQ(mul(U256{0xffffffffffffffffull}, U256{2}),
              U256(0, 0, 1, 0xfffffffffffffffeull));
    EXPECT_EQ(mul(U256{0}, U256{123}), U256{});
}

TEST(U256, DivMod) {
    const auto [q, r] = divmod(U256{100}, U256{7});
    EXPECT_EQ(q, U256{14});
    EXPECT_EQ(r, U256{2});
    // Division by zero yields zero (EVM convention).
    const auto z = divmod(U256{5}, U256{});
    EXPECT_EQ(z.quotient, U256{});
    EXPECT_EQ(z.remainder, U256{});
}

TEST(U256, DivModWide) {
    // (2^192) / (2^64) == 2^128.
    const U256 a(0, 1, 0, 0);
    const U256 b(0, 0, 1, 0);
    const auto [q, r] = divmod(a, b);
    EXPECT_EQ(q, U256(0, 0, 1, 0));
    EXPECT_TRUE(r.is_zero());
}

TEST(U256, MulDivIdentityProperty) {
    // For many pseudo-random pairs: a == (a/b)*b + a%b.
    std::uint64_t sm = 42;
    for (int i = 0; i < 200; ++i) {
        const U256 a(bcfl::splitmix64(sm), bcfl::splitmix64(sm), bcfl::splitmix64(sm),
                     bcfl::splitmix64(sm));
        const U256 b(0, bcfl::splitmix64(sm) % 3 == 0 ? 0 : bcfl::splitmix64(sm),
                     bcfl::splitmix64(sm), bcfl::splitmix64(sm) | 1);
        const auto [q, r] = divmod(a, b);
        EXPECT_EQ(add(mul(q, b), r), a);
        EXPECT_TRUE(r < b);
    }
}

TEST(U256, Shifts) {
    EXPECT_EQ(shl(U256{1}, 64), U256(0, 0, 1, 0));
    EXPECT_EQ(shr(U256(0, 0, 1, 0), 64), U256{1});
    EXPECT_EQ(shl(U256{1}, 255), U256(0x8000000000000000ull, 0, 0, 0));
    EXPECT_EQ(shl(U256{1}, 256), U256{});
    EXPECT_EQ(shr(U256{123}, 256), U256{});
    // shift by non-multiples of 64
    EXPECT_EQ(shl(U256{0xff}, 4), U256{0xff0});
    EXPECT_EQ(shr(U256{0xff0}, 4), U256{0xff});
}

TEST(U256, ModularOps) {
    const U256 m{101};
    EXPECT_EQ(add_mod(U256{100}, U256{5}, m), U256{4});
    EXPECT_EQ(sub_mod(U256{3}, U256{5}, m), U256{99});
    EXPECT_EQ(mul_mod(U256{50}, U256{51}, m), divmod(U256{2550}, m).remainder);
    // Fermat's little theorem: a^(p-1) == 1 mod p for prime p.
    EXPECT_EQ(pow_mod(U256{7}, U256{100}, m), U256{1});
    EXPECT_EQ(mul_mod(inv_mod_prime(U256{7}, m), U256{7}, m), U256{1});
}

TEST(U256, PowModLargeModulus) {
    const U256& p = field_prime();
    // Fermat on the secp256k1 field prime.
    EXPECT_EQ(pow_mod(U256{2}, sub(p, U256{1}), p), U256{1});
    const U256 x{123456789};
    EXPECT_EQ(mul_mod(inv_mod_prime(x, p), x, p), U256{1});
}

TEST(U256, BitLength) {
    EXPECT_EQ(U256{}.bit_length(), 0);
    EXPECT_EQ(U256{1}.bit_length(), 1);
    EXPECT_EQ(U256{0xff}.bit_length(), 8);
    EXPECT_EQ(U256(0x8000000000000000ull, 0, 0, 0).bit_length(), 256);
}

// -------------------------------------------------------------- secp256k1

// The table of odd multiples of G is process-wide state built on first use,
// and grid workers sign and verify at once. This suite comes first among
// the curve tests, so its workers are the ones that race to build the
// table; the CI tsan job runs it at BCFL_THREADS=8.
TEST(Secp256k1Threads, SignAndVerifyConcurrently) {
    constexpr std::size_t kSigners = 300;
    struct Outcome {
        Signature sig;
        bool honest = false;
        bool tampered = true;
    };
    const auto sign_and_verify = [](std::size_t i) {
        const KeyPair kp = KeyPair::from_seed(1000 + i);
        const Bytes msg = str_bytes("concurrent update " + std::to_string(i));
        Outcome out;
        out.sig = kp.sign(msg);
        out.honest = verify(kp.public_key(), msg, out.sig);
        out.tampered = verify(kp.public_key(), str_bytes("tampered"), out.sig);
        return out;
    };
    const std::vector<Outcome> outcomes =
        core::parallel::ordered_map<Outcome>(kSigners, sign_and_verify);
    for (std::size_t i = 0; i < kSigners; i += 10) {
        EXPECT_EQ(outcomes[i].sig, sign_and_verify(i).sig) << i;
    }
    for (const Outcome& out : outcomes) {
        EXPECT_TRUE(out.honest);
        EXPECT_FALSE(out.tampered);
    }
}

TEST(Secp256k1, GeneratorOnCurve) {
    EXPECT_TRUE(on_curve(generator()));
}

TEST(Secp256k1, FieldMulMatchesGeneric) {
    std::uint64_t sm = 7;
    for (int i = 0; i < 100; ++i) {
        const U256 a(bcfl::splitmix64(sm), bcfl::splitmix64(sm), bcfl::splitmix64(sm),
                     bcfl::splitmix64(sm));
        const U256 b(bcfl::splitmix64(sm), bcfl::splitmix64(sm), bcfl::splitmix64(sm),
                     bcfl::splitmix64(sm));
        EXPECT_EQ(fe_mul(a, b), mul_mod(a, b, field_prime()));
    }
}

TEST(Secp256k1, GroupLaws) {
    const Point g = generator();
    const Point g2 = point_double(g);
    const Point g3a = point_add(g2, g);
    const Point g3b = point_add(g, g2);
    EXPECT_TRUE(on_curve(g2));
    EXPECT_EQ(g3a, g3b);  // commutativity
    EXPECT_EQ(scalar_mul(U256{3}, g), g3a);
    // (2+3)G == 2G + 3G
    EXPECT_EQ(scalar_mul(U256{5}, g), point_add(g2, g3a));
}

TEST(Secp256k1, OrderAnnihilatesGenerator) {
    const Point result = scalar_mul(group_order(), generator());
    EXPECT_TRUE(result.infinity);
}

TEST(Secp256k1, KnownMultiple) {
    // 2G has a well-known x coordinate.
    const Point g2 = point_double(generator());
    EXPECT_EQ(g2.x.hex(),
              "0xc6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
    EXPECT_EQ(g2.y.hex(),
              "0x1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

// ------------------------------------- secp256k1 against the reference

/// 0, 1, p-1, p and 2^256-1: both ends of the reduced range and the
/// unreduced values a coordinate read off the wire can carry.
std::vector<U256> field_edges() {
    const U256& p = field_prime();
    return {U256{}, U256{1}, sub(p, U256{1}), p, kMaxU256};
}

TEST(Secp256k1, FieldOpsMatchGenericModOps) {
    const U256& p = field_prime();
    std::vector<U256> values = field_edges();
    values.reserve(values.size() + 24);
    std::uint64_t sm = 11;
    for (int i = 0; i < 12; ++i) values.push_back(random_u256(sm));
    for (int i = 0; i < 12; ++i) {
        values.push_back(divmod(random_u256(sm), p).remainder);
    }
    for (const U256& a : values) {
        for (const U256& b : values) {
            EXPECT_EQ(fe_mul(a, b), mul_mod(a, b, p)) << a.hex() << " " << b.hex();
            EXPECT_EQ(fe_add(a, b), add_mod(a, b, p)) << a.hex() << " " << b.hex();
            EXPECT_EQ(fe_sub(a, b), sub_mod(a, b, p)) << a.hex() << " " << b.hex();
        }
        EXPECT_EQ(fe_inv(a), inv_mod_prime(a, p)) << a.hex();
    }
}

TEST(Secp256k1, GeneratorMultiplesMatchReference) {
    const std::span<const Point> table = generator_multiples();
    ASSERT_EQ(table.size(), 64u);
    for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(table[i], Ref::scalar_mul(U256{2 * i + 1}, Ref::generator()))
            << "entry " << i;
    }
}

/// On-curve points whose x (resp. y) is 1, written as 1 + p: on_curve
/// reads coordinates mod p, so both pass it with a coordinate above p.
Point point_with_wide_x() {
    const U256 y{0x4218f20ae6c646b3ull, 0x63db68605822fb14ull,
                 0x264ca8d2587fdd6full, 0xbc750d587e76a7eeull};
    return Point{add(field_prime(), U256{1}), y, false};
}
Point point_with_wide_y() {
    const U256 x{0x1fe1e5ef3fceb5c1ull, 0x35ab7741333ce5a6ull,
                 0xe80d68167653f6b2ull, 0xb24bcbcfaaaff507ull};
    return Point{x, add(field_prime(), U256{1}), false};
}

TEST(Secp256k1, WideCoordinatePointsAreOnCurve) {
    EXPECT_TRUE(on_curve(point_with_wide_x()));
    EXPECT_TRUE(on_curve(point_with_wide_y()));
}

TEST(Secp256k1, GroupOpsMatchReference) {
    const U256& n = group_order();
    const Point g = generator();
    std::uint64_t sm = 5;
    const std::vector<Point> points = {
        g, Ref::scalar_mul(sub(n, U256{1}), g), Ref::scalar_mul(U256{7}, g),
        Ref::scalar_mul(random_u256(sm), g), Point{}, point_with_wide_x(),
        point_with_wide_y()};
    const std::vector<U256> scalars = {
        U256{}, U256{1}, U256{2}, sub(n, U256{1}), n, add(n, U256{1}),
        shl(U256{1}, 255), kMaxU256, random_u256(sm)};
    for (const Point& a : points) {
        EXPECT_EQ(point_double(a), Ref::point_double(a));
        for (const Point& b : points) {
            EXPECT_EQ(point_add(a, b), Ref::point_add(a, b));
        }
        for (const U256& k : scalars) {
            EXPECT_EQ(scalar_mul(k, a), Ref::scalar_mul(k, a)) << k.hex();
        }
    }
}

TEST(Secp256k1, JointMulMatchesReferenceOnChosenScalars) {
    const U256& n = group_order();
    const Point g = generator();
    const Point neg_g = Ref::scalar_mul(sub(n, U256{1}), g);
    const Point seven_g = Ref::scalar_mul(U256{7}, g);
    std::uint64_t sm = 21;
    const Point random_point = Ref::scalar_mul(random_u256(sm), g);
    const U256 top = shl(U256{1}, 255);
    const std::vector<U256> scalars = {
        U256{},          U256{1},         U256{3},         U256{127},
        sub(n, U256{1}), top,             sub(n, top),     add(top, U256{1}),
        divmod(random_u256(sm), n).remainder};
    // P = G and P = -G put the same points in both tables, so equal
    // scalars make the two additions at the top digit coincide.
    for (const Point& p : {g, neg_g, seven_g, random_point}) {
        std::vector<Point> bp;
        bp.reserve(scalars.size());
        for (const U256& b : scalars) bp.push_back(Ref::scalar_mul(b, p));
        for (const U256& a : scalars) {
            const Point ag = Ref::scalar_mul(a, g);
            for (std::size_t j = 0; j < scalars.size(); ++j) {
                EXPECT_EQ(joint_mul(a, scalars[j], p), Ref::point_add(ag, bp[j]))
                    << a.hex() << " " << scalars[j].hex();
            }
        }
    }
    // a·G = -b·P: the sum is infinity.
    EXPECT_TRUE(joint_mul(sub(n, U256{21}), U256{3}, seven_g).infinity);
    EXPECT_TRUE(joint_mul(top, top, neg_g).infinity);
    // b·P alone, and P at infinity.
    EXPECT_EQ(joint_mul(U256{}, U256{5}, seven_g), Ref::scalar_mul(U256{35}, g));
    EXPECT_EQ(joint_mul(U256{5}, U256{9}, Point{}), Ref::scalar_mul(U256{5}, g));
}

TEST(Schnorr, KeysAndSignaturesMatchReference) {
    const U256& n = group_order();
    const Bytes msg = str_bytes("key derivation edge");
    for (const U256& secret : {U256{}, U256{1}, sub(n, U256{1}), n,
                               add(n, U256{1}), kMaxU256}) {
        const KeyPair kp = KeyPair::from_secret(secret);
        const Ref::Keys ref = Ref::from_secret(secret);
        EXPECT_EQ(kp.secret(), ref.secret) << secret.hex();
        EXPECT_EQ(kp.public_key(), ref.pub) << secret.hex();
        EXPECT_EQ(kp.address(), Ref::to_address(ref.pub)) << secret.hex();
        EXPECT_EQ(kp.sign(msg), Ref::sign(ref, msg)) << secret.hex();
    }
}

/// Flips one bit of a signature, its public key or its message, picked by
/// `choice`, or signs the message under another key.
void tamper(std::uint64_t choice, unsigned bit, Point& pub, Bytes& msg,
            Signature& sig) {
    const U256 mask = shl(U256{1}, bit);
    switch (choice % 6) {
        case 0: sig.rx = bit_xor(sig.rx, mask); break;
        case 1: sig.ry = bit_xor(sig.ry, mask); break;
        case 2: sig.s = bit_xor(sig.s, mask); break;
        case 3: pub.x = bit_xor(pub.x, mask); break;
        case 4:
            if (msg.empty()) {
                msg.push_back(0);
            } else {
                msg[bit % msg.size()] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            }
            break;
        default: sig = KeyPair::from_seed(bit).sign(msg); break;
    }
}

TEST(Schnorr, VerdictsMatchReferenceOnSeededKeys) {
    std::uint64_t sm = 2024;
    int accepted = 0;
    for (int i = 0; i < 2000; ++i) {
        const KeyPair kp = KeyPair::from_secret(random_u256(sm));
        Bytes msg(bcfl::splitmix64(sm) % 200);
        for (std::uint8_t& byte : msg) {
            byte = static_cast<std::uint8_t>(bcfl::splitmix64(sm));
        }
        const Signature sig = kp.sign(msg);
        if (i % 8 == 0) {
            // The reference signs slowly: compare its keys and signatures
            // on every eighth key, its verdicts on all of them.
            const Ref::Keys ref = Ref::from_secret(kp.secret());
            ASSERT_EQ(kp.public_key(), ref.pub) << i;
            ASSERT_EQ(sig, Ref::sign(ref, msg)) << i;
        }
        const bool honest = verify(kp.public_key(), msg, sig);
        ASSERT_EQ(honest, Ref::verify(kp.public_key(), msg, sig)) << i;
        accepted += honest ? 1 : 0;

        Point pub = kp.public_key();
        Bytes bad_msg = msg;
        Signature bad = sig;
        tamper(static_cast<std::uint64_t>(i),
               static_cast<unsigned>(bcfl::splitmix64(sm) % 256), pub, bad_msg,
               bad);
        ASSERT_EQ(verify(pub, bad_msg, bad), Ref::verify(pub, bad_msg, bad))
            << i;
    }
    EXPECT_EQ(accepted, 2000);
}

TEST(Schnorr, EdgeVerdictsMatchReference) {
    const U256& p = field_prime();
    const U256& n = group_order();
    for (const KeyPair& kp :
         {KeyPair::from_secret(U256{1}), KeyPair::from_secret(sub(n, U256{1})),
          KeyPair::from_seed(77)}) {
        for (int m = 0; m < 3; ++m) {
            const Bytes msg = str_bytes("edge " + std::to_string(m));
            const Signature sig = kp.sign(msg);
            std::vector<std::pair<Point, Signature>> cases;
            cases.reserve(13);
            cases.emplace_back(kp.public_key(), sig);
            for (const U256& s : {U256{}, sub(n, U256{1}), n, kMaxU256}) {
                Signature t = sig;
                t.s = s;
                cases.emplace_back(kp.public_key(), t);
            }
            Signature off_curve = sig;  // R off the curve
            off_curve.rx = add(off_curve.rx, U256{1});
            Signature origin = sig;  // R = (0, 0)
            origin.rx = U256{};
            origin.ry = U256{};
            Signature negated = sig;  // -R
            negated.ry = sub(p, negated.ry);
            Signature wide_rx = sig;  // R's coordinates above p
            wide_rx.rx = point_with_wide_x().x;
            wide_rx.ry = point_with_wide_x().y;
            Signature wide_ry = sig;
            wide_ry.rx = point_with_wide_y().x;
            wide_ry.ry = point_with_wide_y().y;
            for (const Signature& t : {off_curve, origin, negated, wide_rx, wide_ry}) {
                cases.emplace_back(kp.public_key(), t);
            }
            // The public key's coordinates above p, and at infinity.
            cases.emplace_back(point_with_wide_x(), sig);
            cases.emplace_back(point_with_wide_y(), sig);
            cases.emplace_back(Point{}, sig);
            for (std::size_t c = 0; c < cases.size(); ++c) {
                const auto& [pub, t] = cases[c];
                EXPECT_EQ(verify(pub, msg, t), Ref::verify(pub, msg, t))
                    << "case " << c << ", message " << m;
            }
            EXPECT_TRUE(verify(kp.public_key(), msg, sig));
        }
    }
}

TEST(Schnorr, VerdictsMatchReferenceForKeysGAndMinusG) {
    // Public keys G and -G: P's table holds multiples of G, so the top
    // digits of s and e can add the same point, or opposite points, and the
    // coincident-operand fallback runs.
    const U256& n = group_order();
    for (const U256& secret : {U256{1}, sub(n, U256{1})}) {
        const KeyPair kp = KeyPair::from_secret(secret);
        for (int m = 0; m < 150; ++m) {
            const Bytes msg = str_bytes("generator key " + std::to_string(m));
            const Signature sig = kp.sign(msg);
            EXPECT_TRUE(verify(kp.public_key(), msg, sig)) << m;
            EXPECT_TRUE(Ref::verify(kp.public_key(), msg, sig)) << m;
            Signature bad = sig;
            bad.s = add_mod(bad.s, U256{static_cast<std::uint64_t>(m) + 1}, n);
            EXPECT_EQ(verify(kp.public_key(), msg, bad),
                      Ref::verify(kp.public_key(), msg, bad))
                << m;
        }
    }
}

TEST(Schnorr, SignVerifyRoundTrip) {
    const KeyPair kp = KeyPair::from_seed(1);
    const Bytes msg = str_bytes("model update, round 3, client A");
    const Signature sig = kp.sign(msg);
    EXPECT_TRUE(verify(kp.public_key(), msg, sig));
}

TEST(Schnorr, RejectsTamperedMessage) {
    const KeyPair kp = KeyPair::from_seed(2);
    const Bytes msg = str_bytes("honest payload");
    const Signature sig = kp.sign(msg);
    EXPECT_FALSE(verify(kp.public_key(), str_bytes("forged payload"), sig));
}

TEST(Schnorr, RejectsWrongKey) {
    const KeyPair alice = KeyPair::from_seed(3);
    const KeyPair bob = KeyPair::from_seed(4);
    const Bytes msg = str_bytes("msg");
    EXPECT_FALSE(verify(bob.public_key(), msg, alice.sign(msg)));
}

TEST(Schnorr, RejectsTamperedSignature) {
    const KeyPair kp = KeyPair::from_seed(5);
    const Bytes msg = str_bytes("msg");
    Signature sig = kp.sign(msg);
    sig.s = add(sig.s, U256{1});
    EXPECT_FALSE(verify(kp.public_key(), msg, sig));
}

TEST(Schnorr, DeterministicSignature) {
    const KeyPair kp = KeyPair::from_seed(6);
    const Bytes msg = str_bytes("same message");
    EXPECT_EQ(kp.sign(msg), kp.sign(msg));
}

TEST(Schnorr, SerializationRoundTrip) {
    const KeyPair kp = KeyPair::from_seed(7);
    const Signature sig = kp.sign(str_bytes("x"));
    const Bytes wire = sig.serialize();
    EXPECT_EQ(wire.size(), 96u);
    EXPECT_EQ(Signature::deserialize(wire), sig);
}

TEST(Addresses, StableAndDistinct) {
    const Address a1 = KeyPair::from_seed(10).address();
    const Address a2 = KeyPair::from_seed(10).address();
    const Address a3 = KeyPair::from_seed(11).address();
    EXPECT_EQ(a1, a2);
    EXPECT_NE(a1, a3);
    EXPECT_FALSE(a1.is_zero());
}

// ----------------------------------------------------------------- Merkle

TEST(Merkle, SingleLeafRootIsLeafPaired) {
    const Hash32 leaf = keccak256(str_bytes("tx0"));
    EXPECT_EQ(merkle_root({leaf}), leaf);
}

TEST(Merkle, EmptyRootWellDefined) {
    EXPECT_EQ(merkle_root({}), keccak256(BytesView{}));
}

class MerkleSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleSizes, AllProofsVerify) {
    const std::size_t n = GetParam();
    std::vector<Hash32> leaves;
    leaves.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        leaves.push_back(keccak256(be_bytes(i)));
    }
    const Hash32 root = merkle_root(leaves);
    for (std::size_t i = 0; i < n; ++i) {
        const MerkleProof proof = merkle_prove(leaves, i);
        EXPECT_TRUE(merkle_verify(leaves[i], proof, root)) << "leaf " << i;
        // A proof must not verify a different leaf.
        const Hash32 other = keccak256(str_bytes("not-a-leaf"));
        EXPECT_FALSE(merkle_verify(other, proof, root));
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 33));

TEST(Merkle, TamperedRootRejected) {
    std::vector<Hash32> leaves;
    for (std::size_t i = 0; i < 8; ++i) leaves.push_back(keccak256(be_bytes(i)));
    Hash32 root = merkle_root(leaves);
    const MerkleProof proof = merkle_prove(leaves, 3);
    root.data[0] ^= 1;
    EXPECT_FALSE(merkle_verify(leaves[3], proof, root));
}

TEST(Merkle, OutOfRangeProofThrows) {
    std::vector<Hash32> leaves{keccak256(str_bytes("only"))};
    EXPECT_THROW(merkle_prove(leaves, 1), bcfl::Error);
}

}  // namespace
}  // namespace bcfl::crypto
