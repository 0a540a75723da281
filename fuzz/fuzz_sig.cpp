// Fuzz target: crypto::verify, KeyPair::sign and KeyPair::from_secret,
// differentially against the original double-and-add code that
// tests/secp256k1_reference.hpp keeps verbatim.
//
// Input layout: byte 0 picks a mutation, byte 1 a bit index. For mutations
// 0-8 the rest is a secret (its first 32 bytes, big-endian) and then the
// message; the harness signs the message, then mutates the signature, the
// public key or the message. For mutation 9 the rest is a raw 64-byte
// public key, a raw 96-byte signature and the message, verified as given.
//
// Contracts under test:
//   * the public key, address and signature derived from the secret equal
//     the reference's bit for bit, and the honest signature verifies;
//   * the verdict on the mutated (or raw) signature equals the reference's:
//     a bit flip in rx, ry, s, the public key or the message, s + n, s = 0
//     and a negated R.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "../tests/secp256k1_reference.hpp"
#include "common/bytes.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/u256.hpp"

namespace {

using bcfl::Bytes;
using bcfl::BytesView;
using bcfl::crypto::KeyPair;
using bcfl::crypto::Point;
using bcfl::crypto::Signature;
using bcfl::crypto::U256;
using Ref = bcfl::crypto::Secp256k1Reference;

constexpr std::uint8_t kRaw = 9;
constexpr std::uint8_t kMutations = 10;

[[noreturn]] void fail(const char* what, std::size_t size) {
    std::fprintf(stderr, "%s (%zu-byte input)\n", what, size);
    std::abort();
}

U256 flip(const U256& v, unsigned bit) {
    return bcfl::crypto::bit_xor(v, bcfl::crypto::shl(U256{1}, bit));
}

void check_verdict(const Point& pub, BytesView message, const Signature& sig,
                   std::size_t size) {
    if (bcfl::crypto::verify(pub, message, sig) !=
        Ref::verify(pub, message, sig)) {
        fail("verify disagrees with the reference", size);
    }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
    if (size < 2) return 0;
    const std::uint8_t mutation = data[0] % kMutations;
    const unsigned bit = data[1];
    const BytesView rest{data + 2, size - 2};

    if (mutation == kRaw) {
        if (rest.size() < 160) return 0;
        const Point pub{U256::from_be_bytes(rest.subspan(0, 32)),
                        U256::from_be_bytes(rest.subspan(32, 32)), false};
        const Signature sig = Signature::deserialize(rest.subspan(64, 96));
        check_verdict(pub, rest.subspan(160), sig, size);
        return 0;
    }

    const std::size_t secret_size = std::min<std::size_t>(32, rest.size());
    const U256 secret = U256::from_be_bytes(rest.subspan(0, secret_size));
    const BytesView message = rest.subspan(secret_size);

    const KeyPair key = KeyPair::from_secret(secret);
    const Ref::Keys ref = Ref::from_secret(secret);
    if (key.secret() != ref.secret || key.public_key() != ref.pub) {
        fail("key derivation disagrees with the reference", size);
    }
    if (key.address() != Ref::to_address(ref.pub)) {
        fail("address disagrees with the reference", size);
    }
    const Signature sig = key.sign(message);
    if (sig != Ref::sign(ref, message)) {
        fail("signature disagrees with the reference", size);
    }
    if (!bcfl::crypto::verify(key.public_key(), message, sig)) {
        fail("honest signature rejected", size);
    }
    check_verdict(key.public_key(), message, sig, size);

    Point pub = key.public_key();
    Bytes tampered_message(message.begin(), message.end());
    Signature tampered = sig;
    switch (mutation) {
        case 0: tampered.rx = flip(tampered.rx, bit); break;
        case 1: tampered.ry = flip(tampered.ry, bit); break;
        case 2: tampered.s = flip(tampered.s, bit); break;
        case 3: pub.x = flip(pub.x, bit); break;
        case 4: pub.y = flip(pub.y, bit); break;
        case 5:
            if (tampered_message.empty()) {
                tampered_message.push_back(static_cast<std::uint8_t>(bit));
            } else {
                tampered_message[bit % tampered_message.size()] ^=
                    static_cast<std::uint8_t>(1u << (bit % 8));
            }
            break;
        case 6:
            tampered.s = bcfl::crypto::add(tampered.s,
                                           bcfl::crypto::group_order());
            break;
        case 7: tampered.s = U256{}; break;
        default:  // 8: -R
            tampered.ry =
                bcfl::crypto::sub(bcfl::crypto::field_prime(), tampered.ry);
            break;
    }
    check_verdict(pub, tampered_message, tampered, size);
    return 0;
}
