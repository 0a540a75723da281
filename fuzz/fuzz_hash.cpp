// Fuzz target: crypto::sha256, incremental crypto::Sha256 and
// crypto::keccak256(a, b), with every compiled kernel variant this CPU can
// run, differentially against the original code that
// tests/hash_reference.hpp keeps verbatim.
//
// Input layout: bytes 0 and 1 place two split points in the message, each
// at byte * size / 255 of it; the rest of the input is the message.
//
// Contracts under test:
//   * sha256 and keccak256 of the message equal the reference's bit for
//     bit, through the dispatched kernels and through every variant;
//   * so does a Sha256 fed the message in the three pieces the split
//     points cut, and keccak256(a, b) of the message cut at either point.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "../tests/hash_reference.hpp"
#include "common/bytes.hpp"
#include "crypto/hash_kernels.hpp"
#include "crypto/keccak.hpp"
#include "crypto/sha256.hpp"

namespace {

using bcfl::BytesView;
using bcfl::Hash32;
namespace crypto = bcfl::crypto;
namespace kernel = bcfl::crypto::kernel;

[[noreturn]] void fail(const char* what, const char* variant,
                       std::size_t size) {
    std::fprintf(stderr, "%s (%s, %zu-byte input)\n", what, variant, size);
    std::abort();
}

Hash32 sha256_in_pieces(crypto::Sha256 hasher, BytesView message,
                        std::size_t first, std::size_t second) {
    hasher.update(message.subspan(0, first));
    hasher.update(message.subspan(first, second - first));
    hasher.update(message.subspan(second));
    return hasher.finalize();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
    if (size < 2) return 0;
    const BytesView message{data + 2, size - 2};
    std::size_t first = data[0] * message.size() / 255;
    std::size_t second = data[1] * message.size() / 255;
    if (first > second) std::swap(first, second);

    const Hash32 sha_want = crypto::Sha256Reference::sha256(message);
    if (crypto::sha256(message) != sha_want) {
        fail("sha256 disagrees with the reference", "dispatched", size);
    }
    if (sha256_in_pieces(crypto::Sha256{}, message, first, second) !=
        sha_want) {
        fail("incremental Sha256 disagrees with the reference", "dispatched",
             size);
    }
    for (const auto& variant : kernel::sha256_variants()) {
        if (!variant.supported) continue;
        const crypto::Sha256 hasher = kernel::Sha256Access::with(variant.fn);
        if (sha256_in_pieces(hasher, message, 0, 0) != sha_want ||
            sha256_in_pieces(hasher, message, first, second) != sha_want) {
            fail("Sha256 disagrees with the reference", variant.name, size);
        }
    }

    const Hash32 keccak_want = crypto::KeccakReference::keccak256(message);
    for (const std::size_t cut : {first, second}) {
        const BytesView a = message.subspan(0, cut);
        const BytesView b = message.subspan(cut);
        if (crypto::keccak256(a, b) != keccak_want) {
            fail("keccak256(a, b) disagrees with the reference", "dispatched",
                 size);
        }
        for (const auto& variant : kernel::keccak_variants()) {
            if (variant.supported &&
                kernel::keccak256_with(variant.fn, a, b) != keccak_want) {
                fail("keccak256(a, b) disagrees with the reference",
                     variant.name, size);
            }
        }
    }
    if (crypto::keccak256(message) != keccak_want) {
        fail("keccak256 disagrees with the reference", "dispatched", size);
    }
    return 0;
}
