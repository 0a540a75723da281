// Fuzz target: chain::Transaction::decode and chain::Block::decode — the
// gossip decoders every tx and block message crosses before a node hashes,
// verifies or imports what it carries.
//
// Contracts under test:
//   * malformed input throws a bcfl::Error, never anything else;
//   * an accepted input re-encodes to the exact input bytes, so no slot
//     accepts a list where a string belongs, or the reverse;
//   * a decoded transaction's id is keccak256 of its wire bytes: the id a
//     node caches per transaction is the hash of what it received.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "chain/types.hpp"
#include "common/error.hpp"
#include "crypto/keccak.hpp"

namespace {

[[noreturn]] void fail(const char* what, std::size_t size) {
    std::fprintf(stderr, "%s (%zu-byte input)\n", what, size);
    std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
    const bcfl::BytesView input{data, size};
    try {
        const auto tx = bcfl::chain::Transaction::decode(input);
        if (!bcfl::bytes_equal(tx.encode(), input)) {
            fail("tx: decode accepted input that re-encodes differently", size);
        }
        if (tx.hash() != bcfl::crypto::keccak256(input)) {
            fail("tx: id is not keccak256 of the wire bytes", size);
        }
    } catch (const bcfl::Error&) {
        // Typed rejection is the contract for malformed input.
    }
    try {
        const auto block = bcfl::chain::Block::decode(input);
        if (!bcfl::bytes_equal(block.encode(), input)) {
            fail("block: decode accepted input that re-encodes differently",
                 size);
        }
    } catch (const bcfl::Error&) {
    }
    return 0;
}
