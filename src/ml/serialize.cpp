#include "ml/serialize.hpp"

#include <bit>
#include <cstring>

#include "common/error.hpp"
#include "crypto/keccak.hpp"

namespace bcfl::ml {

namespace {
constexpr std::uint8_t kMagic[4] = {'b', 'c', 'f', 'l'};
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kHeader = 4 + 1 + 8;  // magic + version + count
constexpr std::size_t kDigest = 32;
// Untrusted-input guard: a declared parameter count past this cap (1 GiB
// of fp32) is rejected before the length arithmetic below can wrap or the
// weight vector allocation can OOM. Far above any model the repo ships.
constexpr std::uint64_t kMaxWeights = 1ull << 28;

static_assert(std::endian::native == std::endian::little,
              "serializer assumes a little-endian host");
}  // namespace

std::size_t serialized_weights_size(std::size_t count) {
    return kHeader + count * 4 + kDigest;
}

Bytes serialize_weights(std::span<const float> weights) {
    if (weights.size() > kMaxWeights) {
        throw ShapeError("weights: parameter count exceeds cap");
    }
    // Build the header+payload region at its final size up front (also
    // sidesteps a GCC 12 -Wstringop-overflow false positive on insert-into-
    // reserved-vector).
    Bytes blob(kHeader + weights.size() * 4);
    std::memcpy(blob.data(), kMagic, 4);
    blob[4] = kVersion;
    const Bytes count = be_bytes(weights.size());
    std::memcpy(blob.data() + 5, count.data(), count.size());
    if (!weights.empty()) {
        std::memcpy(blob.data() + kHeader, weights.data(),
                    weights.size() * 4);
    }
    const Hash32 digest = crypto::keccak256(blob);
    blob.reserve(blob.size() + kDigest);
    append(blob, digest.view());
    return blob;
}

std::vector<float> deserialize_weights(BytesView blob) {
    if (blob.size() < kHeader + kDigest) throw DecodeError("weights: too short");
    for (std::size_t i = 0; i < 4; ++i) {
        if (blob[i] != kMagic[i]) throw DecodeError("weights: bad magic");
    }
    if (blob[4] != kVersion) throw DecodeError("weights: bad version");
    const std::uint64_t count = be_u64(blob.subspan(5, 8));
    if (count > kMaxWeights) {
        // Also guards the size check below: count * 4 can no longer wrap.
        throw DecodeError("weights: parameter count exceeds cap");
    }
    if (blob.size() != serialized_weights_size(count)) {
        throw DecodeError("weights: length mismatch");
    }
    const Hash32 expected =
        crypto::keccak256(blob.subspan(0, blob.size() - kDigest));
    const Hash32 stored = Hash32::from(blob.subspan(blob.size() - kDigest));
    if (expected != stored) throw DecodeError("weights: digest mismatch");
    std::vector<float> weights(count);
    if (count != 0) {
        // An empty vector's data() may be null, and memcpy's contract
        // forbids null even for zero-length copies (UBSan enforces this).
        std::memcpy(weights.data(), blob.data() + kHeader, count * 4);
    }
    return weights;
}

Hash32 weights_digest(BytesView blob) {
    if (blob.size() < kDigest) throw DecodeError("weights: too short");
    return Hash32::from(blob.subspan(blob.size() - kDigest));
}

Hash32 weights_digest(std::span<const float> weights) {
    return weights_digest(serialize_weights(weights));
}

}  // namespace bcfl::ml
