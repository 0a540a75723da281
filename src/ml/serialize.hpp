// Model weight serialization: the bytes that travel over the blockchain.
//
// Format: magic, version, parameter count, fp32 little-endian weights,
// followed by a keccak256 integrity digest. The digest doubles as the
// `modelHash` announced to the registry contract.
#pragma once

#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace bcfl::ml {

/// Serializes a flat weight vector.
[[nodiscard]] Bytes serialize_weights(std::span<const float> weights);

/// Byte length of `serialize_weights` output for `count` weights.
[[nodiscard]] std::size_t serialized_weights_size(std::size_t count);

/// Parses and integrity-checks a serialized blob. Throws DecodeError.
[[nodiscard]] std::vector<float> deserialize_weights(BytesView blob);

/// keccak256 over the serialized payload (excluding the trailing digest) —
/// the on-chain model hash.
[[nodiscard]] Hash32 weights_digest(BytesView blob);

/// Digest convenience for a weight vector (serialize + digest).
[[nodiscard]] Hash32 weights_digest(std::span<const float> weights);

}  // namespace bcfl::ml
