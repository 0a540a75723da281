// Core chain data types: transactions, receipts, logs, block headers and
// blocks — the private-Ethereum substrate of the paper's deployment.
//
// Simplification vs mainnet Ethereum (see docs/architecture.md): the
// sender's public key travels inside the transaction instead of being
// recovered from an ECDSA signature. The sender address is still
// keccak256(pubkey)[12..], and signatures still bind the sender to the
// payload, which is all the paper's non-repudiation argument needs.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/secp256k1.hpp"

namespace bcfl::chain {

/// An EVM-style log entry emitted by contract execution.
struct LogEntry {
    Address address;             // emitting contract
    std::vector<Hash32> topics;  // indexed fields
    Bytes data;                  // unindexed payload

    [[nodiscard]] bool operator==(const LogEntry&) const = default;
};

/// A signed transaction, immutable once built. Only make_signed, decode
/// and from_fields construct one, and no accessor hands out a mutable
/// field, so the object can cache what it derives from its fields: the
/// sender address, the id and the signature verdict. Each is computed on
/// first use and copies carry all three, which is what lets a node hash
/// and verify a transaction once instead of at every pool, block-building,
/// import and indexing step. The caches are unsynchronized: an object
/// belongs to one node's delivery context, like the node itself.
class Transaction {
public:
    /// The wire fields, in encoding order.
    struct Fields {
        std::uint64_t nonce = 0;
        Address to;  // zero address = contract creation
        std::uint64_t gas_limit = 0;
        std::uint64_t gas_price = 1;
        Bytes data;
        crypto::Point sender_pub;
        crypto::Signature signature;
    };

    /// Builds and signs a transaction in one step.
    static Transaction make_signed(const crypto::KeyPair& key,
                                   std::uint64_t nonce, const Address& to,
                                   std::uint64_t gas_limit,
                                   std::uint64_t gas_price, Bytes data);
    static Transaction decode(BytesView wire);
    /// Takes the fields as given: nothing is signed or checked. A tampered
    /// copy of a transaction is built here from its edited `fields()`.
    static Transaction from_fields(Fields fields) {
        return Transaction(std::move(fields));
    }

    /// The signed message is the RLP list of the fields before the public
    /// key. Its last item is the data, so the message is
    /// signing_head(f) || f.data: sign and verify hash the two parts and
    /// never copy the data.
    [[nodiscard]] static Bytes signing_head(const Fields& fields);

    [[nodiscard]] const Fields& fields() const { return fields_; }
    [[nodiscard]] std::uint64_t nonce() const { return fields_.nonce; }
    [[nodiscard]] const Address& to() const { return fields_.to; }
    [[nodiscard]] std::uint64_t gas_limit() const { return fields_.gas_limit; }
    [[nodiscard]] std::uint64_t gas_price() const { return fields_.gas_price; }
    [[nodiscard]] const Bytes& data() const { return fields_.data; }

    /// Sender address derived from the embedded public key (cached).
    [[nodiscard]] Address sender() const {
        if (!sender_cache_) {
            sender_cache_ = crypto::to_address(fields_.sender_pub);
        }
        return *sender_cache_;
    }

    /// Full wire encoding (the signed payload + pubkey + signature).
    [[nodiscard]] Bytes encode() const;

    /// keccak256 of the full encoding — the transaction id (cached).
    [[nodiscard]] Hash32 hash() const;
    /// Whether the signature binds the sender to the payload (cached).
    [[nodiscard]] bool verify_signature() const;

    /// Whether hash() / verify_signature() already ran on this object or
    /// on the one it was copied from.
    [[nodiscard]] bool hash_cached() const { return hash_cache_.has_value(); }
    [[nodiscard]] bool verdict_cached() const {
        return verdict_cache_.has_value();
    }

private:
    explicit Transaction(Fields fields) : fields_(std::move(fields)) {}

    Fields fields_;
    mutable std::optional<Address> sender_cache_;
    mutable std::optional<Hash32> hash_cache_;
    mutable std::optional<bool> verdict_cache_;
};

/// Execution outcome of one transaction.
struct Receipt {
    bool success = false;
    std::uint64_t gas_used = 0;
    std::vector<LogEntry> logs;
    Bytes return_data;

    [[nodiscard]] Bytes encode() const;
    [[nodiscard]] Hash32 hash() const;
};

struct BlockHeader {
    std::uint64_t number = 0;
    Hash32 parent_hash;
    Hash32 tx_root;
    Hash32 state_root;
    Hash32 receipts_root;
    Address miner;
    std::uint64_t difficulty = 1;
    std::uint64_t timestamp_ms = 0;
    std::uint64_t gas_limit = 0;
    std::uint64_t gas_used = 0;
    std::uint64_t pow_nonce = 0;

    /// Hash of the sealed header (identity of the block).
    [[nodiscard]] Hash32 hash() const;
    /// PoW pre-image: header without the nonce.
    [[nodiscard]] Hash32 seal_hash() const;

    [[nodiscard]] Bytes encode() const;
    static BlockHeader decode(BytesView wire);
};

struct Block {
    BlockHeader header;
    std::vector<Transaction> transactions;

    [[nodiscard]] Hash32 hash() const { return header.hash(); }
    /// Merkle root over transaction hashes.
    [[nodiscard]] Hash32 compute_tx_root() const;

    [[nodiscard]] Bytes encode() const;
    static Block decode(BytesView wire);
};

/// Merkle root over receipt hashes.
[[nodiscard]] Hash32 receipts_root(const std::vector<Receipt>& receipts);

}  // namespace bcfl::chain
