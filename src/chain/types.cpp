#include "chain/types.hpp"

#include "common/error.hpp"
#include "crypto/keccak.hpp"
#include "crypto/merkle.hpp"
#include "rlp/rlp.hpp"

namespace bcfl::chain {

namespace {

rlp::Item hash_item(const Hash32& h) { return rlp::Item::string(h.view()); }
rlp::Item address_item(const Address& a) { return rlp::Item::string(a.view()); }

Hash32 as_hash(const rlp::Item& item) {
    if (item.is_list() || item.data().size() != 32) {
        throw DecodeError("expected 32-byte hash");
    }
    return Hash32::from(item.data());
}

Address as_address(const rlp::Item& item) {
    if (item.is_list() || item.data().size() != 20) {
        throw DecodeError("expected 20-byte address");
    }
    return Address::from(item.data());
}

const rlp::Item& child(const rlp::Item& list, std::size_t index) {
    if (!list.is_list() || index >= list.children().size()) {
        throw DecodeError("rlp list too short");
    }
    return list.children()[index];
}

// A string slot must hold a string and a list slot a list: read the other
// way round, a list's `data()` is empty and a string's `children()` are,
// so a type-confused input would decode to a different canonical value
// than the bytes on the wire.
const Bytes& as_string(const rlp::Item& item) {
    if (item.is_list()) throw DecodeError("expected rlp string, got list");
    return item.data();
}

const std::vector<rlp::Item>& as_list(const rlp::Item& item) {
    if (!item.is_list()) throw DecodeError("expected rlp list, got string");
    return item.children();
}

}  // namespace

Bytes Transaction::signing_head(const Fields& f) {
    Bytes items = rlp::encode(rlp::Item::integer(f.nonce));
    append(items, rlp::encode(address_item(f.to)));
    append(items, rlp::encode(rlp::Item::integer(f.gas_limit)));
    append(items, rlp::encode(rlp::Item::integer(f.gas_price)));
    append(items, rlp::string_header(f.data));
    Bytes head = rlp::list_header(items.size() + f.data.size());
    append(head, items);
    return head;
}

Bytes Transaction::encode() const {
    return rlp::encode(rlp::Item::list({
        rlp::Item::integer(fields_.nonce),
        address_item(fields_.to),
        rlp::Item::integer(fields_.gas_limit),
        rlp::Item::integer(fields_.gas_price),
        rlp::Item::string(fields_.data),
        rlp::Item::string(fields_.sender_pub.x.to_hash().view()),
        rlp::Item::string(fields_.sender_pub.y.to_hash().view()),
        rlp::Item::string(fields_.signature.serialize()),
    }));
}

Transaction Transaction::decode(BytesView wire) {
    const rlp::Item item = rlp::decode(wire);
    if (!item.is_list() || item.children().size() != 8) {
        throw DecodeError("transaction must be an 8-item list");
    }
    Fields fields;
    fields.nonce = child(item, 0).as_u64();
    fields.to = as_address(child(item, 1));
    fields.gas_limit = child(item, 2).as_u64();
    fields.gas_price = child(item, 3).as_u64();
    fields.data = as_string(child(item, 4));
    fields.sender_pub.x = crypto::U256::from_hash(as_hash(child(item, 5)));
    fields.sender_pub.y = crypto::U256::from_hash(as_hash(child(item, 6)));
    fields.sender_pub.infinity = false;
    fields.signature =
        crypto::Signature::deserialize(as_string(child(item, 7)));
    return Transaction(std::move(fields));
}

Hash32 Transaction::hash() const {
    if (!hash_cache_) hash_cache_ = crypto::keccak256(encode());
    return *hash_cache_;
}

bool Transaction::verify_signature() const {
    if (!verdict_cache_) {
        verdict_cache_ =
            crypto::verify(fields_.sender_pub, signing_head(fields_),
                           fields_.data, fields_.signature);
    }
    return *verdict_cache_;
}

Transaction Transaction::make_signed(const crypto::KeyPair& key,
                                     std::uint64_t nonce, const Address& to,
                                     std::uint64_t gas_limit,
                                     std::uint64_t gas_price, Bytes data) {
    Fields fields{nonce, to, gas_limit, gas_price, std::move(data),
                  key.public_key(), {}};
    fields.signature = key.sign(signing_head(fields), fields.data);
    return Transaction(std::move(fields));
}

Bytes Receipt::encode() const {
    std::vector<rlp::Item> log_items;
    log_items.reserve(logs.size());
    for (const LogEntry& log : logs) {
        std::vector<rlp::Item> topic_items;
        topic_items.reserve(log.topics.size());
        for (const Hash32& topic : log.topics) topic_items.push_back(hash_item(topic));
        log_items.push_back(rlp::Item::list({
            address_item(log.address),
            rlp::Item::list(std::move(topic_items)),
            rlp::Item::string(log.data),
        }));
    }
    return rlp::encode(rlp::Item::list({
        rlp::Item::integer(success ? 1 : 0),
        rlp::Item::integer(gas_used),
        rlp::Item::list(std::move(log_items)),
        rlp::Item::string(return_data),
    }));
}

Hash32 Receipt::hash() const { return crypto::keccak256(encode()); }

namespace {
rlp::Item header_body(const BlockHeader& h, bool with_nonce) {
    std::vector<rlp::Item> fields{
        rlp::Item::integer(h.number),
        hash_item(h.parent_hash),
        hash_item(h.tx_root),
        hash_item(h.state_root),
        hash_item(h.receipts_root),
        address_item(h.miner),
        rlp::Item::integer(h.difficulty),
        rlp::Item::integer(h.timestamp_ms),
        rlp::Item::integer(h.gas_limit),
        rlp::Item::integer(h.gas_used),
    };
    if (with_nonce) fields.push_back(rlp::Item::integer(h.pow_nonce));
    return rlp::Item::list(std::move(fields));
}
}  // namespace

Hash32 BlockHeader::hash() const {
    return crypto::keccak256(rlp::encode(header_body(*this, true)));
}

Hash32 BlockHeader::seal_hash() const {
    return crypto::keccak256(rlp::encode(header_body(*this, false)));
}

Bytes BlockHeader::encode() const {
    return rlp::encode(header_body(*this, true));
}

BlockHeader BlockHeader::decode(BytesView wire) {
    const rlp::Item item = rlp::decode(wire);
    if (!item.is_list() || item.children().size() != 11) {
        throw DecodeError("header must be an 11-item list");
    }
    BlockHeader h;
    h.number = child(item, 0).as_u64();
    h.parent_hash = as_hash(child(item, 1));
    h.tx_root = as_hash(child(item, 2));
    h.state_root = as_hash(child(item, 3));
    h.receipts_root = as_hash(child(item, 4));
    h.miner = as_address(child(item, 5));
    h.difficulty = child(item, 6).as_u64();
    h.timestamp_ms = child(item, 7).as_u64();
    h.gas_limit = child(item, 8).as_u64();
    h.gas_used = child(item, 9).as_u64();
    h.pow_nonce = child(item, 10).as_u64();
    return h;
}

Hash32 Block::compute_tx_root() const {
    std::vector<Hash32> leaves;
    leaves.reserve(transactions.size());
    for (const Transaction& tx : transactions) leaves.push_back(tx.hash());
    return crypto::merkle_root(leaves);
}

Bytes Block::encode() const {
    std::vector<rlp::Item> tx_items;
    tx_items.reserve(transactions.size());
    for (const Transaction& tx : transactions) {
        tx_items.push_back(rlp::Item::string(tx.encode()));
    }
    return rlp::encode(rlp::Item::list({
        rlp::Item::string(header.encode()),
        rlp::Item::list(std::move(tx_items)),
    }));
}

Block Block::decode(BytesView wire) {
    const rlp::Item item = rlp::decode(wire);
    if (!item.is_list() || item.children().size() != 2) {
        throw DecodeError("block must be a 2-item list");
    }
    Block block;
    block.header = BlockHeader::decode(as_string(child(item, 0)));
    for (const rlp::Item& tx_item : as_list(child(item, 1))) {
        block.transactions.push_back(Transaction::decode(as_string(tx_item)));
    }
    return block;
}

Hash32 receipts_root(const std::vector<Receipt>& receipts) {
    std::vector<Hash32> leaves;
    leaves.reserve(receipts.size());
    for (const Receipt& r : receipts) leaves.push_back(r.hash());
    return crypto::merkle_root(leaves);
}

}  // namespace bcfl::chain
