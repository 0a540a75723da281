// RLP (Recursive Length Prefix) encoding — Ethereum's canonical wire format.
//
// Transactions and block headers are RLP-encoded before hashing and signing,
// matching the paper's private-Ethereum substrate.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace bcfl::rlp {

/// An RLP item is either a byte string or a list of items.
class Item {
public:
    Item() = default;

    static Item string(Bytes data) {
        Item item;
        item.is_list_ = false;
        item.data_ = std::move(data);
        return item;
    }
    static Item string(BytesView data) {
        return string(Bytes(data.begin(), data.end()));
    }
    /// Minimal big-endian integer encoding (no leading zeros; 0 -> empty).
    static Item integer(std::uint64_t value);
    static Item list(std::vector<Item> items) {
        Item item;
        item.is_list_ = true;
        item.children_ = std::move(items);
        return item;
    }

    [[nodiscard]] bool is_list() const { return is_list_; }
    [[nodiscard]] const Bytes& data() const { return data_; }
    [[nodiscard]] const std::vector<Item>& children() const { return children_; }
    [[nodiscard]] std::uint64_t as_u64() const;

    [[nodiscard]] bool operator==(const Item&) const = default;

private:
    bool is_list_ = false;
    Bytes data_;
    std::vector<Item> children_;
};

/// Serializes an item.
[[nodiscard]] Bytes encode(const Item& item);

/// The bytes encode() writes before a string's contents: none for a single
/// byte below 0x80, which encodes as itself.
[[nodiscard]] Bytes string_header(BytesView data);
/// The bytes encode() writes before the items of a list whose items encode
/// to `payload_size` bytes.
[[nodiscard]] Bytes list_header(std::size_t payload_size);

/// Parses exactly one item covering the whole input; throws DecodeError on
/// malformed or trailing data.
[[nodiscard]] Item decode(BytesView data);

}  // namespace bcfl::rlp
