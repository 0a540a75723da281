#include "rlp/rlp.hpp"

#include "common/error.hpp"

namespace bcfl::rlp {

namespace {

/// Untrusted-input guard: list nesting beyond this depth is rejected
/// before the recursive decoder can exhaust the stack. Every structure the
/// chain encodes (transactions, headers, model announcements) is < 8 deep.
constexpr std::size_t kMaxDepth = 64;

void encode_length(Bytes& out, std::size_t length, std::uint8_t short_base,
                   std::uint8_t long_base) {
    if (length <= 55) {
        out.push_back(static_cast<std::uint8_t>(short_base + length));
        return;
    }
    Bytes len_bytes;
    std::size_t rest = length;
    while (rest > 0) {
        len_bytes.insert(len_bytes.begin(),
                         static_cast<std::uint8_t>(rest & 0xff));
        rest >>= 8;
    }
    out.push_back(static_cast<std::uint8_t>(long_base + len_bytes.size()));
    append(out, len_bytes);
}

void encode_string_header(Bytes& out, BytesView data) {
    if (data.size() == 1 && data[0] < 0x80) return;
    encode_length(out, data.size(), 0x80, 0xb7);
}

void encode_into(const Item& item, Bytes& out) {
    if (!item.is_list()) {
        encode_string_header(out, item.data());
        append(out, item.data());
        return;
    }
    Bytes payload;
    for (const Item& child : item.children()) encode_into(child, payload);
    encode_length(out, payload.size(), 0xc0, 0xf7);
    append(out, payload);
}

struct Cursor {
    BytesView data;
    std::size_t pos = 0;

    [[nodiscard]] std::uint8_t peek() const {
        if (pos >= data.size()) throw DecodeError("rlp: truncated input");
        return data[pos];
    }
    /// Bytes left after `pos`. Compare lengths against this, never
    /// against `pos + n`: an 8-byte length field near 2^64 wraps the sum.
    [[nodiscard]] std::size_t remaining() const { return data.size() - pos; }

    [[nodiscard]] BytesView take(std::size_t n) {
        if (n > remaining()) throw DecodeError("rlp: truncated input");
        BytesView out = data.subspan(pos, n);
        pos += n;
        return out;
    }
};

std::size_t read_long_length(Cursor& cursor, std::size_t n_bytes) {
    if (n_bytes > 8) throw DecodeError("rlp: length field too wide");
    const BytesView raw = cursor.take(n_bytes);
    if (raw[0] == 0) throw DecodeError("rlp: long length has a leading zero");
    std::size_t length = 0;
    for (std::uint8_t b : raw) length = (length << 8) | b;
    if (length <= 55) throw DecodeError("rlp: non-canonical long length");
    return length;
}

Item decode_one(Cursor& cursor, std::size_t depth) {
    if (depth > kMaxDepth) throw DecodeError("rlp: nesting too deep");
    const std::uint8_t prefix = cursor.peek();
    ++cursor.pos;
    if (prefix < 0x80) {
        return Item::string(Bytes{prefix});
    }
    if (prefix <= 0xb7) {
        const std::size_t length = prefix - 0x80;
        const BytesView payload = cursor.take(length);
        if (length == 1 && payload[0] < 0x80) {
            throw DecodeError("rlp: non-canonical single byte");
        }
        return Item::string(payload);
    }
    if (prefix <= 0xbf) {
        const std::size_t length = read_long_length(cursor, prefix - 0xb7);
        return Item::string(cursor.take(length));
    }
    std::size_t payload_length = 0;
    if (prefix <= 0xf7) {
        payload_length = prefix - 0xc0;
    } else {
        payload_length = read_long_length(cursor, prefix - 0xf7);
    }
    if (payload_length > cursor.remaining()) {
        throw DecodeError("rlp: truncated list");
    }
    const std::size_t end = cursor.pos + payload_length;
    std::vector<Item> children;
    while (cursor.pos < end) {
        children.push_back(decode_one(cursor, depth + 1));
    }
    if (cursor.pos != end) throw DecodeError("rlp: list payload overrun");
    return Item::list(std::move(children));
}

}  // namespace

Item Item::integer(std::uint64_t value) {
    Bytes data;
    while (value > 0) {
        data.insert(data.begin(), static_cast<std::uint8_t>(value & 0xff));
        value >>= 8;
    }
    return string(std::move(data));
}

std::uint64_t Item::as_u64() const {
    if (is_list_) throw DecodeError("rlp: expected string, got list");
    if (data_.size() > 8) throw DecodeError("rlp: integer too wide");
    if (!data_.empty() && data_[0] == 0) {
        throw DecodeError("rlp: non-canonical integer (leading zero)");
    }
    std::uint64_t value = 0;
    for (std::uint8_t b : data_) value = (value << 8) | b;
    return value;
}

Bytes encode(const Item& item) {
    Bytes out;
    encode_into(item, out);
    return out;
}

Bytes string_header(BytesView data) {
    Bytes out;
    encode_string_header(out, data);
    return out;
}

Bytes list_header(std::size_t payload_size) {
    Bytes out;
    encode_length(out, payload_size, 0xc0, 0xf7);
    return out;
}

Item decode(BytesView data) {
    Cursor cursor{data, 0};
    Item item = decode_one(cursor, 1);
    if (cursor.pos != data.size()) throw DecodeError("rlp: trailing bytes");
    return item;
}

}  // namespace bcfl::rlp
