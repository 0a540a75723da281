#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "rlp/rlp.hpp"

namespace bcfl::rlp {
namespace {

Bytes enc_str(std::string_view s) { return encode(Item::string(str_bytes(s))); }

// Canonical test vectors from the Ethereum wiki.
TEST(Rlp, CanonicalVectors) {
    EXPECT_EQ(to_hex(enc_str("dog")), "83646f67");
    EXPECT_EQ(to_hex(enc_str("")), "80");
    EXPECT_EQ(to_hex(encode(Item::integer(0))), "80");
    EXPECT_EQ(to_hex(encode(Item::integer(15))), "0f");
    EXPECT_EQ(to_hex(encode(Item::integer(1024))), "820400");
    EXPECT_EQ(to_hex(encode(Item::list({}))), "c0");
    EXPECT_EQ(to_hex(encode(Item::list({Item::string(str_bytes("cat")),
                                        Item::string(str_bytes("dog"))}))),
              "c88363617483646f67");
    // "Lorem ipsum..." (56 bytes) exercises the long-string form.
    EXPECT_EQ(to_hex(enc_str("Lorem ipsum dolor sit amet, consectetur adipisicing elit")),
              "b8384c6f72656d20697073756d20646f6c6f722073697420616d65742c2"
              "0636f6e7365637465747572206164697069736963696e6720656c6974");
}

TEST(Rlp, NestedListVector) {
    // [ [], [[]], [ [], [[]] ] ]
    const Item inner_empty = Item::list({});
    const Item one_deep = Item::list({inner_empty});
    const Item two = Item::list({inner_empty, one_deep});
    const Item all = Item::list({inner_empty, one_deep, two});
    EXPECT_EQ(to_hex(encode(all)), "c7c0c1c0c3c0c1c0");
}

TEST(Rlp, SingleByteBelow0x80IsItself) {
    EXPECT_EQ(to_hex(encode(Item::string(Bytes{0x7f}))), "7f");
    EXPECT_EQ(to_hex(encode(Item::string(Bytes{0x80}))), "8180");
    EXPECT_TRUE(string_header(Bytes{0x7f}).empty());
    EXPECT_EQ(to_hex(string_header(Bytes{0x80})), "81");
}

class RlpRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RlpRoundTrip, StringOfLength) {
    const std::size_t n = GetParam();
    Bytes payload(n);
    for (std::size_t i = 0; i < n; ++i) {
        payload[i] = static_cast<std::uint8_t>((i * 31 + 7) & 0xff);
    }
    const Item item = Item::string(payload);
    const Item back = decode(encode(item));
    EXPECT_FALSE(back.is_list());
    EXPECT_EQ(back.data(), payload);

    // The headers encode() writes, on their own: a string's, and a list's
    // around that string's encoding.
    Bytes joined = string_header(payload);
    append(joined, payload);
    EXPECT_EQ(joined, encode(item));
    const Bytes items = encode(item);
    joined = list_header(items.size());
    append(joined, items);
    EXPECT_EQ(joined, encode(Item::list({item})));
}

INSTANTIATE_TEST_SUITE_P(Lengths, RlpRoundTrip,
                         ::testing::Values(0, 1, 2, 55, 56, 57, 255, 256,
                                           1024, 70000));

TEST(Rlp, ListRoundTrip) {
    const Item item = Item::list({
        Item::integer(7),
        Item::string(str_bytes("hello")),
        Item::list({Item::integer(1), Item::integer(2)}),
        Item::string(Bytes(100, 0xaa)),
    });
    const Item back = decode(encode(item));
    EXPECT_EQ(back, item);
    EXPECT_EQ(back.children()[0].as_u64(), 7u);
    EXPECT_EQ(back.children()[2].children()[1].as_u64(), 2u);
}

TEST(Rlp, IntegerRoundTrip) {
    for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 255ull, 256ull,
                            0xffffffffull, 0xffffffffffffffffull}) {
        EXPECT_EQ(decode(encode(Item::integer(v))).as_u64(), v);
    }
}

TEST(Rlp, RejectsTrailingBytes) {
    Bytes data = enc_str("dog");
    data.push_back(0x00);
    EXPECT_THROW(decode(data), DecodeError);
}

TEST(Rlp, RejectsTruncated) {
    Bytes data = enc_str("dog");
    data.pop_back();
    EXPECT_THROW(decode(data), DecodeError);
    EXPECT_THROW(decode(from_hex("b838")), DecodeError);  // long str, no body
}

TEST(Rlp, RejectsNonCanonical) {
    // Single byte < 0x80 wrapped in a length prefix.
    EXPECT_THROW(decode(from_hex("817f")), DecodeError);
    // Long-form length used for a short payload.
    EXPECT_THROW(decode(from_hex("b80161")), DecodeError);
    // Integer with leading zero rejected by as_u64.
    EXPECT_THROW((void)decode(from_hex("820001")).as_u64(), DecodeError);
}

TEST(Rlp, WrappingLongLengthRejected) {
    // Regression: an 8-byte length near 2^64 wrapped the bounds check
    // `pos + n > size`, and copying the oversized span threw
    // std::length_error, which no gossip handler catches.
    EXPECT_THROW(decode(from_hex("bffffffffffffffff7")), DecodeError);
    EXPECT_THROW(decode(from_hex("bffffffffffffffff700")), DecodeError);
    EXPECT_THROW(decode(from_hex("fffffffffffffffff7")), DecodeError);
}

TEST(Rlp, LongLengthWithLeadingZeroRejected) {
    // Regression: `b9 00 38` + 56 bytes decoded, then re-encoded as
    // `b8 38` + 56 bytes, giving one item two encodings.
    Bytes padded = from_hex("b90038");
    padded.resize(3 + 56, 'a');
    EXPECT_THROW(decode(padded), DecodeError);
    Bytes list = from_hex("f90038");
    for (int i = 0; i < 56; ++i) list.push_back(0x80);
    EXPECT_THROW(decode(list), DecodeError);
}

TEST(Rlp, ListPayloadOverrunRejected) {
    // List claims 2 payload bytes but contains an item spanning 3.
    EXPECT_THROW(decode(from_hex("c2826162")), DecodeError);
}

// Builds a chain of singleton lists `depth` deep ([[[...]]]) with correct
// length prefixes at every level, without recursing: level sizes are
// precomputed innermost-out, then headers are emitted outermost-first.
Bytes nested_lists(std::size_t depth) {
    std::vector<std::size_t> sizes{1};  // innermost: bare empty list 0xc0
    while (sizes.size() < depth) {
        const std::size_t payload = sizes.back();
        std::size_t header = 1;
        if (payload > 55) {
            std::size_t rest = payload;
            while (rest > 0) {
                ++header;
                rest >>= 8;
            }
        }
        sizes.push_back(payload + header);
    }
    Bytes data;
    data.reserve(sizes.back());
    for (std::size_t level = depth; level-- > 1;) {
        const std::size_t payload = sizes[level - 1];
        if (payload <= 55) {
            data.push_back(static_cast<std::uint8_t>(0xc0 + payload));
        } else {
            Bytes len;
            std::size_t rest = payload;
            while (rest > 0) {
                len.insert(len.begin(), static_cast<std::uint8_t>(rest & 0xff));
                rest >>= 8;
            }
            data.push_back(static_cast<std::uint8_t>(0xf7 + len.size()));
            append(data, len);
        }
    }
    data.push_back(0xc0);
    return data;
}

TEST(Rlp, NestingDepthCapBoundary) {
    // The decoder caps list nesting at 64 so adversarial input cannot
    // exhaust the call stack. Exactly at the cap decodes; one past throws.
    Item item = decode(nested_lists(64));
    std::size_t measured = 1;
    while (!item.children().empty()) {
        item = item.children()[0];
        ++measured;
    }
    EXPECT_EQ(measured, 64u);
    EXPECT_THROW(decode(nested_lists(65)), DecodeError);
}

TEST(Rlp, DeepNestingRejectedNotStackOverflow) {
    // Pre-cap this input recursed 100k frames deep. It must now be a
    // typed decode error, reported long before the stack is at risk.
    EXPECT_THROW(decode(nested_lists(100000)), DecodeError);
}

}  // namespace
}  // namespace bcfl::rlp
