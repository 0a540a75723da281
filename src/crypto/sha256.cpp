#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/hash_kernels.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace bcfl::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
}

void blocks_scalar(std::uint32_t state[8], const std::uint8_t* blocks,
                   std::size_t count) {
    for (; count > 0; --count, blocks += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = (static_cast<std::uint32_t>(blocks[i * 4]) << 24) |
                   (static_cast<std::uint32_t>(blocks[i * 4 + 1]) << 16) |
                   (static_cast<std::uint32_t>(blocks[i * 4 + 2]) << 8) |
                   static_cast<std::uint32_t>(blocks[i * 4 + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 =
                rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t temp1 = h + s1 + ch + kRound[i] + w[i];
            const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#if defined(__x86_64__)
// SHA-NI keeps the state as two vectors, ABEF and CDGH. Each
// sha256rnds2 runs two rounds; sha256msg1 and sha256msg2 extend the
// message schedule four words at a time, group g + 1 from groups g - 3..g.
[[gnu::target("sha,sse4.1")]] void blocks_shani(std::uint32_t state[8],
                                                const std::uint8_t* blocks,
                                                std::size_t count) {
    // Reverses the bytes of each 32-bit word: the message is big-endian.
    const __m128i byte_swap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
    const __m128i dcba =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
    const __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for (; count > 0; --count, blocks += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        __m128i w[4] = {};
#pragma GCC unroll 16
        for (std::size_t g = 0; g < 16; ++g) {
            __m128i& cur = w[g & 3];
            if (g < 4) {
                cur = _mm_shuffle_epi8(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(blocks + 16 * g)),
                    byte_swap);
            }
            const __m128i msg = _mm_add_epi32(
                cur, _mm_loadu_si128(
                         reinterpret_cast<const __m128i*>(kRound + 4 * g)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
            if (g >= 3 && g < 15) {
                __m128i& next = w[(g + 1) & 3];
                next = _mm_add_epi32(next,
                                     _mm_alignr_epi8(cur, w[(g + 3) & 3], 4));
                next = _mm_sha256msg2_epu32(next, cur);
            }
            abef = _mm_sha256rnds2_epu32(abef, cdgh,
                                         _mm_shuffle_epi32(msg, 0x0e));
            if (g >= 1 && g < 13) {
                w[(g + 3) & 3] = _mm_sha256msg1_epu32(w[(g + 3) & 3], cur);
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                     _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}
#endif

using kernel::Sha256Blocks;
using kernel::Variant;

const Variant<Sha256Blocks>& selected() {
    static const Variant<Sha256Blocks>& chosen =
        kernel::last_supported(kernel::sha256_variants());
    return chosen;
}

}  // namespace

std::span<const Variant<Sha256Blocks>> kernel::sha256_variants() {
#if defined(__x86_64__)
    __builtin_cpu_init();
    static const Variant<Sha256Blocks> variants[] = {
        {"scalar", blocks_scalar, true},
        {"sha-ni", blocks_shani,
         __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")},
    };
#else
    static const Variant<Sha256Blocks> variants[] = {
        {"scalar", blocks_scalar, true},
    };
#endif
    return variants;
}

const char* sha256_kernel_name() { return selected().name; }

Sha256::Sha256() : Sha256(selected().fn) {}

void Sha256::reset() {
    std::memcpy(state_, kInit, sizeof(state_));
    buffered_ = 0;
    total_bits_ = 0;
}

void Sha256::update(BytesView data) {
    // An empty view may carry a null pointer (an empty Bytes), which
    // memcpy must not see even for zero bytes.
    if (data.empty()) return;
    total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
    const std::uint8_t* in = data.data();
    std::size_t left = data.size();
    if (buffered_ > 0) {
        const std::size_t take = std::min<std::size_t>(64 - buffered_, left);
        std::memcpy(buffer_ + buffered_, in, take);
        buffered_ += take;
        in += take;
        left -= take;
        if (buffered_ < 64) return;
        blocks_(state_, buffer_, 1);
        buffered_ = 0;
    }
    if (const std::size_t whole = left / 64; whole > 0) {
        blocks_(state_, in, whole);
        in += whole * 64;
        left -= whole * 64;
    }
    if (left > 0) {
        std::memcpy(buffer_, in, left);
        buffered_ = left;
    }
}

Hash32 Sha256::finalize() {
    // 0x80, zeros up to 56 bytes mod 64, then the message length in bits,
    // big-endian: one block, or two when fewer than 9 bytes are left.
    std::uint8_t tail[128] = {};
    std::memcpy(tail, buffer_, buffered_);
    tail[buffered_] = 0x80;
    const std::size_t size = buffered_ < 56 ? 64 : 128;
    for (int i = 0; i < 8; ++i) {
        tail[size - 8 + i] =
            static_cast<std::uint8_t>(total_bits_ >> (56 - 8 * i));
    }
    blocks_(state_, tail, size / 64);

    Hash32 out;
    for (int i = 0; i < 8; ++i) {
        out.data[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
        out.data[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        out.data[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        out.data[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    reset();
    return out;
}

Hash32 sha256(BytesView data) {
    Sha256 hasher;
    hasher.update(data);
    return hasher.finalize();
}

}  // namespace bcfl::crypto
