// The original SHA-256 and keccak-256 code, kept verbatim as the reference
// that crypto_test and fuzz/fuzz_hash.cpp compare every compiled hash
// kernel against: the scalar SHA-256 compression of one block at a time,
// with its padding written one byte per update(), and the loop form of
// keccak-f[1600] behind an absorb that stages each block in a buffer.
//
// The function bodies are unchanged. Sha256Reference is the old Sha256
// class under a new name; the keccak functions are static members of a
// struct, so that calls inside resolve to the reference and not to the
// production functions of the same names.
#pragma once

#include <algorithm>
#include <cstring>

#include "common/bytes.hpp"

namespace bcfl::crypto {

/// Incremental SHA-256 hasher.
class Sha256Reference {
public:
    Sha256Reference() { reset(); }

    void reset() {
        std::memcpy(state_, kInit, sizeof(state_));
        buffered_ = 0;
        total_bits_ = 0;
    }

    void update(BytesView data) {
        // An empty view may carry a null pointer (an empty Bytes), which
        // memcpy must not see even for zero bytes.
        if (data.empty()) return;
        total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
        std::size_t offset = 0;
        if (buffered_ > 0) {
            const std::size_t take =
                std::min<std::size_t>(64 - buffered_, data.size());
            std::memcpy(buffer_ + buffered_, data.data(), take);
            buffered_ += take;
            offset += take;
            if (buffered_ == 64) {
                process_block(buffer_);
                buffered_ = 0;
            }
        }
        while (offset + 64 <= data.size()) {
            process_block(data.data() + offset);
            offset += 64;
        }
        if (offset < data.size()) {
            std::memcpy(buffer_, data.data() + offset, data.size() - offset);
            buffered_ = data.size() - offset;
        }
    }

    [[nodiscard]] Hash32 finalize() {
        const std::uint64_t bits = total_bits_;
        const std::uint8_t pad = 0x80;
        update(BytesView{&pad, 1});
        const std::uint8_t zero = 0x00;
        while (buffered_ != 56) update(BytesView{&zero, 1});
        std::uint8_t len[8];
        for (int i = 0; i < 8; ++i) {
            len[i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
        }
        // The length bytes must not count toward the message length; adjust after.
        update(BytesView{len, 8});

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

    /// One-shot convenience wrapper.
    [[nodiscard]] static Hash32 sha256(BytesView data) {
        Sha256Reference hasher;
        hasher.update(data);
        return hasher.finalize();
    }

private:
    static constexpr std::uint32_t kInit[8] = {
        0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
        0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
    };

    static constexpr std::uint32_t kRound[64] = {
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

    static constexpr std::uint32_t rotr(std::uint32_t x, int n) {
        return (x >> n) | (x << (32 - n));
    }

    void process_block(const std::uint8_t* block) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
                   (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
                   (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
                   static_cast<std::uint32_t>(block[i * 4 + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 =
                rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
        std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

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

        state_[0] += a;
        state_[1] += b;
        state_[2] += c;
        state_[3] += d;
        state_[4] += e;
        state_[5] += f;
        state_[6] += g;
        state_[7] += h;
    }

    std::uint32_t state_[8]{};
    std::uint8_t buffer_[64]{};
    std::size_t buffered_ = 0;
    std::uint64_t total_bits_ = 0;
};

struct KeccakReference {

static constexpr int kRounds = 24;
static constexpr std::size_t kRate = 136;  // 1088-bit rate for Keccak-256.

static constexpr std::uint64_t kRoundConstants[kRounds] = {
    0x0000000000000001ull, 0x0000000000008082ull, 0x800000000000808aull,
    0x8000000080008000ull, 0x000000000000808bull, 0x0000000080000001ull,
    0x8000000080008081ull, 0x8000000000008009ull, 0x000000000000008aull,
    0x0000000000000088ull, 0x0000000080008009ull, 0x000000008000000aull,
    0x000000008000808bull, 0x800000000000008bull, 0x8000000000008089ull,
    0x8000000000008003ull, 0x8000000000008002ull, 0x8000000000000080ull,
    0x000000000000800aull, 0x800000008000000aull, 0x8000000080008081ull,
    0x8000000000008080ull, 0x0000000080000001ull, 0x8000000080008008ull,
};

static constexpr int kRotation[25] = {0,  1,  62, 28, 27, 36, 44, 6,  55, 20, 3,  10, 43,
                               25, 39, 41, 45, 15, 21, 8,  18, 2,  61, 56, 14};

static constexpr std::uint64_t rotl64(std::uint64_t x, int n) {
    return n == 0 ? x : (x << n) | (x >> (64 - n));
}

static void keccak_f1600(std::uint64_t state[25]) {
    for (int round = 0; round < kRounds; ++round) {
        // Theta.
        std::uint64_t c[5];
        for (int x = 0; x < 5; ++x) {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^
                   state[x + 20];
        }
        for (int x = 0; x < 5; ++x) {
            const std::uint64_t d = c[(x + 4) % 5] ^ rotl64(c[(x + 1) % 5], 1);
            for (int y = 0; y < 25; y += 5) state[x + y] ^= d;
        }
        // Rho + Pi.
        std::uint64_t b[25];
        for (int x = 0; x < 5; ++x) {
            for (int y = 0; y < 5; ++y) {
                b[y + 5 * ((2 * x + 3 * y) % 5)] =
                    rotl64(state[x + 5 * y], kRotation[x + 5 * y]);
            }
        }
        // Chi.
        for (int x = 0; x < 5; ++x) {
            for (int y = 0; y < 25; y += 5) {
                state[x + y] =
                    b[x + y] ^ (~b[(x + 1) % 5 + y] & b[(x + 2) % 5 + y]);
            }
        }
        // Iota.
        state[0] ^= kRoundConstants[round];
    }
}

static void absorb_all(std::uint64_t state[25], BytesView a, BytesView b) {
    std::uint8_t block[kRate];
    std::size_t filled = 0;
    auto absorb = [&](BytesView data) {
        std::size_t offset = 0;
        while (offset < data.size()) {
            const std::size_t take =
                std::min(kRate - filled, data.size() - offset);
            std::memcpy(block + filled, data.data() + offset, take);
            filled += take;
            offset += take;
            if (filled == kRate) {
                for (std::size_t i = 0; i < kRate / 8; ++i) {
                    std::uint64_t lane = 0;
                    std::memcpy(&lane, block + i * 8, 8);
                    state[i] ^= lane;  // little-endian host assumed (x86/arm).
                }
                keccak_f1600(state);
                filled = 0;
            }
        }
    };
    absorb(a);
    absorb(b);
    // Padding: Keccak (0x01 ... 0x80).
    std::memset(block + filled, 0, kRate - filled);
    block[filled] ^= 0x01;
    block[kRate - 1] ^= 0x80;
    for (std::size_t i = 0; i < kRate / 8; ++i) {
        std::uint64_t lane = 0;
        std::memcpy(&lane, block + i * 8, 8);
        state[i] ^= lane;
    }
    keccak_f1600(state);
}

static Hash32 keccak256(BytesView a, BytesView b) {
    std::uint64_t state[25] = {};
    absorb_all(state, a, b);
    Hash32 out;
    std::memcpy(out.data.data(), state, 32);
    return out;
}

static Hash32 keccak256(BytesView data) { return keccak256(data, BytesView{}); }

};

}  // namespace bcfl::crypto
