#include "crypto/keccak.hpp"

#include <cstring>

#include "crypto/hash_kernels.hpp"

namespace bcfl::crypto {

namespace {

using kernel::KeccakPermute;
using kernel::Variant;
using Lanes = std::uint64_t[25];

constexpr int kRounds = 24;
constexpr std::size_t kRate = 136;  // 1088-bit rate for Keccak-256.

constexpr std::uint64_t kRoundConstants[kRounds] = {
    0x0000000000000001ull, 0x0000000000008082ull, 0x800000000000808aull,
    0x8000000080008000ull, 0x000000000000808bull, 0x0000000080000001ull,
    0x8000000080008081ull, 0x8000000000008009ull, 0x000000000000008aull,
    0x0000000000000088ull, 0x0000000080008009ull, 0x000000008000000aull,
    0x000000008000808bull, 0x800000000000008bull, 0x8000000000008089ull,
    0x8000000000008003ull, 0x8000000000008002ull, 0x8000000000000080ull,
    0x000000000000800aull, 0x800000008000000aull, 0x8000000080008081ull,
    0x8000000000008080ull, 0x0000000080000001ull, 0x8000000080008008ull,
};

constexpr int kRotation[25] = {0,  1,  62, 28, 27, 36, 44, 6,  55, 20, 3,  10, 43,
                               25, 39, 41, 45, 15, 21, 8,  18, 2,  61, 56, 14};

constexpr std::uint64_t rotl64(std::uint64_t x, int n) {
    return n == 0 ? x : (x << n) | (x >> (64 - n));
}

/// Chi's input at (X, Y): Rho and Pi move lane (x, y) to (y, 2x + 3y), so
/// it is lane (X + 3Y mod 5, X) of `a` after Theta's column term `d`, rotated.
template <int X, int Y>
[[gnu::always_inline]] inline std::uint64_t chi_input(
    const Lanes& a, const std::uint64_t (&d)[5]) {
    constexpr int x = (X + 3 * Y) % 5;
    return rotl64(a[x + 5 * X] ^ d[x], kRotation[x + 5 * X]);
}

/// Row Y of one round's output.
template <int Y>
[[gnu::always_inline]] inline void chi_row(const Lanes& a,
                                           const std::uint64_t (&d)[5],
                                           Lanes& e) {
    const std::uint64_t b0 = chi_input<0, Y>(a, d);
    const std::uint64_t b1 = chi_input<1, Y>(a, d);
    const std::uint64_t b2 = chi_input<2, Y>(a, d);
    const std::uint64_t b3 = chi_input<3, Y>(a, d);
    const std::uint64_t b4 = chi_input<4, Y>(a, d);
    e[5 * Y + 0] = b0 ^ (~b1 & b2);
    e[5 * Y + 1] = b1 ^ (~b2 & b3);
    e[5 * Y + 2] = b2 ^ (~b3 & b4);
    e[5 * Y + 3] = b3 ^ (~b4 & b0);
    e[5 * Y + 4] = b4 ^ (~b0 & b1);
}

/// One round from the lanes `a` into the lanes `e`.
[[gnu::always_inline]] inline void round(const Lanes& a, Lanes& e,
                                         std::uint64_t constant) {
    const std::uint64_t c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20];
    const std::uint64_t c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21];
    const std::uint64_t c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22];
    const std::uint64_t c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23];
    const std::uint64_t c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24];
    const std::uint64_t d[5] = {
        c4 ^ rotl64(c1, 1), c0 ^ rotl64(c2, 1), c1 ^ rotl64(c3, 1),
        c2 ^ rotl64(c4, 1), c3 ^ rotl64(c0, 1),
    };
    chi_row<0>(a, d, e);
    chi_row<1>(a, d, e);
    chi_row<2>(a, d, e);
    chi_row<3>(a, d, e);
    chi_row<4>(a, d, e);
    e[0] ^= constant;  // Iota.
}

/// keccak-f[1600] unrolled, XKCP style: each iteration runs two rounds,
/// `a` into `e` and back, over 25 lanes held in locals.
[[gnu::always_inline]] inline void permute(std::uint64_t state[25]) {
    Lanes a;
    Lanes e{};
    std::memcpy(a, state, sizeof(a));
    for (int r = 0; r < kRounds; r += 2) {
        round(a, e, kRoundConstants[r]);
        round(e, a, kRoundConstants[r + 1]);
    }
    std::memcpy(state, a, sizeof(a));
}

void permute_baseline(std::uint64_t state[25]) { permute(state); }

#if defined(__x86_64__)
// The same rounds where BMI1 fuses Chi's ~x & y into andn and BMI2 gives
// rotations that leave their input intact (rorx).
[[gnu::target("bmi,bmi2")]] void permute_bmi2(std::uint64_t state[25]) {
    permute(state);
}
#endif

/// XORs byte `offset` of the rate (lanes are little-endian) with `byte`.
void xor_byte(std::uint64_t state[25], std::size_t offset, std::uint8_t byte) {
    state[offset / 8] ^= std::uint64_t{byte} << (8 * (offset % 8));
}

/// XORs `data` into the rate from byte `filled` on, permuting each time the
/// rate is full, and returns the new fill. Whole lanes go straight from the
/// input into the state; only the bytes around lane boundaries go one by
/// one. An empty view may carry a null pointer: `in` is read only while
/// bytes are left.
std::size_t absorb(KeccakPermute permute_fn, std::uint64_t state[25],
                   std::size_t filled, BytesView data) {
    const std::uint8_t* in = data.data();
    std::size_t left = data.size();
    for (; left > 0 && filled % 8 != 0; --left) {
        xor_byte(state, filled++, *in++);
    }
    if (filled == kRate) {
        permute_fn(state);
        filled = 0;
    }
    for (; left >= 8; left -= 8, in += 8) {
        std::uint64_t lane = 0;
        std::memcpy(&lane, in, 8);
        state[filled / 8] ^= lane;  // little-endian host assumed (x86/arm).
        filled += 8;
        if (filled == kRate) {
            permute_fn(state);
            filled = 0;
        }
    }
    for (; left > 0; --left) xor_byte(state, filled++, *in++);
    return filled;
}

const Variant<KeccakPermute>& selected() {
    static const Variant<KeccakPermute>& chosen =
        kernel::last_supported(kernel::keccak_variants());
    return chosen;
}

}  // namespace

std::span<const Variant<KeccakPermute>> kernel::keccak_variants() {
#if defined(__x86_64__)
    __builtin_cpu_init();
    static const Variant<KeccakPermute> variants[] = {
        {"baseline", permute_baseline, true},
        {"bmi2", permute_bmi2,
         __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2")},
    };
#else
    static const Variant<KeccakPermute> variants[] = {
        {"baseline", permute_baseline, true},
    };
#endif
    return variants;
}

Hash32 kernel::keccak256_with(KeccakPermute permute_fn, BytesView a,
                              BytesView b) {
    std::uint64_t state[25] = {};
    std::size_t filled = absorb(permute_fn, state, 0, a);
    filled = absorb(permute_fn, state, filled, b);
    // Padding: Keccak (0x01 ... 0x80).
    xor_byte(state, filled, 0x01);
    xor_byte(state, kRate - 1, 0x80);
    permute_fn(state);
    Hash32 out;
    std::memcpy(out.data.data(), state, 32);
    return out;
}

const char* keccak_kernel_name() { return selected().name; }

Hash32 keccak256(BytesView a, BytesView b) {
    return kernel::keccak256_with(selected().fn, a, b);
}

Hash32 keccak256(BytesView data) { return keccak256(data, BytesView{}); }

}  // namespace bcfl::crypto
