// The one register-blocked kernel behind ml::matmul_nn and ml::matmul_tn.
// Private to ml/tensor.cpp, which compiles it twice, with 4-float registers
// for baseline x86-64 and with 8-float ones for AVX2, and picks one by
// cpuid. The kernel tests instantiate the baseline variant, so the path of
// a host without AVX2 is checked everywhere.
//
// Contract, bit for bit: out[i, j] is the serial sum over ascending p of
// a(i, p) * b[p, j], skipping every p with a(i, p) == 0, starting from
// +0.0f (or from out[i, j] when accumulating). Each product and each sum
// rounds to float on its own. Vector lanes run across output columns only,
// never across p, so every lane performs exactly that scalar sequence.
// No FMA may be enabled where this is compiled: a fused multiply-add
// rounds once instead of twice.
#pragma once

#include <cstddef>
#include <cstring>

namespace bcfl::ml::kernel {

/// Four floats: one SSE register, the widest baseline x86-64 has.
using Vec4 = float __attribute__((vector_size(16)));
/// Eight floats: one AVX2 register.
using Vec8 = float __attribute__((vector_size(32)));

/// Accumulators one register block of a row holds. Twelve leave room for
/// the broadcast and a product in a 16-register file; with Vec8 a block
/// covers 96 columns, SimpleNN's hidden width.
inline constexpr std::size_t kBlockVecs = 12;

/// out[0, W * lanes) of one row: W accumulators of type V (a vector or,
/// for the last few columns, float) stay in registers across the whole
/// reduction. a(i, p) is a[p * a_step]; b rows are n floats apart.
template <typename V, std::size_t W>
[[gnu::always_inline]] inline void row_block(const float* a,
                                             std::size_t a_step,
                                             const float* b, std::size_t n,
                                             float* out, std::size_t k,
                                             bool accumulate) {
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    V acc[W];
    for (std::size_t w = 0; w < W; ++w) {
        acc[w] = V{};
        if (accumulate) std::memcpy(&acc[w], out + w * kLanes, sizeof(V));
    }
    for (std::size_t p = 0; p < k; ++p) {
        const float a_val = a[p * a_step];
        if (a_val == 0.0f) continue;
        const float* b_row = b + p * n;
        for (std::size_t w = 0; w < W; ++w) {
            V b_val;
            std::memcpy(&b_val, b_row + w * kLanes, sizeof(V));
            acc[w] += a_val * b_val;
        }
    }
    for (std::size_t w = 0; w < W; ++w) {
        std::memcpy(out + w * kLanes, &acc[w], sizeof(V));
    }
}

/// row_block<V, count> for a run-time count in [1, W].
template <typename V, std::size_t W>
[[gnu::always_inline]] inline void row_block_of(std::size_t count,
                                                const float* a,
                                                std::size_t a_step,
                                                const float* b, std::size_t n,
                                                float* out, std::size_t k,
                                                bool accumulate) {
    if constexpr (W > 0) {
        if (count == W) {
            row_block<V, W>(a, a_step, b, n, out, k, accumulate);
        } else {
            row_block_of<V, W - 1>(count, a, a_step, b, n, out, k,
                                   accumulate);
        }
    }
}

/// out[m, n] (+)= A * b[k, n] with A(i, p) = a[i * a_row + p * a_col]:
/// matmul_nn passes (k, 1), matmul_tn (1, m). Each row is cut into blocks
/// of kBlockVecs registers of type V, then one block of the remaining whole
/// registers, then the last few columns as scalars.
template <typename V>
[[gnu::always_inline]] inline void matmul_rows(const float* a,
                                               std::size_t a_row,
                                               std::size_t a_col,
                                               const float* b, float* out,
                                               std::size_t m, std::size_t k,
                                               std::size_t n,
                                               bool accumulate) {
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    constexpr std::size_t kBlockColumns = kBlockVecs * kLanes;
    for (std::size_t i = 0; i < m; ++i) {
        const float* a_i = a + i * a_row;
        float* out_i = out + i * n;
        std::size_t j = 0;
        for (; j + kBlockColumns <= n; j += kBlockColumns) {
            row_block<V, kBlockVecs>(a_i, a_col, b + j, n, out_i + j, k,
                                     accumulate);
        }
        if (const std::size_t vecs = (n - j) / kLanes; vecs > 0) {
            row_block_of<V, kBlockVecs - 1>(vecs, a_i, a_col, b + j, n,
                                            out_i + j, k, accumulate);
            j += vecs * kLanes;
        }
        if (j < n) {
            row_block_of<float, kLanes - 1>(n - j, a_i, a_col, b + j, n,
                                            out_i + j, k, accumulate);
        }
    }
}

}  // namespace bcfl::ml::kernel
