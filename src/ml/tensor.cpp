#include "ml/tensor.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "ml/matmul_kernel.hpp"

namespace bcfl::ml {

std::size_t Tensor::element_count(const std::vector<std::size_t>& shape) {
    std::size_t n = 1;
    for (std::size_t d : shape) n *= d;
    return n;
}

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), values_(element_count(shape_), 0.0f) {}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> values)
    : shape_(std::move(shape)), values_(std::move(values)) {
    if (values_.size() != element_count(shape_)) {
        throw ShapeError("tensor data does not match shape");
    }
}

void Tensor::reshape(std::vector<std::size_t> shape) {
    if (element_count(shape) != values_.size()) {
        throw ShapeError("reshape changes element count");
    }
    shape_ = std::move(shape);
}

void Tensor::fill(float value) {
    std::fill(values_.begin(), values_.end(), value);
}

namespace {

void gemm_baseline(const float* a, std::size_t a_row, std::size_t a_col,
                   const float* b, float* out, std::size_t m, std::size_t k,
                   std::size_t n, bool accumulate) {
    kernel::matmul_rows<kernel::Vec4>(a, a_row, a_col, b, out, m, k, n,
                                      accumulate);
}

#if defined(__x86_64__)
// The same kernel with 8-float registers. AVX2 does not imply FMA, so no
// multiply-add is fused and every bit matches gemm_baseline.
[[gnu::target("avx2")]] void gemm_avx2(const float* a, std::size_t a_row,
                                       std::size_t a_col, const float* b,
                                       float* out, std::size_t m,
                                       std::size_t k, std::size_t n,
                                       bool accumulate) {
    kernel::matmul_rows<kernel::Vec8>(a, a_row, a_col, b, out, m, k, n,
                                      accumulate);
}
#endif

struct GemmKernel {
    const char* name;
    decltype(&gemm_baseline) fn;
};

GemmKernel select_gemm() {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) return {"avx2", gemm_avx2};
#endif
    return {"baseline", gemm_baseline};
}

const GemmKernel& selected_gemm() {
    static const GemmKernel chosen = select_gemm();
    return chosen;
}

void gemm(const float* a, std::size_t a_row, std::size_t a_col,
          const float* b, float* out, std::size_t m, std::size_t k,
          std::size_t n, bool accumulate) {
    selected_gemm().fn(a, a_row, a_col, b, out, m, k, n, accumulate);
}

}  // namespace

const char* gemm_kernel_name() { return selected_gemm().name; }

void matmul_nn(const float* a, const float* b, float* out, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
    gemm(a, k, 1, b, out, m, k, n, accumulate);
}

void matmul_tn(const float* a, const float* b, float* out, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
    gemm(a, 1, m, b, out, m, k, n, accumulate);
}

void matmul_nt(const float* a, const float* b, float* out, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
    if (!accumulate) std::memset(out, 0, m * n * sizeof(float));
    for (std::size_t i = 0; i < m; ++i) {
        const float* a_row = a + i * k;
        float* out_row = out + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const float* b_row = b + j * k;
            float acc = 0.0f;
            for (std::size_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
            out_row[j] += acc;
        }
    }
}

void axpy(float alpha, const std::vector<float>& x, std::vector<float>& y) {
    if (x.size() != y.size()) throw ShapeError("axpy size mismatch");
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

}  // namespace bcfl::ml
