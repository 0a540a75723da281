// Minimal dense float32 tensor with the matmul kernels the training stack
// needs (plain NN, transposed-A and transposed-B variants).
//
// Every kernel is bit-exact and reproducible on any x86-64 host: each
// output element is a serial float sum in ascending reduction order, each
// product and sum rounded on its own (no FMA). matmul_nn and matmul_tn
// share one register-blocked kernel (ml/matmul_kernel.hpp), run with AVX2
// where cpuid reports it; they skip the terms whose A element is zero and
// start from +0.0f (or from out). matmul_nt sums each element from +0.0f
// without skipping, then adds that sum to out.
#pragma once

#include <cstddef>
#include <vector>

#include "common/bytes.hpp"

namespace bcfl::ml {

class Tensor {
public:
    Tensor() = default;
    explicit Tensor(std::vector<std::size_t> shape);
    Tensor(std::vector<std::size_t> shape, std::vector<float> values);

    static Tensor zeros(std::vector<std::size_t> shape) {
        return Tensor(std::move(shape));
    }

    [[nodiscard]] const std::vector<std::size_t>& shape() const {
        return shape_;
    }
    [[nodiscard]] std::size_t rank() const { return shape_.size(); }
    [[nodiscard]] std::size_t dim(std::size_t i) const { return shape_[i]; }
    [[nodiscard]] std::size_t size() const { return values_.size(); }

    [[nodiscard]] float* data() { return values_.data(); }
    [[nodiscard]] const float* data() const { return values_.data(); }
    [[nodiscard]] std::vector<float>& values() { return values_; }
    [[nodiscard]] const std::vector<float>& values() const { return values_; }

    [[nodiscard]] float& operator[](std::size_t i) { return values_[i]; }
    [[nodiscard]] float operator[](std::size_t i) const { return values_[i]; }

    /// Reshape without copying; total size must match.
    void reshape(std::vector<std::size_t> shape);

    void fill(float value);

    /// Total element count implied by a shape.
    static std::size_t element_count(const std::vector<std::size_t>& shape);

private:
    std::vector<std::size_t> shape_;
    std::vector<float> values_;
};

/// out[m,n] (+)= a[m,k] * b[k,n]. The caller guarantees the extents.
void matmul_nn(const float* a, const float* b, float* out, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate);
/// out[m,n] (+)= a[k,m]^T * b[k,n]
void matmul_tn(const float* a, const float* b, float* out, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate);
/// out[m,n] (+)= a[m,k] * b[n,k]^T
void matmul_nt(const float* a, const float* b, float* out, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate);

/// Name of the kernel build behind matmul_nn and matmul_tn that cpuid
/// picked for this host: "avx2" or "baseline".
[[nodiscard]] const char* gemm_kernel_name();

/// y += alpha * x (vectors of equal length).
void axpy(float alpha, const std::vector<float>& x, std::vector<float>& y);

}  // namespace bcfl::ml
