#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <string>

#include "common/error.hpp"
#include "fl/task.hpp"
#include "ml/data.hpp"
#include "ml/layers.hpp"
#include "ml/loss.hpp"
#include "ml/matmul_kernel.hpp"
#include "ml/models.hpp"
#include "ml/optimizer.hpp"
#include "ml/serialize.hpp"
#include "ml/tensor.hpp"
#include "ml/train.hpp"

namespace bcfl::ml {
namespace {

// ------------------------------------------------------------------ Tensor

TEST(Tensor, ShapeAndReshape) {
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.size(), 24u);
    t.reshape({6, 4});
    EXPECT_EQ(t.dim(0), 6u);
    EXPECT_THROW(t.reshape({5, 5}), ShapeError);
}

TEST(Tensor, MatmulNN) {
    // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
    const std::vector<float> a{1, 2, 3, 4};
    const std::vector<float> b{5, 6, 7, 8};
    std::vector<float> out(4);
    matmul_nn(a.data(), b.data(), out.data(), 2, 2, 2, false);
    EXPECT_EQ(out, (std::vector<float>{19, 22, 43, 50}));
}

// Reference triple loops: the summation each kernel promises, element by
// element. matmul_nn and matmul_tn start from +0.0f (or out), skip every
// zero of A and add the products in ascending p; matmul_nt sums all k
// products from +0.0f, then adds that sum to +0.0f (or out).
void reference_skip(const std::vector<float>& a, const std::vector<float>& b,
                    std::vector<float>& out, std::size_t m, std::size_t k,
                    std::size_t n, bool accumulate) {
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float acc = accumulate ? out[i * n + j] : 0.0f;
            for (std::size_t p = 0; p < k; ++p) {
                const float a_val = a[i * k + p];
                if (a_val == 0.0f) continue;
                acc += a_val * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

void reference_nt(const std::vector<float>& a, const std::vector<float>& b_t,
                  std::vector<float>& out, std::size_t m, std::size_t k,
                  std::size_t n, bool accumulate) {
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float sum = 0.0f;
            for (std::size_t p = 0; p < k; ++p) {
                sum += a[i * k + p] * b_t[j * k + p];
            }
            const float start = accumulate ? out[i * n + j] : 0.0f;
            out[i * n + j] = start + sum;
        }
    }
}

std::vector<float> transposed(const std::vector<float>& x, std::size_t rows,
                              std::size_t cols) {
    std::vector<float> t(x.size());
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) t[c * rows + r] = x[r * cols + c];
    }
    return t;
}

/// Equal bit for bit: +0.0f and -0.0f differ, NaNs compare by payload.
bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [](float p, float q) {
                          return std::bit_cast<std::uint32_t>(p) ==
                                 std::bit_cast<std::uint32_t>(q);
                      });
}

/// Runs every kernel, both matmul_nn/matmul_tn variants (the one cpuid
/// selected and the baseline-ISA instantiation), on one A, B and starting
/// out, and compares each to its reference bit for bit.
void expect_kernels_match_references(const std::vector<float>& a,
                                     const std::vector<float>& b,
                                     const std::vector<float>& start,
                                     std::size_t m, std::size_t k,
                                     std::size_t n, bool accumulate) {
    const std::vector<float> a_t = transposed(a, m, k);
    const std::vector<float> b_t = transposed(b, k, n);
    std::vector<float> want = start;
    reference_skip(a, b, want, m, k, n, accumulate);
    std::vector<float> want_nt = start;
    reference_nt(a, b_t, want_nt, m, k, n, accumulate);
    const std::string where = "m=" + std::to_string(m) +
                              " k=" + std::to_string(k) +
                              " n=" + std::to_string(n) +
                              " accumulate=" + std::to_string(accumulate);

    std::vector<float> out = start;
    matmul_nn(a.data(), b.data(), out.data(), m, k, n, accumulate);
    EXPECT_TRUE(same_bits(out, want)) << "matmul_nn " << where;
    out = start;
    matmul_tn(a_t.data(), b.data(), out.data(), m, k, n, accumulate);
    EXPECT_TRUE(same_bits(out, want)) << "matmul_tn " << where;
    out = start;
    kernel::matmul_rows<kernel::Vec4>(a.data(), k, 1, b.data(), out.data(),
                                      m, k, n, accumulate);
    EXPECT_TRUE(same_bits(out, want)) << "baseline nn " << where;
    out = start;
    kernel::matmul_rows<kernel::Vec4>(a_t.data(), 1, m, b.data(), out.data(),
                                      m, k, n, accumulate);
    EXPECT_TRUE(same_bits(out, want)) << "baseline tn " << where;
    out = start;
    matmul_nt(a.data(), b_t.data(), out.data(), m, k, n, accumulate);
    EXPECT_TRUE(same_bits(out, want_nt)) << "matmul_nt " << where;
}

TEST(Tensor, MatmulKernelsMatchReferenceBitForBit) {
    // Odd extents exercise the vector tails; 96 is one full register block
    // and 432 spans several. A quarter of A is zero (some of it -0.0f) so
    // the skip matters, and the starting out holds -0.0f entries too.
    const std::size_t extents[] = {1, 3, 17, 96, 432};
    Rng rng(5);
    for (std::size_t m : extents) {
        for (std::size_t k : extents) {
            for (std::size_t n : extents) {
                std::vector<float> a(m * k), b(k * n), start(m * n);
                for (auto& v : a) {
                    const double u = rng.next_double();
                    v = u < 0.2 ? 0.0f
                        : u < 0.25 ? -0.0f
                                   : static_cast<float>(rng.normal());
                }
                for (auto& v : b) v = static_cast<float>(rng.normal());
                for (auto& v : start) {
                    v = rng.next_double() < 0.1
                            ? -0.0f
                            : static_cast<float>(rng.normal());
                }
                for (bool accumulate : {false, true}) {
                    expect_kernels_match_references(a, b, start, m, k, n,
                                                    accumulate);
                }
            }
        }
    }
}

TEST(Tensor, GemmKernelNameIsTheOneCpuidPicks) {
#if defined(__x86_64__)
    __builtin_cpu_init();
    EXPECT_STREQ(gemm_kernel_name(),
                 __builtin_cpu_supports("avx2") ? "avx2" : "baseline");
#else
    EXPECT_STREQ(gemm_kernel_name(), "baseline");
#endif
}

TEST(Tensor, MatmulZeroSkipAgainstInfAndNan) {
    // Column 2 of A is all zeros and row 2 of B holds +inf, -inf and NaN:
    // matmul_nn/tn skip those terms and stay finite, matmul_nt multiplies
    // them (0 * inf = NaN) and every output is NaN. Each output meets one
    // special term, so its NaN bits do not depend on operand order.
    const std::size_t m = 5, k = 7, n = 19;
    const std::size_t zero_col = 2;
    Rng rng(17);
    std::vector<float> a(m * k), b(k * n), start(m * n);
    for (std::size_t i = 0; i < m * k; ++i) {
        a[i] = i % k == zero_col ? 0.0f : static_cast<float>(rng.normal());
    }
    for (auto& v : b) v = static_cast<float>(rng.normal());
    const float specials[] = {std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN()};
    for (std::size_t j = 0; j < n; ++j) b[zero_col * n + j] = specials[j % 3];
    for (auto& v : start) v = static_cast<float>(rng.normal());

    for (bool accumulate : {false, true}) {
        expect_kernels_match_references(a, b, start, m, k, n, accumulate);
        std::vector<float> out = start;
        matmul_nn(a.data(), b.data(), out.data(), m, k, n, accumulate);
        for (float v : out) EXPECT_TRUE(std::isfinite(v));
        const std::vector<float> b_t = transposed(b, k, n);
        out = start;
        matmul_nt(a.data(), b_t.data(), out.data(), m, k, n, accumulate);
        for (float v : out) EXPECT_TRUE(std::isnan(v));
    }
}

TEST(Tensor, MatmulAccumulate) {
    const std::vector<float> a{1, 0, 0, 1};  // identity
    const std::vector<float> b{2, 3, 4, 5};
    std::vector<float> out{10, 10, 10, 10};
    matmul_nn(a.data(), b.data(), out.data(), 2, 2, 2, true);
    EXPECT_EQ(out, (std::vector<float>{12, 13, 14, 15}));
}

// ----------------------------------------------------- Numerical gradients

/// Central-difference gradient check for a layer embedded in a scalar loss
/// L = sum(forward(x) .* weights_mask).
double numerical_grad(const std::function<double(float*)>& loss, float* slot) {
    const float eps = 1e-3f;
    const float saved = *slot;
    *slot = saved + eps;
    const double up = loss(slot);
    *slot = saved - eps;
    const double down = loss(slot);
    *slot = saved;
    return (up - down) / (2.0 * eps);
}

/// Checks layer input and parameter gradients numerically.
void check_layer_gradients(Layer& layer, Tensor input, double tolerance) {
    Rng rng(99);
    // Random fixed projection so the scalar loss exercises all outputs.
    Tensor first = layer.forward(input, true);
    std::vector<float> projection(first.size());
    for (auto& v : projection) v = static_cast<float>(rng.normal());

    const auto scalar_loss = [&](float*) {
        const Tensor out = layer.forward(input, true);
        double acc = 0.0;
        for (std::size_t i = 0; i < out.size(); ++i) {
            acc += static_cast<double>(out[i]) * projection[i];
        }
        return acc;
    };

    // Analytic gradients.
    Tensor out = layer.forward(input, true);
    Tensor grad_out(out.shape());
    for (std::size_t i = 0; i < out.size(); ++i) grad_out[i] = projection[i];
    const Tensor grad_input = layer.backward(grad_out);

    // Input gradient check on a sample of entries.
    for (std::size_t i = 0; i < input.size(); i += std::max<std::size_t>(1, input.size() / 17)) {
        const double expected = numerical_grad(scalar_loss, &input[i]);
        EXPECT_NEAR(grad_input[i], expected, tolerance)
            << "input grad at " << i;
    }
    // Parameter gradient check.
    const auto params = layer.parameters();
    const auto grads = layer.gradients();
    for (std::size_t t = 0; t < params.size(); ++t) {
        Tensor& p = *params[t];
        for (std::size_t i = 0; i < p.size();
             i += std::max<std::size_t>(1, p.size() / 13)) {
            const double expected = numerical_grad(scalar_loss, &p[i]);
            EXPECT_NEAR((*grads[t])[i], expected, tolerance)
                << "param " << t << " grad at " << i;
        }
    }
}

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
    Tensor t(std::move(shape));
    Rng rng(seed);
    for (auto& v : t.values()) v = static_cast<float>(rng.normal() * 0.5);
    return t;
}

TEST(Gradients, Dense) {
    Rng rng(1);
    Dense layer(6, 4, rng);
    check_layer_gradients(layer, random_tensor({3, 6}, 2), 2e-2);
}

TEST(Gradients, Relu) {
    Relu layer;
    check_layer_gradients(layer, random_tensor({4, 5}, 3), 2e-2);
}

TEST(Gradients, Swish) {
    Swish layer;
    check_layer_gradients(layer, random_tensor({4, 5}, 4), 2e-2);
}

TEST(Gradients, Conv2d) {
    Rng rng(5);
    Conv2d layer(2, 3, 3, 1, 1, rng);
    check_layer_gradients(layer, random_tensor({2, 2, 5, 5}, 6), 3e-2);
}

TEST(Gradients, Conv2dStride2) {
    Rng rng(7);
    Conv2d layer(2, 4, 3, 2, 1, rng);
    check_layer_gradients(layer, random_tensor({2, 2, 6, 6}, 8), 3e-2);
}

TEST(Gradients, PointwiseConv) {
    Rng rng(9);
    Conv2d layer(3, 5, 1, 1, 0, rng);
    check_layer_gradients(layer, random_tensor({2, 3, 4, 4}, 10), 3e-2);
}

TEST(Gradients, DepthwiseConv2d) {
    Rng rng(11);
    DepthwiseConv2d layer(3, 3, 1, 1, rng);
    check_layer_gradients(layer, random_tensor({2, 3, 5, 5}, 12), 3e-2);
}

TEST(Gradients, DepthwiseConvStride2) {
    Rng rng(13);
    DepthwiseConv2d layer(2, 3, 2, 1, rng);
    check_layer_gradients(layer, random_tensor({2, 2, 6, 6}, 14), 3e-2);
}

TEST(Gradients, GlobalAvgPool) {
    GlobalAvgPool layer;
    check_layer_gradients(layer, random_tensor({2, 3, 4, 4}, 15), 2e-2);
}

// ------------------------------------------------------- Backward guards
//
// Each backward indexes the caches of the last training-mode forward with
// grad_output, so a grad_output of another shape, or a backward with no
// training forward before it, must throw ShapeError instead of reading
// past a cache.

TEST(BackwardGuard, Dense) {
    Rng rng(1);
    Dense layer(6, 4, rng);
    EXPECT_THROW((void)layer.backward(Tensor({3, 4})), ShapeError);
    EXPECT_THROW(layer.backward_params(Tensor({3, 4})), ShapeError);
    (void)layer.forward(random_tensor({3, 6}, 2), false);  // caches nothing
    EXPECT_THROW((void)layer.backward(Tensor({3, 4})), ShapeError);
    (void)layer.forward(random_tensor({3, 6}, 2), true);
    EXPECT_THROW((void)layer.backward(Tensor({2, 4})), ShapeError);
    EXPECT_THROW(layer.backward_params(Tensor({3, 5})), ShapeError);
    EXPECT_EQ(layer.backward(Tensor({3, 4})).shape(),
              (std::vector<std::size_t>{3, 6}));
}

TEST(BackwardGuard, Relu) {
    Relu layer;
    EXPECT_THROW((void)layer.backward(Tensor({1, 4})), ShapeError);
    (void)layer.forward(random_tensor({1, 4}, 3), true);
    EXPECT_THROW((void)layer.backward(Tensor({2, 4})), ShapeError);
    EXPECT_NO_THROW((void)layer.backward(Tensor({1, 4})));
}

TEST(BackwardGuard, Swish) {
    Swish layer;
    EXPECT_THROW((void)layer.backward(Tensor({1, 4})), ShapeError);
    (void)layer.forward(random_tensor({1, 4}, 4), true);
    EXPECT_THROW((void)layer.backward(Tensor({2, 4})), ShapeError);
    EXPECT_NO_THROW((void)layer.backward(Tensor({1, 4})));
}

TEST(BackwardGuard, Flatten) {
    Flatten layer;
    EXPECT_THROW((void)layer.backward(Tensor({2, 12})), ShapeError);
    (void)layer.forward(random_tensor({2, 3, 2, 2}, 5), true);
    EXPECT_THROW((void)layer.backward(Tensor({4, 6})), ShapeError);
    EXPECT_EQ(layer.backward(Tensor({2, 12})).shape(),
              (std::vector<std::size_t>{2, 3, 2, 2}));
}

TEST(BackwardGuard, Conv2d) {
    Rng rng(5);
    Conv2d layer(2, 3, 3, 1, 1, rng);
    EXPECT_THROW((void)layer.backward(Tensor({2, 3, 5, 5})), ShapeError);
    EXPECT_THROW(layer.backward_params(Tensor({2, 3, 5, 5})), ShapeError);
    (void)layer.forward(random_tensor({2, 2, 5, 5}, 6), true);
    EXPECT_THROW((void)layer.backward(Tensor({3, 3, 5, 5})), ShapeError);
    EXPECT_THROW(layer.backward_params(Tensor({2, 3, 4, 4})), ShapeError);
    EXPECT_EQ(layer.backward(Tensor({2, 3, 5, 5})).shape(),
              (std::vector<std::size_t>{2, 2, 5, 5}));
}

TEST(BackwardGuard, DepthwiseConv2d) {
    Rng rng(11);
    DepthwiseConv2d layer(3, 3, 2, 1, rng);
    EXPECT_THROW((void)layer.backward(Tensor({2, 3, 3, 3})), ShapeError);
    (void)layer.forward(random_tensor({2, 3, 6, 6}, 12), true);
    EXPECT_THROW((void)layer.backward(Tensor({2, 3, 6, 6})), ShapeError);
    EXPECT_EQ(layer.backward(Tensor({2, 3, 3, 3})).shape(),
              (std::vector<std::size_t>{2, 3, 6, 6}));
}

TEST(BackwardGuard, GlobalAvgPool) {
    GlobalAvgPool layer;
    EXPECT_THROW((void)layer.backward(Tensor({2, 3})), ShapeError);
    (void)layer.forward(random_tensor({2, 3, 4, 4}, 15), true);
    EXPECT_THROW((void)layer.backward(Tensor({3, 3})), ShapeError);
    EXPECT_EQ(layer.backward(Tensor({2, 3})).shape(),
              (std::vector<std::size_t>{2, 3, 4, 4}));
}

TEST(Gradients, SoftmaxCrossEntropy) {
    Tensor logits = random_tensor({4, 5}, 16);
    const std::vector<int> labels{0, 2, 4, 1};
    const LossResult analytic = softmax_cross_entropy(logits, labels);
    for (std::size_t i = 0; i < logits.size(); ++i) {
        const auto loss_fn = [&](float*) {
            return softmax_cross_entropy(logits, labels).loss;
        };
        const double expected = numerical_grad(loss_fn, &logits[i]);
        EXPECT_NEAR(analytic.grad_logits[i], expected, 2e-2) << i;
    }
}

// -------------------------------------------------------------------- Loss

TEST(Loss, PerfectPredictionLowLoss) {
    Tensor logits({2, 3});
    logits[0] = 10.0f;             // row 0 -> class 0
    logits[1 * 3 + 2] = 10.0f;     // row 1 -> class 2
    const LossResult r = softmax_cross_entropy(logits, {0, 2});
    EXPECT_LT(r.loss, 0.01);
    EXPECT_NEAR(accuracy(logits, {0, 2}), 1.0, 1e-9);
}

TEST(Loss, UniformLogitsGiveLogC) {
    Tensor logits({1, 10});
    const LossResult r = softmax_cross_entropy(logits, {3});
    EXPECT_NEAR(r.loss, std::log(10.0), 1e-5);
}

// --------------------------------------------------------------- Optimizer

TEST(Sgd, ConvergesOnQuadratic) {
    // Minimize (w - 3)^2 via gradient 2(w-3).
    Tensor w({1});
    Tensor g({1});
    Sgd sgd(SgdConfig{0.1f, 0.0f, 0.0f});
    for (int i = 0; i < 100; ++i) {
        g[0] = 2.0f * (w[0] - 3.0f);
        sgd.step({&w}, {&g});
    }
    EXPECT_NEAR(w[0], 3.0f, 1e-3);
}

TEST(Sgd, MomentumAccelerates) {
    const auto run = [](float momentum) {
        Tensor w({1});
        Tensor g({1});
        Sgd sgd(SgdConfig{0.01f, momentum, 0.0f});
        for (int i = 0; i < 50; ++i) {
            g[0] = 2.0f * (w[0] - 3.0f);
            sgd.step({&w}, {&g});
        }
        return std::abs(w[0] - 3.0f);
    };
    EXPECT_LT(run(0.9f), run(0.0f));
}

// ------------------------------------------------------------------ Models

TEST(Models, SimpleNnShapesAndDeterminism) {
    const InputDims dims;
    Sequential a = make_simple_nn(dims, 7);
    Sequential b = make_simple_nn(dims, 7);
    EXPECT_EQ(a.flat_weights(), b.flat_weights());
    EXPECT_GT(a.parameter_count(), 40'000u);  // ~43K params

    const Tensor batch = random_tensor({4, 3, 12, 12}, 1);
    Sequential model = make_simple_nn(dims, 7);
    const Tensor logits = model.forward(batch, false);
    EXPECT_EQ(logits.shape(), (std::vector<std::size_t>{4, 10}));
}

TEST(Models, FlatWeightsRoundTrip) {
    Sequential model = make_simple_nn(InputDims{}, 3);
    auto weights = model.flat_weights();
    weights[0] = 42.0f;
    model.set_flat_weights(weights);
    EXPECT_EQ(model.flat_weights()[0], 42.0f);
    weights.pop_back();
    EXPECT_THROW(model.set_flat_weights(weights), ShapeError);
}

TEST(Models, EffNetLiteForward) {
    const InputDims dims;
    EffNetLite model = make_effnet_lite(dims, 9);
    const Tensor batch = random_tensor({2, 3, 12, 12}, 2);
    const Tensor logits = model.forward(batch);
    EXPECT_EQ(logits.shape(), (std::vector<std::size_t>{2, 10}));
    EXPECT_EQ(model.embed_dim, 64u);
}

TEST(Models, EffNetFlatWeightsSplit) {
    EffNetLite model = make_effnet_lite(InputDims{}, 9);
    const auto weights = model.flat_weights();
    EXPECT_EQ(weights.size(),
              model.backbone.parameter_count() + model.head.parameter_count());
    EffNetLite other = make_effnet_lite(InputDims{}, 10);
    other.set_flat_weights(weights);
    EXPECT_EQ(other.flat_weights(), weights);
}

TEST(Models, EmbeddingMatchesFullForward) {
    EffNetLite model = make_effnet_lite(InputDims{}, 11);
    SyntheticCifarConfig config;
    config.train_per_client = 16;
    config.test_per_client = 8;
    config.global_test = 8;
    const FederatedData fed = make_synthetic_cifar(config);
    const Dataset embedded = embed_dataset(model, fed.global_test);
    // head(embedding) == full forward
    const Tensor direct = model.forward(fed.global_test.images);
    const Tensor via_embed = model.head.forward(embedded.images, false);
    ASSERT_EQ(direct.size(), via_embed.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_NEAR(direct[i], via_embed[i], 1e-4);
    }
}

// -------------------------------------------------------------------- Data

TEST(Data, DeterministicGeneration) {
    SyntheticCifarConfig config;
    config.train_per_client = 20;
    config.test_per_client = 10;
    config.global_test = 10;
    const FederatedData a = make_synthetic_cifar(config);
    const FederatedData b = make_synthetic_cifar(config);
    EXPECT_EQ(a.client_train[0].images.values(),
              b.client_train[0].images.values());
    EXPECT_EQ(a.client_train[0].labels, b.client_train[0].labels);
}

TEST(Data, ShapesAndRanges) {
    SyntheticCifarConfig config;
    config.train_per_client = 30;
    config.test_per_client = 10;
    config.global_test = 20;
    const FederatedData fed = make_synthetic_cifar(config);
    ASSERT_EQ(fed.client_train.size(), 3u);
    EXPECT_EQ(fed.client_train[0].images.shape(),
              (std::vector<std::size_t>{30, 3, 12, 12}));
    for (float v : fed.global_test.images.values()) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
    }
    for (int label : fed.client_train[1].labels) {
        EXPECT_GE(label, 0);
        EXPECT_LT(label, 10);
    }
}

TEST(Data, DirichletMakesClientsHeterogeneous) {
    SyntheticCifarConfig config;
    config.train_per_client = 300;
    config.test_per_client = 10;
    config.global_test = 10;
    config.dirichlet_alpha = 0.2;
    const FederatedData fed = make_synthetic_cifar(config);
    // Class histograms should differ meaningfully between clients.
    const auto histogram = [&](const Dataset& d) {
        std::vector<double> h(config.classes, 0.0);
        for (int label : d.labels) h[static_cast<std::size_t>(label)] += 1.0;
        for (auto& v : h) v /= static_cast<double>(d.labels.size());
        return h;
    };
    const auto h0 = histogram(fed.client_train[0]);
    const auto h1 = histogram(fed.client_train[1]);
    double l1 = 0.0;
    for (std::size_t k = 0; k < config.classes; ++k) {
        l1 += std::abs(h0[k] - h1[k]);
    }
    EXPECT_GT(l1, 0.3);
}

TEST(Data, SubsetAndBatch) {
    SyntheticCifarConfig config;
    config.train_per_client = 10;
    config.test_per_client = 4;
    config.global_test = 4;
    const FederatedData fed = make_synthetic_cifar(config);
    const Dataset& d = fed.client_train[0];
    const Dataset sub = d.subset({1, 3, 5});
    EXPECT_EQ(sub.size(), 3u);
    EXPECT_EQ(sub.labels[0], d.labels[1]);
    auto [images, labels] = d.batch(2, 5);
    EXPECT_EQ(images.dim(0), 3u);
    EXPECT_EQ(labels.size(), 3u);
    EXPECT_EQ(labels[0], d.labels[2]);
}

// ----------------------------------------------------------- Serialization

TEST(Serialize, RoundTrip) {
    std::vector<float> weights{1.5f, -2.25f, 0.0f, 1e-8f, 3.14159f};
    const Bytes blob = serialize_weights(weights);
    EXPECT_EQ(deserialize_weights(blob), weights);
}

TEST(Serialize, SizeMatchesSerializedBlob) {
    for (std::size_t count : {0u, 1u, 100u}) {
        const std::vector<float> weights(count, 0.25f);
        EXPECT_EQ(serialized_weights_size(count),
                  serialize_weights(weights).size());
    }
}

TEST(Serialize, DetectsCorruption) {
    std::vector<float> weights(100, 0.5f);
    Bytes blob = serialize_weights(weights);
    blob[20] ^= 0x01;
    EXPECT_THROW(deserialize_weights(blob), DecodeError);
}

TEST(Serialize, DigestStableAndSensitive) {
    std::vector<float> w1(10, 1.0f);
    std::vector<float> w2(10, 1.0f);
    EXPECT_EQ(weights_digest(w1), weights_digest(w2));
    w2[3] += 1e-3f;
    EXPECT_NE(weights_digest(w1), weights_digest(w2));
}

TEST(Serialize, RejectsGarbage) {
    EXPECT_THROW(deserialize_weights(str_bytes("not a model")), DecodeError);
}

// Builds a structurally valid header declaring `count` parameters over an
// empty payload (magic + version + count + digest = 45 bytes).
Bytes forged_count_blob(std::uint64_t count) {
    Bytes blob{'b', 'c', 'f', 'l', 1};
    append(blob, be_bytes(count));
    blob.resize(blob.size() + 32);  // digest placeholder
    return blob;
}

TEST(Serialize, CountOverflowCannotWrapLengthCheck) {
    // count = 2^62 makes count*4 wrap to 0 in 64-bit arithmetic, so the
    // pre-cap length check `size == header + count*4 + digest` accepted a
    // 45-byte blob and then tried to allocate 2^62 floats. The count cap
    // must reject it as a typed decode error instead.
    EXPECT_THROW(deserialize_weights(forged_count_blob(1ull << 62)),
                 DecodeError);
    // One past the cap (2^28): rejected by the cap, not by OOM.
    EXPECT_THROW(deserialize_weights(forged_count_blob((1ull << 28) + 1)),
                 DecodeError);
}

TEST(Serialize, EmptyModelRoundTrips) {
    // Zero-parameter blob (fuzz corpus seed empty_model): the decoder must
    // not hand a null destination to memcpy even for a zero-length copy —
    // UBSan flags that as a contract violation.
    const Bytes blob = serialize_weights(std::span<const float>{});
    const std::vector<float> weights = deserialize_weights(blob);
    EXPECT_TRUE(weights.empty());
    EXPECT_EQ(serialize_weights(weights), blob);
}

TEST(Serialize, EncodeSideRespectsSameCap) {
    // A span that *claims* to exceed the cap must be refused before the
    // serializer sizes a multi-GiB buffer. (The pointer is never read —
    // the guard fires on the size alone.)
    const std::span<const float> absurd(static_cast<const float*>(nullptr),
                                        (1ull << 28) + 1);
    EXPECT_THROW((void)serialize_weights(absurd), ShapeError);
}

// ---------------------------------------------------------------- Training

TEST(Training, SimpleNnLearnsSyntheticData) {
    SyntheticCifarConfig config;
    config.train_per_client = 300;
    config.test_per_client = 150;
    config.global_test = 10;
    config.dirichlet_alpha = 100.0;  // IID for this sanity check
    const FederatedData fed = make_synthetic_cifar(config);

    Sequential model = make_simple_nn(InputDims{}, 21);
    const double before = evaluate_accuracy(model, fed.client_test[0]);
    TrainConfig train_config;
    train_config.epochs = 8;
    Sgd sgd(train_config.sgd);
    train(model, fed.client_train[0], train_config, sgd);
    const double after = evaluate_accuracy(model, fed.client_test[0]);
    EXPECT_GT(after, before + 0.2) << "before=" << before << " after=" << after;
    EXPECT_GT(after, 0.4);
}

TEST(Training, LossDecreases) {
    SyntheticCifarConfig config;
    config.train_per_client = 200;
    config.test_per_client = 10;
    config.global_test = 10;
    const FederatedData fed = make_synthetic_cifar(config);
    Sequential model = make_simple_nn(InputDims{}, 22);
    TrainConfig tc;
    tc.epochs = 1;
    Sgd sgd(tc.sgd);
    const TrainReport first = train(model, fed.client_train[0], tc, sgd);
    TrainReport last = first;
    for (int i = 0; i < 5; ++i) last = train(model, fed.client_train[0], tc, sgd);
    EXPECT_LT(last.final_loss, first.final_loss);
}

// ------------------------------------------------ Parameters-only backward

/// Sequential::backward stops at the first trainable layer and runs its
/// backward_params(); the gradients must equal those of the whole walk
/// (backward_to_input) bit for bit.
void expect_params_only_backward_matches(Sequential& params_only,
                                         Sequential& full,
                                         const Tensor& input) {
    ASSERT_EQ(params_only.flat_weights(), full.flat_weights());
    const Tensor out = params_only.forward(input, true);
    (void)full.forward(input, true);
    const Tensor grad = random_tensor(out.shape(), 77);
    params_only.backward(grad);
    const Tensor grad_input = full.backward_to_input(grad);
    EXPECT_EQ(grad_input.shape(), input.shape());
    const auto got = params_only.gradients();
    const auto want = full.gradients();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t t = 0; t < got.size(); ++t) {
        EXPECT_TRUE(same_bits(got[t]->values(), want[t]->values()))
            << "gradient tensor " << t;
    }
    // The first trainable layer's gradients are filled, not left at zero.
    const std::vector<float>& first = got.front()->values();
    EXPECT_TRUE(std::any_of(first.begin(), first.end(),
                            [](float v) { return v != 0.0f; }));
}

TEST(Backward, ParamsOnlyMatchesFullWalkDenseFirst) {
    // Flatten -> Dense -> ReLU -> Dense: the first trainable layer is Dense.
    Sequential params_only = make_simple_nn(InputDims{}, 7);
    Sequential full = make_simple_nn(InputDims{}, 7);
    expect_params_only_backward_matches(params_only, full,
                                        random_tensor({5, 3, 12, 12}, 8));
}

TEST(Backward, ParamsOnlyMatchesFullWalkConv2dFirst) {
    // The EffNet-lite backbone opens with its stem Conv2d.
    EffNetLite params_only = make_effnet_lite(InputDims{}, 9);
    EffNetLite full = make_effnet_lite(InputDims{}, 9);
    expect_params_only_backward_matches(params_only.backbone, full.backbone,
                                        random_tensor({3, 3, 12, 12}, 10));
}

// ------------------------------------------------------ Training digests
//
// weights_digest pins of whole training runs. The pinned bits are those of
// plain serial loops in the order the kernels promise, with every input
// gradient computed; any change to a kernel's summation order, its zero
// skip or its rounding moves them.

TEST(TrainingDigest, SimpleNnTwoEpochs) {
    SyntheticCifarConfig config;
    config.train_per_client = 150;  // 4 full batches and one of 22
    config.test_per_client = 10;
    config.global_test = 10;
    const FederatedData fed = make_synthetic_cifar(config);
    Sequential model = make_simple_nn(InputDims{}, 31);
    TrainConfig train_config;
    train_config.epochs = 2;
    train_config.sgd = SgdConfig{0.05f, 0.9f, 1e-4f};
    Sgd sgd(train_config.sgd);
    train(model, fed.client_train[0], train_config, sgd);
    EXPECT_EQ(weights_digest(model.flat_weights()).hex(),
              "8b029d0b6860895ce880ec5bb28b9d3e14cedad37fffead9afc577673e139bba");
}

TEST(TrainingDigest, EffnetPretrainedBackbone) {
    SyntheticCifarConfig config;
    config.train_per_client = 8;
    config.test_per_client = 4;
    config.global_test = 4;
    const FederatedData fed = make_synthetic_cifar(config);
    fl::EffnetTaskOptions options;
    options.pretrain_samples = 80;  // 2 full batches and one of 16
    options.pretrain_epochs = 2;
    const fl::FlTask task = fl::make_effnet_task(fed, 5, options);
    // The published vector: the pretrained backbone, then the fresh head.
    EXPECT_EQ(weights_digest(task.make_model()->weights()).hex(),
              "618e87f878b8ba25e97b802e1b3da384b8d3c4a32b3ef07fb117137bace543c1");
}

}  // namespace
}  // namespace bcfl::ml
