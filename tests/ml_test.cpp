#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "common/error.hpp"
#include "ml/data.hpp"
#include "ml/layers.hpp"
#include "ml/loss.hpp"
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

TEST(Tensor, MatmulVariantsAgree) {
    // Check A*B == (A^T stored transposed)*B == A*(B^T stored transposed).
    Rng rng(5);
    const std::size_t m = 7, k = 9, n = 11;
    std::vector<float> a(m * k), b(k * n);
    for (auto& v : a) v = static_cast<float>(rng.normal());
    for (auto& v : b) v = static_cast<float>(rng.normal());

    std::vector<float> reference(m * n);
    matmul_nn(a.data(), b.data(), reference.data(), m, k, n, false);

    // a_t[k][m]: transpose of a.
    std::vector<float> a_t(k * m);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t p = 0; p < k; ++p) a_t[p * m + i] = a[i * k + p];
    }
    std::vector<float> out_tn(m * n);
    matmul_tn(a_t.data(), b.data(), out_tn.data(), m, k, n, false);
    for (std::size_t i = 0; i < m * n; ++i) {
        EXPECT_NEAR(out_tn[i], reference[i], 1e-4);
    }

    std::vector<float> b_t(n * k);
    for (std::size_t p = 0; p < k; ++p) {
        for (std::size_t j = 0; j < n; ++j) b_t[j * k + p] = b[p * n + j];
    }
    std::vector<float> out_nt(m * n);
    matmul_nt(a.data(), b_t.data(), out_nt.data(), m, k, n, false);
    for (std::size_t i = 0; i < m * n; ++i) {
        EXPECT_NEAR(out_nt[i], reference[i], 1e-4);
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

}  // namespace
}  // namespace bcfl::ml
