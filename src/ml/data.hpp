// SyntheticCifar: a procedural 10-class colour-image generator standing in
// for CIFAR-10, so no dataset download is needed (see docs/architecture.md
// for why the substitution preserves the paper's phenomena).
//
// Each class has a smooth random "texture" prototype; samples are the
// prototype under brightness/contrast jitter, spatial shift and pixel noise.
// Clients receive non-IID shards via a Dirichlet(alpha) prior over classes,
// which is what makes single-client models generalize worse than aggregated
// ones (the effect Tables II-IV measure).
#pragma once

#include <cstdint>
#include <vector>

#include "ml/tensor.hpp"

namespace bcfl::ml {

struct Dataset {
    Tensor images;            // {N, C, H, W}
    std::vector<int> labels;  // N entries in [0, classes)

    [[nodiscard]] std::size_t size() const { return labels.size(); }
    /// Rows [begin, end) as a batch tensor + labels.
    [[nodiscard]] std::pair<Tensor, std::vector<int>> batch(
        std::size_t begin, std::size_t end) const;
    /// Subset by indices.
    [[nodiscard]] Dataset subset(const std::vector<std::size_t>& indices) const;
};

struct SyntheticCifarConfig {
    std::size_t classes = 10;
    std::size_t channels = 3;
    std::size_t height = 12;
    std::size_t width = 12;
    std::size_t clients = 3;
    std::size_t train_per_client = 900;
    std::size_t test_per_client = 400;
    std::size_t global_test = 1000;
    double dirichlet_alpha = 0.5;  // < 1: heterogeneous clients
    double noise_std = 0.25;
    // Intra-class augmentation jitter; larger values make the task harder.
    float contrast_jitter = 0.2f;   // contrast in [1-j, 1+j]
    float brightness_jitter = 0.1f; // brightness in [-j, +j]
    float shift_jitter = 0.15f;     // texture shift in [-j, +j]
    std::uint64_t seed = 42;
};

struct FederatedData {
    std::vector<Dataset> client_train;
    std::vector<Dataset> client_test;
    Dataset global_test;
    SyntheticCifarConfig config;
};

/// Generates the full federated split deterministically from config.seed.
[[nodiscard]] FederatedData make_synthetic_cifar(
    const SyntheticCifarConfig& config);

/// A single IID dataset from the same generator family but a shifted seed —
/// used to pre-train the EffNetLite backbone (the transfer-learning source
/// domain standing in for ImageNet).
[[nodiscard]] Dataset make_pretrain_dataset(const SyntheticCifarConfig& config,
                                            std::size_t samples,
                                            std::uint64_t seed_offset = 777);

}  // namespace bcfl::ml
