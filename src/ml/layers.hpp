// Neural-network layers with explicit forward/backward passes.
//
// The layer set covers the paper's two model families: a small from-scratch
// MLP ("Simple NN") and an EfficientNet-flavoured CNN built from standard
// convolutions, depthwise convolutions, pointwise (1x1) convolutions, Swish
// activations and global average pooling.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/tensor.hpp"

namespace bcfl::ml {

class Layer {
public:
    virtual ~Layer() = default;

    virtual Tensor forward(const Tensor& input, bool training) = 0;
    /// Fills gradients() and returns the gradient w.r.t. the input of the
    /// last training-mode forward. Throws ShapeError unless `grad_output`
    /// has the shape of that forward's output.
    virtual Tensor backward(const Tensor& grad_output) = 0;
    /// backward() without the input gradient: the same checks and the same
    /// gradients(), bit for bit. A model's first trainable layer runs this,
    /// since nothing reads its input gradient.
    virtual void backward_params(const Tensor& grad_output) {
        (void)backward(grad_output);
    }

    /// Trainable parameter tensors (empty for stateless layers).
    virtual std::vector<Tensor*> parameters() { return {}; }
    /// Gradients, same order/shape as parameters().
    virtual std::vector<Tensor*> gradients() { return {}; }

    [[nodiscard]] virtual std::string name() const = 0;
};

/// Fully connected: y = x W + b, x is {N, in}, W is {in, out}.
class Dense final : public Layer {
public:
    Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    void backward_params(const Tensor& grad_output) override;
    std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
    std::vector<Tensor*> gradients() override {
        return {&weight_grad_, &bias_grad_};
    }
    [[nodiscard]] std::string name() const override { return "dense"; }

private:
    std::size_t in_;
    std::size_t out_;
    Tensor weight_, bias_, weight_grad_, bias_grad_;
    Tensor input_cache_;
};

class Relu final : public Layer {
public:
    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::string name() const override { return "relu"; }

private:
    Tensor input_cache_;
};

/// Swish / SiLU: x * sigmoid(x) — EfficientNet's activation.
class Swish final : public Layer {
public:
    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::string name() const override { return "swish"; }

private:
    Tensor input_cache_;
};

/// Collapses {N, ...} to {N, D}.
class Flatten final : public Layer {
public:
    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::string name() const override { return "flatten"; }

private:
    std::vector<std::size_t> input_shape_;
};

/// Standard convolution over NCHW input, im2col + matmul implementation.
class Conv2d final : public Layer {
public:
    Conv2d(std::size_t in_channels, std::size_t out_channels,
           std::size_t kernel, std::size_t stride, std::size_t padding,
           Rng& rng);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    void backward_params(const Tensor& grad_output) override;
    std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
    std::vector<Tensor*> gradients() override {
        return {&weight_grad_, &bias_grad_};
    }
    [[nodiscard]] std::string name() const override { return "conv2d"; }

private:
    std::size_t in_c_, out_c_, kernel_, stride_, pad_;
    Tensor weight_, bias_, weight_grad_, bias_grad_;
    Tensor input_cache_;
};

/// Depthwise convolution: one kernel per channel (MBConv building block).
class DepthwiseConv2d final : public Layer {
public:
    DepthwiseConv2d(std::size_t channels, std::size_t kernel,
                    std::size_t stride, std::size_t padding, Rng& rng);

    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
    std::vector<Tensor*> gradients() override {
        return {&weight_grad_, &bias_grad_};
    }
    [[nodiscard]] std::string name() const override { return "dwconv2d"; }

private:
    std::size_t channels_, kernel_, stride_, pad_;
    Tensor weight_, bias_, weight_grad_, bias_grad_;
    Tensor input_cache_;
};

/// {N, C, H, W} -> {N, C} by spatial mean.
class GlobalAvgPool final : public Layer {
public:
    Tensor forward(const Tensor& input, bool training) override;
    Tensor backward(const Tensor& grad_output) override;
    [[nodiscard]] std::string name() const override { return "gap"; }

private:
    std::vector<std::size_t> input_shape_;
};

/// A sequential container that is itself the model abstraction used by the
/// FL layer: flat weight get/set (for FedAvg and chain serialization).
class Sequential {
public:
    Sequential() = default;
    Sequential(Sequential&&) noexcept = default;
    Sequential& operator=(Sequential&&) noexcept = default;

    void add(std::unique_ptr<Layer> layer) {
        layers_.push_back(std::move(layer));
    }

    Tensor forward(const Tensor& input, bool training = false);
    /// Fills gradients() for a training step. The walk stops at the first
    /// layer with parameters and runs its backward_params(): the layers
    /// below it have no gradients to fill and nothing reads its input
    /// gradient.
    void backward(const Tensor& grad_output);
    /// The whole walk: fills gradients() and returns the gradient w.r.t.
    /// the model input, for a model whose input comes from another one.
    Tensor backward_to_input(const Tensor& grad_output);

    [[nodiscard]] std::vector<Tensor*> parameters();
    [[nodiscard]] std::vector<Tensor*> gradients();

    /// Number of scalar parameters.
    [[nodiscard]] std::size_t parameter_count();

    /// Flat weight vector (concatenation of all parameter tensors).
    [[nodiscard]] std::vector<float> flat_weights();
    void set_flat_weights(std::span<const float> weights);

private:
    std::vector<std::unique_ptr<Layer>> layers_;
};

/// He-normal initialization helper shared by the layers.
void he_init(Tensor& tensor, std::size_t fan_in, Rng& rng);

}  // namespace bcfl::ml
