#include "ml/layers.hpp"

#include <cmath>
#include <cstring>
#include <string>

#include "common/error.hpp"

namespace bcfl::ml {

namespace {

/// The guard of every backward: the loops below index the caches of the
/// last training-mode forward with `grad_output`, so it must have
/// `expected`, the shape that forward returned (empty when none ran).
void check_grad(const char* layer, const Tensor& grad_output,
                const std::vector<std::size_t>& expected) {
    if (expected.empty()) {
        throw ShapeError(std::string(layer) +
                         ": backward before a training-mode forward");
    }
    if (grad_output.shape() != expected) {
        throw ShapeError(std::string(layer) +
                         ": grad_output does not match the forward output");
    }
}

}  // namespace

void he_init(Tensor& tensor, std::size_t fan_in, Rng& rng) {
    const double scale = std::sqrt(2.0 / static_cast<double>(fan_in));
    for (float& v : tensor.values()) {
        v = static_cast<float>(rng.normal() * scale);
    }
}

// -------------------------------------------------------------------- Dense

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_({in_features, out_features}),
      bias_({out_features}),
      weight_grad_({in_features, out_features}),
      bias_grad_({out_features}) {
    he_init(weight_, in_features, rng);
}

Tensor Dense::forward(const Tensor& input, bool training) {
    if (input.rank() != 2 || input.dim(1) != in_) {
        throw ShapeError("dense: expected {N, " + std::to_string(in_) + "}");
    }
    const std::size_t n = input.dim(0);
    Tensor out({n, out_});
    matmul_nn(input.data(), weight_.data(), out.data(), n, in_, out_, false);
    for (std::size_t i = 0; i < n; ++i) {
        float* row = out.data() + i * out_;
        for (std::size_t j = 0; j < out_; ++j) row[j] += bias_[j];
    }
    if (training) input_cache_ = input;
    return out;
}

void Dense::backward_params(const Tensor& grad_output) {
    std::vector<std::size_t> expected;
    if (input_cache_.rank() == 2) expected = {input_cache_.dim(0), out_};
    check_grad("dense", grad_output, expected);
    const std::size_t n = input_cache_.dim(0);
    // dW = X^T * dY ; db = sum rows dY
    matmul_tn(input_cache_.data(), grad_output.data(), weight_grad_.data(),
              in_, n, out_, false);
    bias_grad_.fill(0.0f);
    for (std::size_t i = 0; i < n; ++i) {
        const float* row = grad_output.data() + i * out_;
        for (std::size_t j = 0; j < out_; ++j) bias_grad_[j] += row[j];
    }
}

Tensor Dense::backward(const Tensor& grad_output) {
    backward_params(grad_output);
    // dX = dY * W^T
    const std::size_t n = input_cache_.dim(0);
    Tensor grad_input({n, in_});
    matmul_nt(grad_output.data(), weight_.data(), grad_input.data(), n, out_,
              in_, false);
    return grad_input;
}

// --------------------------------------------------------------------- ReLU

Tensor Relu::forward(const Tensor& input, bool training) {
    Tensor out = input;
    for (float& v : out.values()) v = v > 0.0f ? v : 0.0f;
    if (training) input_cache_ = input;
    return out;
}

Tensor Relu::backward(const Tensor& grad_output) {
    check_grad("relu", grad_output, input_cache_.shape());
    Tensor grad = grad_output;
    for (std::size_t i = 0; i < grad.size(); ++i) {
        if (input_cache_[i] <= 0.0f) grad[i] = 0.0f;
    }
    return grad;
}

// -------------------------------------------------------------------- Swish

Tensor Swish::forward(const Tensor& input, bool training) {
    Tensor out = input;
    for (float& v : out.values()) {
        const float s = 1.0f / (1.0f + std::exp(-v));
        v = v * s;
    }
    if (training) input_cache_ = input;
    return out;
}

Tensor Swish::backward(const Tensor& grad_output) {
    check_grad("swish", grad_output, input_cache_.shape());
    Tensor grad = grad_output;
    for (std::size_t i = 0; i < grad.size(); ++i) {
        const float x = input_cache_[i];
        const float s = 1.0f / (1.0f + std::exp(-x));
        grad[i] *= s + x * s * (1.0f - s);
    }
    return grad;
}

// ------------------------------------------------------------------ Flatten

Tensor Flatten::forward(const Tensor& input, bool training) {
    if (training) input_shape_ = input.shape();
    Tensor out = input;
    const std::size_t n = input.dim(0);
    out.reshape({n, input.size() / n});
    return out;
}

Tensor Flatten::backward(const Tensor& grad_output) {
    std::vector<std::size_t> expected;
    if (!input_shape_.empty()) {
        std::size_t features = 1;
        for (std::size_t i = 1; i < input_shape_.size(); ++i) {
            features *= input_shape_[i];
        }
        expected = {input_shape_[0], features};
    }
    check_grad("flatten", grad_output, expected);
    Tensor grad = grad_output;
    grad.reshape(input_shape_);
    return grad;
}

// ------------------------------------------------------------------- Conv2d

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               Rng& rng)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(padding),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}),
      weight_grad_({out_channels, in_channels, kernel, kernel}),
      bias_grad_({out_channels}) {
    he_init(weight_, in_channels * kernel * kernel, rng);
}

namespace {

struct ConvDims {
    std::size_t n, c, h, w, out_h, out_w;
};

ConvDims conv_dims(const Tensor& input, std::size_t kernel, std::size_t stride,
                   std::size_t pad) {
    if (input.rank() != 4) throw ShapeError("conv: expected NCHW");
    ConvDims d{};
    d.n = input.dim(0);
    d.c = input.dim(1);
    d.h = input.dim(2);
    d.w = input.dim(3);
    d.out_h = (d.h + 2 * pad - kernel) / stride + 1;
    d.out_w = (d.w + 2 * pad - kernel) / stride + 1;
    return d;
}

/// Gathers a sample's patches into a {c*k*k, out_h*out_w} column matrix.
void im2col(const float* src, std::size_t c, std::size_t h, std::size_t w,
            std::size_t kernel, std::size_t stride, std::size_t pad,
            std::size_t out_h, std::size_t out_w, float* col) {
    std::size_t row = 0;
    for (std::size_t ch = 0; ch < c; ++ch) {
        for (std::size_t ky = 0; ky < kernel; ++ky) {
            for (std::size_t kx = 0; kx < kernel; ++kx, ++row) {
                float* dst = col + row * out_h * out_w;
                for (std::size_t oy = 0; oy < out_h; ++oy) {
                    const std::ptrdiff_t iy =
                        static_cast<std::ptrdiff_t>(oy * stride + ky) -
                        static_cast<std::ptrdiff_t>(pad);
                    for (std::size_t ox = 0; ox < out_w; ++ox) {
                        const std::ptrdiff_t ix =
                            static_cast<std::ptrdiff_t>(ox * stride + kx) -
                            static_cast<std::ptrdiff_t>(pad);
                        const bool inside =
                            iy >= 0 && iy < static_cast<std::ptrdiff_t>(h) &&
                            ix >= 0 && ix < static_cast<std::ptrdiff_t>(w);
                        *dst++ = inside
                                     ? src[ch * h * w +
                                           static_cast<std::size_t>(iy) * w +
                                           static_cast<std::size_t>(ix)]
                                     : 0.0f;
                    }
                }
            }
        }
    }
}

/// Scatters a column matrix back into a sample's gradient image.
void col2im(const float* col, std::size_t c, std::size_t h, std::size_t w,
            std::size_t kernel, std::size_t stride, std::size_t pad,
            std::size_t out_h, std::size_t out_w, float* dst) {
    std::size_t row = 0;
    for (std::size_t ch = 0; ch < c; ++ch) {
        for (std::size_t ky = 0; ky < kernel; ++ky) {
            for (std::size_t kx = 0; kx < kernel; ++kx, ++row) {
                const float* src = col + row * out_h * out_w;
                for (std::size_t oy = 0; oy < out_h; ++oy) {
                    const std::ptrdiff_t iy =
                        static_cast<std::ptrdiff_t>(oy * stride + ky) -
                        static_cast<std::ptrdiff_t>(pad);
                    for (std::size_t ox = 0; ox < out_w; ++ox, ++src) {
                        const std::ptrdiff_t ix =
                            static_cast<std::ptrdiff_t>(ox * stride + kx) -
                            static_cast<std::ptrdiff_t>(pad);
                        if (iy >= 0 && iy < static_cast<std::ptrdiff_t>(h) &&
                            ix >= 0 && ix < static_cast<std::ptrdiff_t>(w)) {
                            dst[ch * h * w +
                                static_cast<std::size_t>(iy) * w +
                                static_cast<std::size_t>(ix)] += *src;
                        }
                    }
                }
            }
        }
    }
}

/// conv_dims of a conv layer's cached input, once `grad_output` is checked
/// against the {N, out_c, out_h, out_w} the forward produced from it.
ConvDims checked_conv_dims(const char* layer, const Tensor& input,
                           const Tensor& grad_output, std::size_t out_c,
                           std::size_t kernel, std::size_t stride,
                           std::size_t pad) {
    ConvDims d{};
    std::vector<std::size_t> expected;
    if (input.rank() == 4) {
        d = conv_dims(input, kernel, stride, pad);
        expected = {d.n, out_c, d.out_h, d.out_w};
    }
    check_grad(layer, grad_output, expected);
    return d;
}

}  // namespace

Tensor Conv2d::forward(const Tensor& input, bool training) {
    const ConvDims d = conv_dims(input, kernel_, stride_, pad_);
    if (d.c != in_c_) throw ShapeError("conv2d: channel mismatch");
    const std::size_t patch = in_c_ * kernel_ * kernel_;
    const std::size_t cols = d.out_h * d.out_w;
    Tensor out({d.n, out_c_, d.out_h, d.out_w});
    std::vector<float> col(patch * cols);
    for (std::size_t s = 0; s < d.n; ++s) {
        im2col(input.data() + s * d.c * d.h * d.w, d.c, d.h, d.w, kernel_,
               stride_, pad_, d.out_h, d.out_w, col.data());
        float* out_sample = out.data() + s * out_c_ * cols;
        matmul_nn(weight_.data(), col.data(), out_sample, out_c_, patch, cols,
                  false);
        for (std::size_t oc = 0; oc < out_c_; ++oc) {
            float* plane = out_sample + oc * cols;
            for (std::size_t i = 0; i < cols; ++i) plane[i] += bias_[oc];
        }
    }
    if (training) input_cache_ = input;
    return out;
}

void Conv2d::backward_params(const Tensor& grad_output) {
    const Tensor& input = input_cache_;
    const ConvDims d = checked_conv_dims("conv2d", input, grad_output, out_c_,
                                         kernel_, stride_, pad_);
    const std::size_t patch = in_c_ * kernel_ * kernel_;
    const std::size_t cols = d.out_h * d.out_w;

    weight_grad_.fill(0.0f);
    bias_grad_.fill(0.0f);
    std::vector<float> col(patch * cols);
    for (std::size_t s = 0; s < d.n; ++s) {
        im2col(input.data() + s * d.c * d.h * d.w, d.c, d.h, d.w, kernel_,
               stride_, pad_, d.out_h, d.out_w, col.data());
        const float* grad_sample = grad_output.data() + s * out_c_ * cols;
        // dW += dY * col^T
        matmul_nt(grad_sample, col.data(), weight_grad_.data(), out_c_, cols,
                  patch, true);
        // db += row sums of dY
        for (std::size_t oc = 0; oc < out_c_; ++oc) {
            const float* plane = grad_sample + oc * cols;
            for (std::size_t i = 0; i < cols; ++i) bias_grad_[oc] += plane[i];
        }
    }
}

Tensor Conv2d::backward(const Tensor& grad_output) {
    backward_params(grad_output);
    const ConvDims d = conv_dims(input_cache_, kernel_, stride_, pad_);
    const std::size_t patch = in_c_ * kernel_ * kernel_;
    const std::size_t cols = d.out_h * d.out_w;
    Tensor grad_input(input_cache_.shape());
    std::vector<float> dcol(patch * cols);
    for (std::size_t s = 0; s < d.n; ++s) {
        const float* grad_sample = grad_output.data() + s * out_c_ * cols;
        // dcol = W^T * dY
        matmul_tn(weight_.data(), grad_sample, dcol.data(), patch, out_c_,
                  cols, false);
        col2im(dcol.data(), d.c, d.h, d.w, kernel_, stride_, pad_, d.out_h,
               d.out_w, grad_input.data() + s * d.c * d.h * d.w);
    }
    return grad_input;
}

// ---------------------------------------------------------- DepthwiseConv2d

DepthwiseConv2d::DepthwiseConv2d(std::size_t channels, std::size_t kernel,
                                 std::size_t stride, std::size_t padding,
                                 Rng& rng)
    : channels_(channels),
      kernel_(kernel),
      stride_(stride),
      pad_(padding),
      weight_({channels, kernel, kernel}),
      bias_({channels}),
      weight_grad_({channels, kernel, kernel}),
      bias_grad_({channels}) {
    he_init(weight_, kernel * kernel, rng);
}

Tensor DepthwiseConv2d::forward(const Tensor& input, bool training) {
    const ConvDims d = conv_dims(input, kernel_, stride_, pad_);
    if (d.c != channels_) throw ShapeError("dwconv: channel mismatch");
    Tensor out({d.n, channels_, d.out_h, d.out_w});
    for (std::size_t s = 0; s < d.n; ++s) {
        for (std::size_t ch = 0; ch < channels_; ++ch) {
            const float* plane = input.data() + (s * d.c + ch) * d.h * d.w;
            const float* kern = weight_.data() + ch * kernel_ * kernel_;
            float* dst = out.data() + (s * d.c + ch) * d.out_h * d.out_w;
            for (std::size_t oy = 0; oy < d.out_h; ++oy) {
                for (std::size_t ox = 0; ox < d.out_w; ++ox) {
                    float acc = bias_[ch];
                    for (std::size_t ky = 0; ky < kernel_; ++ky) {
                        const std::ptrdiff_t iy =
                            static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                            static_cast<std::ptrdiff_t>(pad_);
                        if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(d.h)) {
                            continue;
                        }
                        for (std::size_t kx = 0; kx < kernel_; ++kx) {
                            const std::ptrdiff_t ix =
                                static_cast<std::ptrdiff_t>(ox * stride_ +
                                                            kx) -
                                static_cast<std::ptrdiff_t>(pad_);
                            if (ix < 0 ||
                                ix >= static_cast<std::ptrdiff_t>(d.w)) {
                                continue;
                            }
                            acc += kern[ky * kernel_ + kx] *
                                   plane[static_cast<std::size_t>(iy) * d.w +
                                         static_cast<std::size_t>(ix)];
                        }
                    }
                    *dst++ = acc;
                }
            }
        }
    }
    if (training) input_cache_ = input;
    return out;
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_output) {
    const Tensor& input = input_cache_;
    const ConvDims d = checked_conv_dims("dwconv2d", input, grad_output,
                                         channels_, kernel_, stride_, pad_);
    weight_grad_.fill(0.0f);
    bias_grad_.fill(0.0f);
    Tensor grad_input(input.shape());
    for (std::size_t s = 0; s < d.n; ++s) {
        for (std::size_t ch = 0; ch < channels_; ++ch) {
            const float* plane = input.data() + (s * d.c + ch) * d.h * d.w;
            const float* kern = weight_.data() + ch * kernel_ * kernel_;
            float* kern_grad = weight_grad_.data() + ch * kernel_ * kernel_;
            float* in_grad = grad_input.data() + (s * d.c + ch) * d.h * d.w;
            const float* dout =
                grad_output.data() + (s * d.c + ch) * d.out_h * d.out_w;
            for (std::size_t oy = 0; oy < d.out_h; ++oy) {
                for (std::size_t ox = 0; ox < d.out_w; ++ox) {
                    const float g = dout[oy * d.out_w + ox];
                    if (g == 0.0f) continue;
                    bias_grad_[ch] += g;
                    for (std::size_t ky = 0; ky < kernel_; ++ky) {
                        const std::ptrdiff_t iy =
                            static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                            static_cast<std::ptrdiff_t>(pad_);
                        if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(d.h)) {
                            continue;
                        }
                        for (std::size_t kx = 0; kx < kernel_; ++kx) {
                            const std::ptrdiff_t ix =
                                static_cast<std::ptrdiff_t>(ox * stride_ +
                                                            kx) -
                                static_cast<std::ptrdiff_t>(pad_);
                            if (ix < 0 ||
                                ix >= static_cast<std::ptrdiff_t>(d.w)) {
                                continue;
                            }
                            const std::size_t idx =
                                static_cast<std::size_t>(iy) * d.w +
                                static_cast<std::size_t>(ix);
                            kern_grad[ky * kernel_ + kx] += g * plane[idx];
                            in_grad[idx] += g * kern[ky * kernel_ + kx];
                        }
                    }
                }
            }
        }
    }
    return grad_input;
}

// ------------------------------------------------------------ GlobalAvgPool

Tensor GlobalAvgPool::forward(const Tensor& input, bool training) {
    if (input.rank() != 4) throw ShapeError("gap: expected NCHW");
    const std::size_t n = input.dim(0);
    const std::size_t c = input.dim(1);
    const std::size_t spatial = input.dim(2) * input.dim(3);
    Tensor out({n, c});
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float* plane = input.data() + (s * c + ch) * spatial;
            float acc = 0.0f;
            for (std::size_t i = 0; i < spatial; ++i) acc += plane[i];
            out[s * c + ch] = acc / static_cast<float>(spatial);
        }
    }
    if (training) input_shape_ = input.shape();
    return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
    std::vector<std::size_t> expected;
    if (input_shape_.size() == 4) expected = {input_shape_[0], input_shape_[1]};
    check_grad("gap", grad_output, expected);
    Tensor grad(input_shape_);
    const std::size_t n = input_shape_[0];
    const std::size_t c = input_shape_[1];
    const std::size_t spatial = input_shape_[2] * input_shape_[3];
    const float scale = 1.0f / static_cast<float>(spatial);
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float g = grad_output[s * c + ch] * scale;
            float* plane = grad.data() + (s * c + ch) * spatial;
            for (std::size_t i = 0; i < spatial; ++i) plane[i] = g;
        }
    }
    return grad;
}

// --------------------------------------------------------------- Sequential

Tensor Sequential::forward(const Tensor& input, bool training) {
    Tensor activation = input;
    for (auto& layer : layers_) {
        activation = layer->forward(activation, training);
    }
    return activation;
}

void Sequential::backward(const Tensor& grad_output) {
    std::size_t first = 0;
    while (first < layers_.size() && layers_[first]->parameters().empty()) {
        ++first;
    }
    if (first == layers_.size()) return;
    Tensor grad = grad_output;
    for (std::size_t i = layers_.size() - 1; i > first; --i) {
        grad = layers_[i]->backward(grad);
    }
    layers_[first]->backward_params(grad);
}

Tensor Sequential::backward_to_input(const Tensor& grad_output) {
    Tensor grad = grad_output;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
        grad = (*it)->backward(grad);
    }
    return grad;
}

std::vector<Tensor*> Sequential::parameters() {
    std::vector<Tensor*> out;
    for (auto& layer : layers_) {
        for (Tensor* p : layer->parameters()) out.push_back(p);
    }
    return out;
}

std::vector<Tensor*> Sequential::gradients() {
    std::vector<Tensor*> out;
    for (auto& layer : layers_) {
        for (Tensor* g : layer->gradients()) out.push_back(g);
    }
    return out;
}

std::size_t Sequential::parameter_count() {
    std::size_t count = 0;
    for (Tensor* p : parameters()) count += p->size();
    return count;
}

std::vector<float> Sequential::flat_weights() {
    std::vector<float> out;
    out.reserve(parameter_count());
    for (Tensor* p : parameters()) {
        out.insert(out.end(), p->values().begin(), p->values().end());
    }
    return out;
}

void Sequential::set_flat_weights(std::span<const float> weights) {
    std::size_t offset = 0;
    for (Tensor* p : parameters()) {
        if (offset + p->size() > weights.size()) {
            throw ShapeError("flat weights too short for model");
        }
        std::copy(weights.begin() + static_cast<std::ptrdiff_t>(offset),
                  weights.begin() + static_cast<std::ptrdiff_t>(offset + p->size()),
                  p->values().begin());
        offset += p->size();
    }
    if (offset != weights.size()) {
        throw ShapeError("flat weights longer than model");
    }
}

}  // namespace bcfl::ml
