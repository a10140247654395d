#include "nn/layers.h"

#include <cmath>

#include "common/logging.h"

namespace vsd::nn {

namespace ag = ::vsd::autograd;
namespace t = ::vsd::tensor;

Linear::Linear(int in_features, int out_features, Rng* rng)
    : in_features_(in_features), out_features_(out_features) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_features));
  weight_ = Var(t::Tensor::Randn({in_features, out_features}, rng, stddev),
                /*requires_grad=*/true);
  bias_ = Var(t::Tensor::Zeros({out_features}), /*requires_grad=*/true);
}

Var Linear::Forward(const Var& x) const {
  return ag::Add(ag::MatMul(x, weight_), bias_);
}

int Linear::BuildGraph(graph::GraphBuilder* builder, int x) const {
  return builder->AddRows(builder->MatMul(x, builder->Weight(weight_)),
                          builder->Weight(bias_));
}

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int pad, Rng* rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad) {
  const int fan_in = kernel * kernel * in_channels;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  weight_ = Var(t::Tensor::Randn({fan_in, out_channels}, rng, stddev),
                /*requires_grad=*/true);
  bias_ = Var(t::Tensor::Zeros({out_channels}), /*requires_grad=*/true);
}

Var Conv2d::Forward(const Var& x) const {
  return ag::Conv2d(x, weight_, bias_, kernel_, kernel_, stride_, pad_);
}

int Conv2d::BuildGraph(graph::GraphBuilder* builder, int x) const {
  // Copy, not reference: appending nodes below may reallocate the
  // builder's node storage.
  const std::vector<int> shape = builder->node(x).shape;
  VSD_CHECK(shape.size() == 4) << "Conv2d graph input must be [N,H,W,C]";
  VSD_CHECK(shape[3] == in_channels_) << "Conv2d graph channel mismatch";
  const int oh = ag::ConvOutDim(shape[1], kernel_, stride_, pad_);
  const int ow = ag::ConvOutDim(shape[2], kernel_, stride_, pad_);
  const int cols =
      builder->Im2Col(x, kernel_, kernel_, stride_, pad_);
  const int out = builder->AddRows(
      builder->MatMul(cols, builder->Weight(weight_)),
      builder->Weight(bias_));
  return builder->Reshape(out, {shape[0], oh, ow, out_channels_});
}

LayerNorm::LayerNorm(int dim)
    : gamma_(Var(t::Tensor::Full({dim}, 1.0f), /*requires_grad=*/true)),
      beta_(Var(t::Tensor::Zeros({dim}), /*requires_grad=*/true)) {}

Var LayerNorm::Forward(const Var& x) const {
  return ag::LayerNormRows(x, gamma_, beta_);
}

Var Dropout::Forward(const Var& x, bool train, Rng* rng) const {
  if (!train || rate_ <= 0.0f) return x;
  VSD_CHECK(rng != nullptr) << "Dropout in train mode needs an Rng";
  t::Tensor mask(x.value().shape());
  const float keep = 1.0f - rate_;
  for (int i = 0; i < mask.size(); ++i) {
    mask.at(i) = rng->Bernoulli(keep) ? 1.0f / keep : 0.0f;
  }
  return ag::Mul(x, Var(mask));
}

Mlp::Mlp(const std::vector<int>& dims, Activation act, Rng* rng)
    : act_(act) {
  VSD_CHECK(dims.size() >= 2) << "Mlp needs at least in/out dims";
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_shared<Linear>(dims[i], dims[i + 1], rng));
  }
}

Var Mlp::Forward(const Var& x) const {
  Var h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->Forward(h);
    if (i + 1 < layers_.size()) h = Activate(h, act_);
  }
  return h;
}

int Mlp::BuildGraph(graph::GraphBuilder* builder, int x) const {
  int h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i]->BuildGraph(builder, h);
    if (i + 1 < layers_.size()) {
      switch (act_) {
        case Activation::kRelu:
          h = builder->Relu(h);
          break;
        case Activation::kGelu:
          h = builder->Gelu(h);
          break;
        case Activation::kTanh:
          h = builder->Tanh(h);
          break;
      }
    }
  }
  return h;
}

std::vector<Var> Mlp::Parameters() const {
  std::vector<Var> params;
  for (const auto& layer : layers_) {
    for (const auto& p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

Var Activate(const Var& x, Activation act) {
  switch (act) {
    case Activation::kRelu:
      return ag::Relu(x);
    case Activation::kGelu:
      return ag::Gelu(x);
    case Activation::kTanh:
      return ag::TanhV(x);
  }
  return x;
}

}  // namespace vsd::nn
