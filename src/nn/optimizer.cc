#include "nn/optimizer.h"

#include <cmath>
#include <type_traits>

namespace vsd::nn {

void Optimizer::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

Sgd::Sgd(std::vector<Var> params, float lr, float momentum,
         float weight_decay)
    : Optimizer(std::move(params)),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  lr_ = lr;
  velocity_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    velocity_[i].assign(params_[i].value().size(), 0.0f);
  }
}

void Sgd::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& value = params_[i].mutable_value();
    const auto& grad = params_[i].grad();
    if (grad.size() != value.size()) continue;  // never touched by backward
    for (int j = 0; j < value.size(); ++j) {
      float g = grad.at(j);
      if (weight_decay_ > 0.0f) g += weight_decay_ * value.at(j);
      if (momentum_ > 0.0f) {
        velocity_[i][j] = momentum_ * velocity_[i][j] + g;
        g = velocity_[i][j];
      }
      value.at(j) -= lr_ * g;
    }
  }
}

Adam::Adam(std::vector<Var> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  lr_ = lr;
  m_.resize(params_.size());
  v_.resize(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    m_[i].assign(params_[i].value().size(), 0.0f);
    v_[i].assign(params_[i].value().size(), 0.0f);
  }
}

void Adam::Step() {
  ++step_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(step_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(step_));
  const float beta1 = beta1_;
  const float beta2 = beta2_;
  const float keep1 = 1.0f - beta1_;
  const float keep2 = 1.0f - beta2_;
  const float eps = eps_;
  const float lr = lr_;
  const float decay = weight_decay_;
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& value = params_[i].mutable_value();
    const auto& grad = params_[i].grad();
    if (grad.size() != value.size()) continue;
    const int n = value.size();
    const float* g = grad.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    float* w = value.data();
    // Raw pointers, constants in locals and the decay test outside the
    // loop let it vectorise (with -fno-math-errno, see CMakeLists.txt).
    // Each element keeps the scalar order of operations, and vector
    // division and sqrt round as the scalar ones do, so its bits do not
    // depend on the vector width.
    auto update = [&](auto with_decay) {
      for (int j = 0; j < n; ++j) {
        m[j] = beta1 * m[j] + keep1 * g[j];
        v[j] = beta2 * v[j] + keep2 * g[j] * g[j];
        const float mhat = m[j] / bc1;
        const float vhat = v[j] / bc2;
        float step = mhat / (std::sqrt(vhat) + eps);
        if constexpr (decltype(with_decay)::value) step += decay * w[j];
        w[j] -= lr * step;
      }
    };
    if (decay > 0.0f) {
      update(std::true_type{});
    } else {
      update(std::false_type{});
    }
  }
}

}  // namespace vsd::nn
