#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "tensor/autograd.h"
#include "tensor/tensor.h"

namespace vsd::nn {
namespace {

namespace ag = ::vsd::autograd;
using ::vsd::tensor::Tensor;

TEST(LinearTest, OutputShape) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  Var x(Tensor::Zeros({5, 4}));
  Var y = layer.Forward(x);
  EXPECT_EQ(y.value().dim(0), 5);
  EXPECT_EQ(y.value().dim(1), 3);
}

TEST(LinearTest, ZeroInputGivesBias) {
  Rng rng(2);
  Linear layer(4, 2, &rng);
  Var x(Tensor::Zeros({1, 4}));
  Var y = layer.Forward(x);
  EXPECT_EQ(y.value().at(0, 0), layer.Parameters()[1].value().at(0));
}

TEST(LinearTest, ParameterCount) {
  Rng rng(3);
  Linear layer(4, 3, &rng);
  EXPECT_EQ(layer.NumParameters(), 4 * 3 + 3);
}

TEST(Conv2dTest, OutputShape) {
  Rng rng(4);
  Conv2d conv(2, 6, /*kernel=*/3, /*stride=*/2, /*pad=*/1, &rng);
  Var x(Tensor::Zeros({3, 8, 8, 2}));
  Var y = conv.Forward(x);
  ASSERT_EQ(y.value().ndim(), 4);
  EXPECT_EQ(y.value().dim(0), 3);
  EXPECT_EQ(y.value().dim(1), 4);
  EXPECT_EQ(y.value().dim(2), 4);
  EXPECT_EQ(y.value().dim(3), 6);
}

TEST(Conv2dTest, TranslationOfConstantInput) {
  // A constant image through a conv with padding 0 yields constant interior.
  Rng rng(5);
  Conv2d conv(1, 1, 3, 1, 0, &rng);
  Var x(Tensor::Full({1, 5, 5, 1}, 1.0f));
  Var y = conv.Forward(x);
  const float center = y.value().at4(0, 1, 1, 0);
  EXPECT_NEAR(y.value().at4(0, 1, 2, 0), center, 1e-5f);
}

TEST(Conv2dTest, ForwardIsOneNodeOverInputWeightsAndBias) {
  // No Im2Col, Add or Reshape node between the input and the output: the
  // output's parents are the input and the layer's two parameters.
  Rng rng(6);
  Conv2d conv(2, 4, /*kernel=*/3, /*stride=*/2, /*pad=*/1, &rng);
  Var x(Tensor::Randn({2, 6, 6, 2}, &rng), /*requires_grad=*/true);
  Var y = conv.Forward(x);
  const std::vector<Var> params = conv.Parameters();
  ASSERT_EQ(y.node()->parents.size(), 3u);
  EXPECT_EQ(y.node()->parents[0], x.node());
  EXPECT_EQ(y.node()->parents[1], params[0].node());
  EXPECT_EQ(y.node()->parents[2], params[1].node());
}

TEST(LayerNormTest, NormalizesRows) {
  LayerNorm ln(4);
  Var x(Tensor::FromVector({2, 4}, {1, 2, 3, 4, 10, 20, 30, 40}));
  Var y = ln.Forward(x);
  for (int i = 0; i < 2; ++i) {
    float mean = 0.0f;
    for (int j = 0; j < 4; ++j) mean += y.value().at(i, j);
    EXPECT_NEAR(mean / 4.0f, 0.0f, 1e-5f);
  }
}

TEST(DropoutTest, IdentityInEval) {
  Dropout drop(0.5f);
  Var x(Tensor::Full({10}, 2.0f));
  Var y = drop.Forward(x, /*train=*/false, nullptr);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(y.value().at(i), 2.0f);
}

TEST(DropoutTest, MasksAndRescalesInTrain) {
  Rng rng(6);
  Dropout drop(0.5f);
  Var x(Tensor::Full({1000}, 1.0f));
  Var y = drop.Forward(x, /*train=*/true, &rng);
  int zeros = 0;
  for (int i = 0; i < 1000; ++i) {
    if (y.value().at(i) == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.value().at(i), 2.0f, 1e-5f);
    }
  }
  EXPECT_NEAR(zeros / 1000.0, 0.5, 0.06);
}

TEST(MlpTest, ForwardShapeAndParams) {
  Rng rng(7);
  Mlp mlp({8, 16, 4}, Activation::kRelu, &rng);
  EXPECT_EQ(mlp.num_layers(), 2);
  EXPECT_EQ(mlp.NumParameters(), 8 * 16 + 16 + 16 * 4 + 4);
  Var x(Tensor::Zeros({3, 8}));
  EXPECT_EQ(mlp.Forward(x).value().dim(1), 4);
}

TEST(ModuleTest, StateVectorRoundTrip) {
  Rng rng(8);
  Mlp a({4, 8, 2}, Activation::kTanh, &rng);
  Mlp b({4, 8, 2}, Activation::kTanh, &rng);
  auto state = a.StateVector();
  ASSERT_TRUE(b.LoadStateVector(state));
  Var x(Tensor::Uniform({2, 4}, &rng, -1, 1));
  Var ya = a.Forward(x);
  Var yb = b.Forward(x);
  for (int i = 0; i < ya.value().size(); ++i) {
    EXPECT_EQ(ya.value().at(i), yb.value().at(i));
  }
}

TEST(ModuleTest, LoadStateVectorRejectsWrongSize) {
  Rng rng(9);
  Mlp mlp({2, 2}, Activation::kRelu, &rng);
  EXPECT_FALSE(mlp.LoadStateVector({1.0f, 2.0f}));
}

TEST(ModuleTest, ZeroGradClearsGradients) {
  Rng rng(10);
  Linear layer(2, 1, &rng);
  Var x(Tensor::Full({1, 2}, 1.0f));
  Var loss = ag::SumAll(layer.Forward(x));
  ag::Backward(loss);
  EXPECT_GT(std::abs(layer.Parameters()[0].grad().at(0)), 0.0f);
  layer.ZeroGrad();
  EXPECT_EQ(layer.Parameters()[0].grad().at(0), 0.0f);
}

// Trains y = 2x - 1 with SGD; loss must collapse.
TEST(OptimizerTest, SgdFitsLinearFunction) {
  Rng rng(11);
  Linear layer(1, 1, &rng);
  Sgd opt(layer.Parameters(), /*lr=*/0.1f);
  float last_loss = 1e9f;
  for (int step = 0; step < 300; ++step) {
    Tensor xs({8, 1});
    std::vector<float> targets(8);
    for (int i = 0; i < 8; ++i) {
      xs.at(i, 0) = static_cast<float>(rng.Uniform(-1, 1));
      targets[i] = 2.0f * xs.at(i, 0) - 1.0f;
    }
    Var pred = layer.Forward(Var(xs));
    Var diff = ag::Sub(ag::Reshape(pred, {8}),
                       Var(Tensor::FromVector({8}, targets)));
    Var loss = ag::MeanAll(ag::Mul(diff, diff));
    opt.ZeroGrad();
    ag::Backward(loss);
    opt.Step();
    last_loss = loss.value().at(0);
  }
  EXPECT_LT(last_loss, 1e-3f);
  EXPECT_NEAR(layer.Parameters()[0].value().at(0), 2.0f, 0.05f);
  EXPECT_NEAR(layer.Parameters()[1].value().at(0), -1.0f, 0.05f);
}

// XOR requires the hidden layer: checks end-to-end backprop through Mlp.
TEST(OptimizerTest, AdamSolvesXor) {
  Rng rng(12);
  Mlp mlp({2, 8, 2}, Activation::kTanh, &rng);
  Adam opt(mlp.Parameters(), /*lr=*/0.05f);
  Tensor xs = Tensor::FromVector({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  std::vector<int> ys = {0, 1, 1, 0};
  for (int step = 0; step < 400; ++step) {
    Var logits = mlp.Forward(Var(xs));
    Var loss = ag::SoftmaxCrossEntropy(logits, ys);
    opt.ZeroGrad();
    ag::Backward(loss);
    opt.Step();
  }
  Var logits = mlp.Forward(Var(xs));
  auto pred = ::vsd::tensor::ArgMaxRows(logits.value());
  EXPECT_EQ(pred, ys);
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  Rng rng(13);
  Linear layer(1, 1, &rng);
  layer.Parameters()[0].mutable_value().at(0) = 5.0f;
  Sgd opt(layer.Parameters(), /*lr=*/0.1f, /*momentum=*/0.0f,
          /*weight_decay=*/0.5f);
  // Gradient-free step: decay alone should shrink the weight.
  layer.ZeroGrad();
  opt.Step();
  EXPECT_LT(layer.Parameters()[0].value().at(0), 5.0f);
}

TEST(OptimizerTest, AdamStepIsBoundedByLr) {
  Rng rng(14);
  Linear layer(1, 1, &rng);
  const float w0 = layer.Parameters()[0].value().at(0);
  Adam opt(layer.Parameters(), /*lr=*/0.01f);
  Var x(Tensor::Full({1, 1}, 1.0f));
  Var loss = ag::SumAll(layer.Forward(x));
  opt.ZeroGrad();
  ag::Backward(loss);
  opt.Step();
  // First Adam step magnitude is ~lr regardless of gradient scale.
  EXPECT_NEAR(std::abs(layer.Parameters()[0].value().at(0) - w0), 0.01f,
              2e-3f);
}

/// Adam's update as a plain indexed loop, with the constants computed per
/// element and the decay test inside: the form Adam::Step vectorises.
struct ScalarAdam {
  float lr, beta1, beta2, eps, weight_decay;
  int step = 0;
  std::vector<std::vector<float>> m, v;

  void Step(std::vector<std::vector<float>>* values,
            const std::vector<std::vector<float>>& grads) {
    ++step;
    const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(step));
    const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(step));
    for (size_t i = 0; i < values->size(); ++i) {
      std::vector<float>& value = (*values)[i];
      m.resize(values->size());
      v.resize(values->size());
      m[i].resize(value.size(), 0.0f);
      v[i].resize(value.size(), 0.0f);
      for (size_t j = 0; j < value.size(); ++j) {
        const float g = grads[i][j];
        m[i][j] = beta1 * m[i][j] + (1.0f - beta1) * g;
        v[i][j] = beta2 * v[i][j] + (1.0f - beta2) * g * g;
        const float mhat = m[i][j] / bc1;
        const float vhat = v[i][j] / bc2;
        float update = mhat / (std::sqrt(vhat) + eps);
        if (weight_decay > 0.0f) update += weight_decay * value[j];
        value[j] -= lr * update;
      }
    }
  }
};

TEST(OptimizerTest, AdamStepMatchesTheScalarLoopBitwise) {
  // Sizes around the vector widths run the vector body and every tail.
  // A fifth of the gradients are +0.0f or -0.0f; the rest span six orders
  // of magnitude.
  const std::vector<int> sizes = {1, 7, 8, 9, 33};
  for (float decay : {0.0f, 0.01f}) {
    SCOPED_TRACE(testing::Message() << "weight decay " << decay);
    Rng rng(15);
    std::vector<Var> params;
    std::vector<std::vector<float>> want;
    for (int n : sizes) {
      const Tensor w = Tensor::Randn({n}, &rng);
      params.emplace_back(w.Clone(), /*requires_grad=*/true);
      want.emplace_back(w.data(), w.data() + n);
    }
    Adam opt(params, /*lr=*/1e-2f, 0.9f, 0.999f, 1e-8f, decay);
    ScalarAdam ref{1e-2f, 0.9f, 0.999f, 1e-8f, decay, 0, {}, {}};
    for (int step = 1; step <= 5; ++step) {
      std::vector<std::vector<float>> grads;
      for (size_t i = 0; i < params.size(); ++i) {
        Tensor g({sizes[i]});
        for (int j = 0; j < g.size(); ++j) {
          const double u = rng.Uniform();
          g.at(j) = u < 0.1   ? 0.0f
                    : u < 0.2 ? -0.0f
                              : static_cast<float>(
                                    rng.Normal() *
                                    std::pow(10.0, rng.UniformInt(-3, 3)));
        }
        params[i].node()->grad = g;
        grads.emplace_back(g.data(), g.data() + g.size());
      }
      opt.Step();
      ref.Step(&want, grads);
      for (size_t i = 0; i < params.size(); ++i) {
        EXPECT_EQ(0, std::memcmp(params[i].value().data(), want[i].data(),
                                 want[i].size() * sizeof(float)))
            << "step " << step << ", size " << sizes[i];
      }
    }
  }
}

TEST(ConvTrainingTest, LearnsToDetectBrightQuadrant)  {
  // 4x4 single-channel images; label = 1 when the top-left 2x2 block is
  // bright. A conv + linear head must learn this.
  Rng rng(15);
  Conv2d conv(1, 4, 2, 2, 0, &rng);  // -> [N,2,2,4]
  Linear head(16, 2, &rng);
  std::vector<Var> params = conv.Parameters();
  for (auto& p : head.Parameters()) params.push_back(p);
  Adam opt(params, 0.02f);
  auto make_batch = [&](int n, Tensor* xs, std::vector<int>* ys) {
    *xs = Tensor({n, 4, 4, 1});
    ys->resize(n);
    for (int i = 0; i < n; ++i) {
      const bool bright = rng.Bernoulli(0.5);
      (*ys)[i] = bright ? 1 : 0;
      for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
          float v = static_cast<float>(rng.Uniform(0.0, 0.3));
          if (bright && y < 2 && x < 2) v += 0.7f;
          xs->at4(i, y, x, 0) = v;
        }
      }
    }
  };
  for (int step = 0; step < 150; ++step) {
    Tensor xs;
    std::vector<int> ys;
    make_batch(16, &xs, &ys);
    Var h = conv.Forward(Var(xs));
    Var flat = ag::Reshape(h, {16, 16});
    Var logits = head.Forward(ag::Relu(flat));
    Var loss = ag::SoftmaxCrossEntropy(logits, ys);
    opt.ZeroGrad();
    ag::Backward(loss);
    opt.Step();
  }
  Tensor xs;
  std::vector<int> ys;
  make_batch(64, &xs, &ys);
  Var h = conv.Forward(Var(xs));
  Var logits = head.Forward(ag::Relu(ag::Reshape(h, {64, 16})));
  auto pred = ::vsd::tensor::ArgMaxRows(logits.value());
  int correct = 0;
  for (int i = 0; i < 64; ++i) correct += (pred[i] == ys[i]);
  EXPECT_GE(correct, 58);
}

/// Weights of a small conv net after three Adam steps on fixed data, with
/// or without a StorageReuse scope around the steps.
std::vector<float> ConvNetWeightsAfterThreeSteps(bool reuse_storage) {
  Rng rng(11);
  Conv2d conv(1, 8, /*kernel=*/5, /*stride=*/2, /*pad=*/2, &rng);
  Linear head(16 * 16 * 8, 4, &rng);
  std::vector<Var> params = conv.Parameters();
  for (const Var& p : head.Parameters()) params.push_back(p);
  Adam opt(params, 1e-2f);
  // 16 images of 32x32: the im2col patches alone are 400 KB.
  const Tensor images = Tensor::Randn({16, 32, 32, 1}, &rng);
  const Tensor target = Tensor::Randn({16, 4}, &rng);
  std::unique_ptr<tensor::StorageReuse> scope;
  if (reuse_storage) scope = std::make_unique<tensor::StorageReuse>();
  for (int step = 0; step < 3; ++step) {
    Var h = ag::Relu(conv.Forward(Var(images)));
    Var out = head.Forward(ag::Reshape(h, {16, 16 * 16 * 8}));
    Var diff = ag::Sub(out, Var(target));
    Var loss = ag::MeanAll(ag::Mul(diff, diff));
    opt.ZeroGrad();
    ag::Backward(loss);
    opt.Step();
  }
  if (reuse_storage) {
    EXPECT_GT(scope->cached(), 0u);
  }
  std::vector<float> weights;
  for (const Var& p : params) {
    const std::vector<float> v = p.value().ToVector();
    weights.insert(weights.end(), v.begin(), v.end());
  }
  return weights;
}

TEST(StorageReuseTrainingTest, ConvStepsInAScopeMatchBitForBit) {
  const std::vector<float> plain = ConvNetWeightsAfterThreeSteps(false);
  const std::vector<float> reused = ConvNetWeightsAfterThreeSteps(true);
  ASSERT_EQ(plain.size(), reused.size());
  EXPECT_EQ(std::memcmp(plain.data(), reused.data(),
                        plain.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace vsd::nn
