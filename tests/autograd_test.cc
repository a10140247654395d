#include "tensor/autograd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "tensor/kernels.h"

namespace vsd::autograd {
namespace {

using ::vsd::tensor::Tensor;
namespace k = ::vsd::tensor::kernels;
namespace t = ::vsd::tensor;

/// Numerically checks d(loss)/d(leaf) against the autograd gradient for a
/// scalar-valued graph builder `f` evaluated at `leaf`.
void CheckGradient(const std::function<Var(const Var&)>& f, Tensor at,
                   float tol = 2e-2f, float eps = 1e-3f) {
  Var leaf(at.Clone(), /*requires_grad=*/true);
  Var loss = f(leaf);
  ASSERT_EQ(loss.value().size(), 1);
  leaf.ZeroGrad();
  Backward(loss);
  const Tensor& grad = leaf.grad();
  ASSERT_EQ(grad.size(), at.size());
  for (int i = 0; i < at.size(); ++i) {
    Tensor plus = at.Clone();
    plus.at(i) += eps;
    Tensor minus = at.Clone();
    minus.at(i) -= eps;
    const float fp = f(Var(plus)).value().at(0);
    const float fm = f(Var(minus)).value().at(0);
    const float numeric = (fp - fm) / (2.0f * eps);
    EXPECT_NEAR(grad.at(i), numeric, tol * std::max(1.0f, std::abs(numeric)))
        << "at flat index " << i;
  }
}

Tensor SmallRand(std::vector<int> shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Uniform(std::move(shape), &rng, -1.0f, 1.0f);
}

TEST(AutogradTest, AddGradient) {
  Tensor b = SmallRand({2, 3}, 1);
  CheckGradient(
      [&](const Var& x) { return SumAll(Add(x, Var(b))); },
      SmallRand({2, 3}, 2));
}

TEST(AutogradTest, AddRowBroadcastGradientOfBias) {
  Tensor x = SmallRand({4, 3}, 3);
  CheckGradient(
      [&](const Var& b) { return SumAll(Add(Var(x), b)); },
      SmallRand({3}, 4));
}

TEST(AutogradTest, SubGradient) {
  Tensor b = SmallRand({5}, 5);
  CheckGradient(
      [&](const Var& x) { return SumAll(Sub(x, Var(b))); },
      SmallRand({5}, 6));
  CheckGradient(
      [&](const Var& x) { return SumAll(Sub(Var(b), x)); },
      SmallRand({5}, 7));
}

TEST(AutogradTest, MulGradientBothSides) {
  Tensor other = SmallRand({2, 3}, 8);
  CheckGradient(
      [&](const Var& x) { return SumAll(Mul(x, Var(other))); },
      SmallRand({2, 3}, 9));
  CheckGradient(
      [&](const Var& x) { return SumAll(Mul(Var(other), x)); },
      SmallRand({2, 3}, 10));
}

TEST(AutogradTest, MulSelfQuadratic) {
  // d/dx sum(x*x) = 2x.
  Tensor at = SmallRand({4}, 11);
  Var x(at.Clone(), true);
  Var loss = SumAll(Mul(x, x));
  Backward(loss);
  for (int i = 0; i < at.size(); ++i) {
    EXPECT_NEAR(x.grad().at(i), 2.0f * at.at(i), 1e-4f);
  }
}

TEST(AutogradTest, ScaleNegGradient) {
  CheckGradient([](const Var& x) { return SumAll(Scale(x, 3.5f)); },
                SmallRand({3}, 12));
  CheckGradient([](const Var& x) { return SumAll(Neg(x)); },
                SmallRand({3}, 13));
}

TEST(AutogradTest, MatMulGradientLeft) {
  Tensor b = SmallRand({3, 2}, 14);
  CheckGradient(
      [&](const Var& x) { return SumAll(MatMul(x, Var(b))); },
      SmallRand({2, 3}, 15));
}

TEST(AutogradTest, MatMulGradientRight) {
  Tensor a = SmallRand({2, 3}, 16);
  CheckGradient(
      [&](const Var& x) { return SumAll(MatMul(Var(a), x)); },
      SmallRand({3, 2}, 17));
}

TEST(AutogradTest, ReluGradient) {
  // Keep values away from the kink.
  Tensor at = Tensor::FromVector({4}, {-0.8f, -0.3f, 0.4f, 1.2f});
  CheckGradient([](const Var& x) { return SumAll(Relu(x)); }, at);
}

TEST(AutogradTest, TanhSigmoidExpLogGradients) {
  CheckGradient([](const Var& x) { return SumAll(TanhV(x)); },
                SmallRand({4}, 18));
  CheckGradient([](const Var& x) { return SumAll(SigmoidV(x)); },
                SmallRand({4}, 19));
  CheckGradient([](const Var& x) { return SumAll(ExpV(x)); },
                SmallRand({4}, 20));
  Tensor positive = Tensor::FromVector({3}, {0.5f, 1.0f, 2.0f});
  CheckGradient([](const Var& x) { return SumAll(LogV(x)); }, positive);
}

TEST(AutogradTest, GeluGradient) {
  CheckGradient([](const Var& x) { return SumAll(Gelu(x)); },
                SmallRand({5}, 21));
}

TEST(AutogradTest, ConcatGradient) {
  Tensor b = SmallRand({2, 2}, 22);
  CheckGradient(
      [&](const Var& x) { return SumAll(Concat(x, Var(b))); },
      SmallRand({2, 3}, 23));
  CheckGradient(
      [&](const Var& x) { return SumAll(Concat(Var(b), x)); },
      SmallRand({2, 3}, 24));
}

TEST(AutogradTest, ReshapeGradient) {
  CheckGradient(
      [](const Var& x) {
        Var r = Reshape(x, {3, 2});
        return SumAll(Mul(r, r));
      },
      SmallRand({2, 3}, 25));
}

TEST(AutogradTest, MeanAllGradient) {
  CheckGradient([](const Var& x) { return MeanAll(Mul(x, x)); },
                SmallRand({2, 3}, 26));
}

TEST(AutogradTest, SoftmaxCrossEntropyGradient) {
  std::vector<int> labels = {0, 2, 1};
  CheckGradient(
      [&](const Var& x) { return SoftmaxCrossEntropy(x, labels); },
      SmallRand({3, 3}, 27));
}

TEST(AutogradTest, SoftmaxCrossEntropyValue) {
  // Uniform logits -> loss = log(C).
  Var logits(Tensor::Zeros({2, 4}));
  Var loss = SoftmaxCrossEntropy(logits, {1, 3});
  EXPECT_NEAR(loss.value().at(0), std::log(4.0f), 1e-5f);
}

TEST(AutogradTest, BceWithLogitsGradient) {
  std::vector<float> targets = {1.0f, 0.0f, 1.0f, 0.0f};
  CheckGradient(
      [&](const Var& x) { return BceWithLogits(x, targets); },
      SmallRand({4}, 28));
}

TEST(AutogradTest, BceWithLogitsValue) {
  Var logits(Tensor::Zeros({2}));
  Var loss = BceWithLogits(logits, {1.0f, 0.0f});
  EXPECT_NEAR(loss.value().at(0), std::log(2.0f), 1e-5f);
}

TEST(AutogradTest, LogSoftmaxGradient) {
  CheckGradient(
      [](const Var& x) {
        Var ls = LogSoftmaxRows(x);
        // Weighted sum to give distinct row gradients.
        Tensor w = Tensor::FromVector({2, 3}, {1, 2, 3, -1, 0.5f, 2});
        return SumAll(Mul(ls, Var(w)));
      },
      SmallRand({2, 3}, 29));
}

TEST(AutogradTest, SoftmaxRowsVGradient) {
  CheckGradient(
      [](const Var& x) {
        Var p = SoftmaxRowsV(x);
        Tensor w = Tensor::FromVector({2, 2}, {2, -1, 0.5f, 3});
        return SumAll(Mul(p, Var(w)));
      },
      SmallRand({2, 2}, 30));
}

TEST(AutogradTest, LayerNormGradientAll) {
  Tensor gamma = Tensor::FromVector({3}, {1.2f, 0.8f, 1.0f});
  Tensor beta = Tensor::FromVector({3}, {0.1f, -0.2f, 0.0f});
  Tensor x = SmallRand({2, 3}, 31);
  CheckGradient(
      [&](const Var& v) {
        Var y = LayerNormRows(v, Var(gamma), Var(beta));
        return SumAll(Mul(y, y));
      },
      x, /*tol=*/5e-2f);
  CheckGradient(
      [&](const Var& g) {
        Var y = LayerNormRows(Var(x), g, Var(beta));
        return SumAll(Mul(y, y));
      },
      gamma);
  CheckGradient(
      [&](const Var& b) {
        Var y = LayerNormRows(Var(x), Var(gamma), b);
        return SumAll(Mul(y, y));
      },
      beta);
}

TEST(AutogradTest, MeanRowsGradient) {
  CheckGradient(
      [](const Var& x) {
        Var m = MeanRows(x);
        return SumAll(Mul(m, m));
      },
      SmallRand({3, 2}, 32));
}

TEST(AutogradTest, Im2ColGradient) {
  CheckGradient(
      [](const Var& x) {
        Var cols = Im2Col(x, 2, 2, 1, 0);
        return SumAll(Mul(cols, cols));
      },
      SmallRand({1, 3, 3, 2}, 33));
}

TEST(AutogradTest, Im2ColWithStrideAndPad) {
  CheckGradient(
      [](const Var& x) {
        Var cols = Im2Col(x, 3, 3, 2, 1);
        return SumAll(Mul(cols, cols));
      },
      SmallRand({2, 5, 5, 1}, 34));
}

TEST(AutogradTest, Im2ColValues) {
  // 1x2x2x1 image, 2x2 kernel, stride 1, no pad -> one row of 4 values.
  Tensor x = Tensor::FromVector({1, 2, 2, 1}, {1, 2, 3, 4});
  Var cols = Im2Col(Var(x), 2, 2, 1, 0);
  ASSERT_EQ(cols.value().dim(0), 1);
  ASSERT_EQ(cols.value().dim(1), 4);
  EXPECT_EQ(cols.value().at(0, 0), 1.0f);
  EXPECT_EQ(cols.value().at(0, 3), 4.0f);
}

// ---- Bitwise checks of the backward kernels ----

/// RAII kernel-backend override.
class BackendGuard {
 public:
  explicit BackendGuard(k::Backend backend) { k::SetBackend(backend); }
  ~BackendGuard() { k::ClearBackendOverride(); }
};

/// [rows, cols] normal values with about `zero_share` of them zero, a
/// quarter of those -0.0f.
Tensor SparseRand(int rows, int cols, double zero_share, Rng* rng) {
  Tensor out({rows, cols});
  for (int i = 0; i < out.size(); ++i) {
    out.at(i) = static_cast<float>(rng->Normal());
    if (rng->Uniform() < zero_share) {
      out.at(i) = rng->Bernoulli(0.25) ? -0.0f : 0.0f;
    }
  }
  return out;
}

/// Runs the backward closure of `y` with `upstream` as its gradient. Set
/// directly, the gradient can hold -0.0f, which one that went through
/// Accumulate never does.
void RunBackward(const Var& y, const Tensor& upstream) {
  y.node()->grad = upstream;
  y.node()->backward(y.node().get());
}

/// What a fresh leaf's gradient holds after `g` is accumulated into it.
Tensor Accumulated(const Tensor& g) {
  Tensor out(g.shape());
  out.AddInPlace(g);
  return out;
}

void ExpectSameBits(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  if (want.size() == 0) return;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           static_cast<size_t>(want.size()) * sizeof(float)));
}

TEST(AutogradTest, MatMulGradientsMatchTransposedProductsBitwise) {
  // dB comes from the Aᵀ·B kernel and dA from dY·Bᵀ; both must hold the
  // bits of the products over transposed copies. Row m/2 of `a` is zero
  // and the same row of dY holds inf and NaN, which only dB's zero skip
  // keeps out.
  Rng rng(47);
  for (k::Backend backend : {k::Backend::kScalar, k::Backend::kSimd}) {
    BackendGuard guard(backend);
    for (double zero_share : {0.0, 0.4, 0.95}) {
      for (int m : {0, 1, 3, 64, 300}) {
        for (int kk : {1, 2, 25, 72, 2304}) {
          for (int n : {1, 2, 5, 8, 16, 48}) {
            SCOPED_TRACE(testing::Message()
                         << k::BackendName(backend) << " zero share "
                         << zero_share << " m=" << m << " k=" << kk
                         << " n=" << n);
            Tensor a = SparseRand(m, kk, zero_share, &rng);
            const Tensor b = SparseRand(kk, n, 0.0, &rng);
            Tensor g = SparseRand(m, n, zero_share, &rng);
            if (m > 0) {
              const float specials[] = {
                  std::numeric_limits<float>::infinity(),
                  -std::numeric_limits<float>::infinity(),
                  std::numeric_limits<float>::quiet_NaN()};
              for (int p = 0; p < kk; ++p) a.at(m / 2, p) = 0.0f;
              for (int j = 0; j < n; ++j) g.at(m / 2, j) = specials[j % 3];
            }
            Var av(a, true);
            Var bv(b, true);
            RunBackward(MatMul(av, bv), g);
            ExpectSameBits(bv.grad(),
                           Accumulated(t::MatMul(t::Transpose(a), g)));
            ExpectSameBits(av.grad(),
                           Accumulated(t::MatMul(g, t::Transpose(b))));
          }
        }
      }
    }
  }
}

/// col2im as one indexed add per in-bounds tap, in (row, col) order: the
/// loop Im2Col's backward ran before it walked raw pointers.
Tensor Col2ImByTaps(const Tensor& cols, int n, int h, int w, int c, int kh,
                    int kw, int stride, int pad) {
  const int oh = ConvOutDim(h, kh, stride, pad);
  const int ow = ConvOutDim(w, kw, stride, pad);
  Tensor g({n, h, w, c});
  for (int b = 0; b < n; ++b) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const int row = (b * oh + oy) * ow + ox;
        int col = 0;
        for (int ky = 0; ky < kh; ++ky) {
          const int iy = oy * stride + ky - pad;
          for (int kx = 0; kx < kw; ++kx) {
            const int ix = ox * stride + kx - pad;
            for (int ch = 0; ch < c; ++ch, ++col) {
              if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
                g.at4(b, iy, ix, ch) += cols.at(row, col);
              }
            }
          }
        }
      }
    }
  }
  return g;
}

TEST(AutogradTest, Im2ColGradientMatchesTapLoopBitwise) {
  Rng rng(48);
  struct Window {
    int kh, kw;
  };
  constexpr int kN = 2, kH = 7, kW = 6;
  for (int c : {1, 8}) {
    for (const Window& win :
         {Window{1, 1}, Window{3, 3}, Window{5, 5}, Window{2, 3}}) {
      for (int stride : {1, 2}) {
        for (int pad : {0, 1, 2}) {
          SCOPED_TRACE(testing::Message()
                       << "c=" << c << " k=" << win.kh << "x" << win.kw
                       << " stride=" << stride << " pad=" << pad);
          Var x(Tensor::Randn({kN, kH, kW, c}, &rng), true);
          Var cols = Im2Col(x, win.kh, win.kw, stride, pad);
          const Tensor upstream = SparseRand(
              cols.value().dim(0), cols.value().dim(1), 0.3, &rng);
          RunBackward(cols, upstream);
          ExpectSameBits(x.grad(),
                         Accumulated(Col2ImByTaps(upstream, kN, kH, kW, c,
                                                  win.kh, win.kw, stride,
                                                  pad)));
        }
      }
    }
  }
}

/// Runs the backward closures of a chain of nodes, output first, with
/// `upstream` set directly as the output's gradient.
void RunChainBackward(const std::vector<Var>& chain, const Tensor& upstream) {
  chain.front().node()->grad = upstream;
  for (const Var& v : chain) {
    Node* node = v.node().get();
    if (node->backward && node->grad.size() == node->value.size()) {
      node->backward(node);
    }
  }
}

TEST(AutogradTest, Conv2dMatchesComposedOpsBitwise) {
  // The one conv node against Im2Col -> MatMul -> Add -> Reshape: the
  // value and the x, w and b gradients, bit for bit. x is half zeros (a
  // ReLU output, for MatMul's list path). The upstream gradient holds
  // -0.0f among its zeros, and -0.0f, NaN and ±inf in its middle row: the
  // composed form copies it as +0.0f + dY, the node reads it in place.
  struct Shape {
    int n, h, w, c, k, stride, pad, f;
  };
  const Shape shapes[] = {
      {1, 48, 48, 1, 5, 2, 2, 8},  {3, 48, 48, 1, 5, 2, 2, 8},   // conv1
      {1, 24, 24, 8, 3, 2, 1, 16}, {2, 24, 24, 8, 3, 2, 1, 16},  // conv2
      {2, 7, 6, 3, 3, 2, 0, 5},    {2, 7, 6, 3, 3, 1, 1, 4},
      {3, 5, 5, 2, 1, 1, 0, 1},
  };
  const float specials[] = {-0.0f, std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  Rng rng(49);
  for (k::Backend backend : {k::Backend::kScalar, k::Backend::kSimd}) {
    BackendGuard guard(backend);
    for (const Shape& s : shapes) {
      for (bool x_grad : {true, false}) {
        SCOPED_TRACE(testing::Message()
                     << k::BackendName(backend) << " n=" << s.n << " "
                     << s.h << "x" << s.w << "x" << s.c << " k=" << s.k
                     << " /" << s.stride << " pad " << s.pad << " f=" << s.f
                     << (x_grad ? "" : " x without grad"));
        const Tensor x =
            SparseRand(s.n * s.h * s.w, s.c, 0.5, &rng)
                .Reshape({s.n, s.h, s.w, s.c});
        const Tensor w = SparseRand(s.k * s.k * s.c, s.f, 0.0, &rng);
        const Tensor b = SparseRand(1, s.f, 0.0, &rng).Reshape({s.f});
        const int oh = ConvOutDim(s.h, s.k, s.stride, s.pad);
        const int ow = ConvOutDim(s.w, s.k, s.stride, s.pad);
        const int rows = s.n * oh * ow;
        Tensor dy2 = SparseRand(rows, s.f, 0.3, &rng);
        for (int j = 0; j < s.f; ++j) dy2.at(rows / 2, j) = specials[j % 4];
        const Tensor dy = dy2.Reshape({s.n, oh, ow, s.f});

        Var x1(x, x_grad), w1(w, true), b1(b, true);
        Var conv = Conv2d(x1, w1, b1, s.k, s.k, s.stride, s.pad);
        Var x2(x, x_grad), w2(w, true), b2(b, true);
        Var cols = Im2Col(x2, s.k, s.k, s.stride, s.pad);
        Var mm = MatMul(cols, w2);
        Var sum = Add(mm, b2);
        Var ref = Reshape(sum, {s.n, oh, ow, s.f});
        ExpectSameBits(conv.value(), ref.value());
        EXPECT_TRUE(conv.node()->parents.size() == 3 &&
                    conv.node()->parents[0] == x1.node());

        RunBackward(conv, dy);
        RunChainBackward({ref, sum, mm, cols}, dy);
        ExpectSameBits(w1.grad(), w2.grad());
        ExpectSameBits(b1.grad(), b2.grad());
        if (x_grad) {
          ExpectSameBits(x1.grad(), x2.grad());
        } else {
          EXPECT_TRUE(x1.grad().empty());
        }
      }
    }
  }
}

TEST(AutogradTest, Conv2dTakesInt8WeightsForward) {
  // A quantized model's eager encode runs the node forward only, with
  // int8 weights that only tensor::MatMul reads.
  Rng rng(50);
  for (k::Backend backend : {k::Backend::kScalar, k::Backend::kSimd}) {
    BackendGuard guard(backend);
    const Tensor x = SparseRand(2 * 24 * 24, 8, 0.5, &rng)
                         .Reshape({2, 24, 24, 8});
    const Var w(SparseRand(72, 16, 0.0, &rng).QuantizeInt8());
    const Var b(SparseRand(1, 16, 0.0, &rng).Reshape({16}));
    const Var conv = Conv2d(Var(x), w, b, 3, 3, 2, 1);
    const Var ref = Reshape(Add(MatMul(Im2Col(Var(x), 3, 3, 2, 1), w), b),
                            {2, 12, 12, 16});
    ExpectSameBits(conv.value(), ref.value());
  }
}

TEST(AutogradTest, ReluBackwardSelectsBitwise) {
  // Every x in {±1, ±0, NaN, ±inf} against every dy in {1, -0, NaN, inf},
  // three times over at shifted offsets so each pair lands in the vector
  // body and in the tail: dx is dy where x > 0 and +0.0f elsewhere.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float xs[] = {1.0f, -1.0f, 0.0f, -0.0f, nan, inf, -inf};
  const float dys[] = {1.0f, -0.0f, nan, inf};
  std::vector<float> xv, dyv;
  for (int rep = 0; rep < 3; ++rep) {
    for (int pad = 0; pad < rep; ++pad) {
      xv.push_back(2.0f);
      dyv.push_back(3.0f);
    }
    for (float xi : xs) {
      for (float di : dys) {
        xv.push_back(xi);
        dyv.push_back(di);
      }
    }
  }
  const int n = static_cast<int>(xv.size());
  Tensor want({n});
  for (int i = 0; i < n; ++i) want.at(i) = xv[i] > 0.0f ? dyv[i] : 0.0f;
  Var x(Tensor::FromVector({n}, xv), true);
  RunBackward(Relu(x), Tensor::FromVector({n}, dyv));
  ExpectSameBits(x.grad(), Accumulated(want));
}

TEST(AutogradTest, Im2ColRejectsAWindowLargerThanThePaddedImage) {
  // ConvOutDim truncates toward zero, so a 3x3 window over a 2x2 image at
  // stride 2 would count one output row whose taps run past the image.
  Var x(Tensor::Zeros({1, 2, 2, 1}));
  EXPECT_DEATH(Im2Col(x, 3, 3, 2, 0), "larger than the padded image");
}

TEST(AutogradTest, ConvOutDim) {
  EXPECT_EQ(ConvOutDim(32, 3, 1, 1), 32);
  EXPECT_EQ(ConvOutDim(32, 3, 2, 1), 16);
  EXPECT_EQ(ConvOutDim(5, 3, 2, 0), 2);
}

TEST(AutogradTest, GradAccumulatesAcrossBackward) {
  Var x(Tensor::FromVector({1}, {2.0f}), true);
  Var loss = Mul(x, x);
  Backward(loss);
  EXPECT_NEAR(x.grad().at(0), 4.0f, 1e-5f);
  Var loss2 = Mul(x, x);
  Backward(loss2);  // accumulates
  EXPECT_NEAR(x.grad().at(0), 8.0f, 1e-5f);
  x.ZeroGrad();
  EXPECT_EQ(x.grad().at(0), 0.0f);
}

TEST(AutogradTest, DiamondGraphGradient) {
  // loss = sum((x + x) * x) = 2*sum(x^2); grad = 4x.
  Tensor at = SmallRand({3}, 35);
  Var x(at.Clone(), true);
  Var loss = SumAll(Mul(Add(x, x), x));
  Backward(loss);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(x.grad().at(i), 4.0f * at.at(i), 1e-4f);
  }
}

TEST(AutogradTest, NoGradForConstants) {
  Var c(Tensor::FromVector({2}, {1, 2}), false);
  Var x(Tensor::FromVector({2}, {3, 4}), true);
  Var loss = SumAll(Mul(c, x));
  Backward(loss);
  EXPECT_EQ(c.grad().size(), 0);  // never allocated
  EXPECT_NEAR(x.grad().at(0), 1.0f, 1e-6f);
}

TEST(AutogradTest, DivGradientBothSides) {
  Tensor b = Tensor::FromVector({4}, {1.5f, -2.0f, 0.7f, 3.0f});
  CheckGradient(
      [&](const Var& x) { return SumAll(Div(x, Var(b))); },
      SmallRand({4}, 40));
  Tensor a = SmallRand({4}, 41);
  CheckGradient(
      [&](const Var& x) { return SumAll(Div(Var(a), x)); }, b);
}

TEST(AutogradTest, DivByScalar) {
  Tensor s = Tensor::Full({1}, 2.5f);
  CheckGradient(
      [&](const Var& x) { return SumAll(Div(x, Var(s))); },
      SmallRand({3}, 42));
}

TEST(AutogradTest, SqrtGradient) {
  Tensor positive = Tensor::FromVector({3}, {0.5f, 1.0f, 2.5f});
  CheckGradient([](const Var& x) { return SumAll(SqrtV(x)); }, positive);
}

TEST(AutogradTest, AbsGradient) {
  Tensor at = Tensor::FromVector({4}, {-0.8f, -0.2f, 0.3f, 1.1f});
  CheckGradient([](const Var& x) { return SumAll(AbsV(x)); }, at);
}

TEST(AutogradTest, ClampGradientPassesOnlyInside) {
  Tensor at = Tensor::FromVector({3}, {-2.0f, 0.2f, 2.0f});
  Var x(at.Clone(), true);
  Var loss = SumAll(ClampV(x, -1.0f, 1.0f));
  Backward(loss);
  EXPECT_EQ(x.grad().at(0), 0.0f);   // below lo
  EXPECT_EQ(x.grad().at(1), 1.0f);   // inside
  EXPECT_EQ(x.grad().at(2), 0.0f);   // above hi
}

TEST(AutogradTest, MulColumnGradient) {
  Tensor col = Tensor::FromVector({3, 1}, {0.5f, -1.0f, 2.0f});
  CheckGradient(
      [&](const Var& x) { return SumAll(MulColumn(x, Var(col))); },
      SmallRand({3, 4}, 43));
  Tensor x = SmallRand({3, 4}, 44);
  CheckGradient(
      [&](const Var& c) { return SumAll(MulColumn(Var(x), c)); },
      Tensor::FromVector({3, 1}, {0.5f, -1.0f, 2.0f}));
}

TEST(AutogradTest, SoftplusGradient) {
  CheckGradient([](const Var& x) { return SumAll(Softplus(x)); },
                SmallRand({5}, 45));
}

TEST(AutogradTest, RowSumGradient) {
  CheckGradient(
      [](const Var& x) {
        Var rs = RowSum(x);
        return SumAll(Mul(rs, rs));
      },
      SmallRand({3, 4}, 46));
}

TEST(AutogradTest, DeepChainGradient) {
  // Long chains must not blow the stack (iterative DFS).
  Var x(Tensor::FromVector({1}, {0.5f}), true);
  Var h = x;
  for (int i = 0; i < 2000; ++i) h = Scale(h, 1.0f);
  Backward(h);
  EXPECT_NEAR(x.grad().at(0), 1.0f, 1e-5f);
}

/// A float's bits, so that +0.0f and -0.0f differ.
uint32_t Bits(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// A node's first gradient is adopted, not added into zeros, and must
// still read what 0.0f + g gave: +0.0f where g holds -0.0f.
TEST(AutogradTest, AdoptedFirstGradientReadsPositiveZero) {
  Var x(Tensor::FromVector({3}, {1.0f, 2.0f, 3.0f}), /*requires_grad=*/true);
  Var mask(Tensor::FromVector({3}, {0.0f, 1.0f, 0.0f}));
  // Scale's backward hands x the gradient {-0.0f, -1.0f, -0.0f}.
  Backward(SumAll(Mul(Scale(x, -1.0f), mask)));
  EXPECT_EQ(Bits(x.grad().at(0)), Bits(0.0f));
  EXPECT_EQ(x.grad().at(1), -1.0f);
  EXPECT_EQ(Bits(x.grad().at(2)), Bits(0.0f));
}

TEST(AutogradTest, TwoConsumersGetZerosPlusTwoAddsBitForBit) {
  Rng rng(5);
  Tensor c1 = Tensor::Randn({64}, &rng);
  Tensor c2 = Tensor::Randn({64}, &rng);
  c1.at(0) = -0.0f;  // Both gradients -0.0f: zeros + g1 + g2 is +0.0f.
  c2.at(0) = -0.0f;
  c2.at(1) = -0.0f;
  Var x(Tensor::Randn({64}, &rng), /*requires_grad=*/true);
  Backward(SumAll(Add(Mul(x, Var(c1)), Mul(x, Var(c2)))));
  ASSERT_EQ(x.grad().size(), 64);
  for (int i = 0; i < 64; ++i) {
    float expected = 0.0f;
    expected += c2.at(i);  // The later consumer's backward runs first.
    expected += c1.at(i);
    EXPECT_EQ(Bits(x.grad().at(i)), Bits(expected)) << "at " << i;
  }
}

TEST(AutogradTest, ReshapeSharesItsValueButNotItsGrad) {
  Rng rng(6);
  Var x(Tensor::Randn({2, 3}, &rng), /*requires_grad=*/true);
  Var r = Reshape(x, {3, 2});
  EXPECT_EQ(r.value().data(), x.value().data());
  Tensor w = Tensor::Randn({3, 2}, &rng);
  Backward(SumAll(Mul(r, Var(w))));
  ASSERT_EQ(x.grad().shape(), x.value().shape());
  ASSERT_EQ(r.grad().size(), 6);
  EXPECT_NE(x.grad().data(), r.grad().data());
  for (int i = 0; i < 6; ++i) EXPECT_EQ(x.grad().at(i), w.at(i));
}

}  // namespace
}  // namespace vsd::autograd
