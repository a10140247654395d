#include "tensor/autograd.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "tensor/kernels.h"

namespace vsd::autograd {

namespace t = ::vsd::tensor;

Tensor& Node::EnsureGrad() {
  if (grad.shape() != value.shape()) grad = Tensor(value.shape());
  return grad;
}

Var::Var(Tensor value, bool requires_grad)
    : node_(std::make_shared<Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

void Var::ZeroGrad() { node_->EnsureGrad().Fill(0.0f); }

namespace {

bool AnyRequiresGrad(const std::vector<std::shared_ptr<Node>>& parents) {
  for (const auto& p : parents) {
    if (p->requires_grad) return true;
  }
  return false;
}

Var MakeOp(Tensor value, std::vector<std::shared_ptr<Node>> parents,
           std::function<void(Node*)> backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = AnyRequiresGrad(parents);
  node->parents = std::move(parents);
  if (node->requires_grad) node->backward = std::move(backward);
  return Var(node);
}

/// Sums `g` down to `shape`, the shape of a broadcasted operand.
Tensor ReduceGradToShape(const Tensor& g, const std::vector<int>& shape) {
  Tensor out(shape);
  if (out.size() == 1) {
    out.at(0) = t::Sum(g);
    return out;
  }
  // Row broadcast: g is [N,D], target is [D] or [1,D].
  VSD_CHECK(g.ndim() == 2) << "unsupported broadcast reduce";
  const int n = g.dim(0);
  const int d = g.dim(1);
  VSD_CHECK(out.size() == d) << "unsupported broadcast reduce shape";
  const float* row = g.data();
  float* sum = out.data();
  for (int i = 0; i < n; ++i, row += d) {
    for (int j = 0; j < d; ++j) sum[j] += row[j];
  }
  return out;
}

/// aᵀ·b with `a` read in place: the weight gradient Xᵀ·dY.
Tensor TransposedProduct(const Tensor& a, const Tensor& b) {
  Tensor out({a.dim(1), b.dim(1)});
  t::kernels::MatMulTransAInto(a.data(), b.data(), out.data(), a.dim(0),
                               a.dim(1), b.dim(1));
  return out;
}

/// Adds `g` into the target's gradient.
///
/// The first gradient into a node is adopted when `g` holds its storage
/// alone, as a gradient an op's backward just built does: no zero-filled
/// grad and no pass adding `g` into it. Adding `+ 0.0f` in place first
/// turns its -0.0f entries into +0.0f, exactly what zeros + g gave, so
/// the bits are unchanged. A pass-through gradient (Add's, Sub's first
/// operand's, Reshape's view) shares storage with the consumer's grad and
/// is copied, so no two nodes' grads alias. Later gradients are added in
/// place into the grad, which no other tensor shares.
void Accumulate(Node* target, Tensor g) {
  if (!target->requires_grad) return;
  if (g.shape() != target->value.shape()) {
    g = ReduceGradToShape(g, target->value.shape());
  }
  if (target->grad.shape() != target->value.shape() && g.unique_storage()) {
    float* p = g.data();
    for (int i = 0; i < g.size(); ++i) p[i] += 0.0f;
    target->grad = std::move(g);
    return;
  }
  target->EnsureGrad().AddInPlace(g);
}

}  // namespace

void Backward(const Var& root) {
  VSD_CHECK(root.defined()) << "Backward on undefined Var";
  VSD_CHECK(root.value().size() == 1) << "Backward root must be scalar";
  // Iterative DFS topological order.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root.node().get(), 0});
  visited.insert(root.node().get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent >= frame.node->parents.size()) {
      order.push_back(frame.node);
      stack.pop_back();
      continue;
    }
    // `frame` dies here: the push_back below may reallocate the stack.
    Node* parent = frame.node->parents[frame.next_parent++].get();
    if (visited.insert(parent).second) stack.push_back({parent, 0});
  }
  root.node()->EnsureGrad().Fill(1.0f);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->requires_grad && node->backward &&
        node->grad.size() == node->value.size()) {
      node->backward(node);
    }
  }
}

Var Add(const Var& a, const Var& b) {
  auto an = a.node();
  auto bn = b.node();
  return MakeOp(t::Add(a.value(), b.value()), {an, bn},
                [an, bn](Node* self) {
                  Accumulate(an.get(), self->grad);
                  Accumulate(bn.get(), self->grad);
                });
}

Var Sub(const Var& a, const Var& b) {
  auto an = a.node();
  auto bn = b.node();
  return MakeOp(t::Sub(a.value(), b.value()), {an, bn},
                [an, bn](Node* self) {
                  Accumulate(an.get(), self->grad);
                  Accumulate(bn.get(), t::Scale(self->grad, -1.0f));
                });
}

Var Mul(const Var& a, const Var& b) {
  auto an = a.node();
  auto bn = b.node();
  return MakeOp(
      t::Mul(a.value(), b.value()), {an, bn}, [an, bn](Node* self) {
        // d/da = g * b ; d/db = g * a (with broadcast handled by Mul +
        // ReduceGradToShape).
        if (an->requires_grad) {
          Accumulate(an.get(), bn->value.size() == 1
                                   ? t::Scale(self->grad, bn->value.at(0))
                                   : t::Mul(self->grad, bn->value));
        }
        if (bn->requires_grad) {
          Accumulate(bn.get(), t::Mul(self->grad, an->value));
        }
      });
}

Var Scale(const Var& a, float s) {
  auto an = a.node();
  return MakeOp(t::Scale(a.value(), s), {an}, [an, s](Node* self) {
    Accumulate(an.get(), t::Scale(self->grad, s));
  });
}

Var Neg(const Var& a) { return Scale(a, -1.0f); }

Var MatMul(const Var& a, const Var& b) {
  auto an = a.node();
  auto bn = b.node();
  return MakeOp(t::MatMul(a.value(), b.value()), {an, bn},
                [an, bn](Node* self) {
                  // dA = dY·Bᵀ copies a transpose of B, which is a weight
                  // or a constant (at most 2304x48) wherever the model
                  // trains.
                  if (an->requires_grad) {
                    Accumulate(an.get(),
                               t::MatMul(self->grad,
                                         t::Transpose(bn->value)));
                  }
                  // dB = Aᵀ·dY reads the activation A in place.
                  if (bn->requires_grad) {
                    Accumulate(bn.get(),
                               TransposedProduct(an->value, self->grad));
                  }
                });
}

Var Relu(const Var& a) {
  auto an = a.node();
  return MakeOp(t::Relu(a.value()), {an}, [an](Node* self) {
    Tensor g(self->grad.shape());
    const float* x = an->value.data();
    const float* dy = self->grad.data();
    float* dx = g.data();
    const int n = g.size();
    // dy[i] is read whether or not x[i] > 0, so the select vectorises
    // (a compare and a mask) instead of branching on every sign. NaN and
    // ±0.0f in x still give +0.0f.
    for (int i = 0; i < n; ++i) {
      const float d = dy[i];
      dx[i] = x[i] > 0.0f ? d : 0.0f;
    }
    Accumulate(an.get(), std::move(g));
  });
}

Var TanhV(const Var& a) {
  auto an = a.node();
  Tensor y = t::Tanh(a.value());
  return MakeOp(y, {an}, [an](Node* self) {
    Tensor g(self->grad.shape());
    for (int i = 0; i < g.size(); ++i) {
      const float yi = self->value.at(i);
      g.at(i) = self->grad.at(i) * (1.0f - yi * yi);
    }
    Accumulate(an.get(), std::move(g));
  });
}

Var SigmoidV(const Var& a) {
  auto an = a.node();
  Tensor y = t::Sigmoid(a.value());
  return MakeOp(y, {an}, [an](Node* self) {
    Tensor g(self->grad.shape());
    for (int i = 0; i < g.size(); ++i) {
      const float yi = self->value.at(i);
      g.at(i) = self->grad.at(i) * yi * (1.0f - yi);
    }
    Accumulate(an.get(), std::move(g));
  });
}

Var ExpV(const Var& a) {
  auto an = a.node();
  Tensor y = t::Exp(a.value());
  return MakeOp(y, {an}, [an](Node* self) {
    Tensor g(self->grad.shape());
    for (int i = 0; i < g.size(); ++i) {
      g.at(i) = self->grad.at(i) * self->value.at(i);
    }
    Accumulate(an.get(), std::move(g));
  });
}

Var LogV(const Var& a) {
  auto an = a.node();
  Tensor y(a.value().shape());
  for (int i = 0; i < y.size(); ++i) {
    y.at(i) = std::log(std::max(a.value().at(i), 1e-12f));
  }
  return MakeOp(y, {an}, [an](Node* self) {
    Tensor g(self->grad.shape());
    for (int i = 0; i < g.size(); ++i) {
      g.at(i) = self->grad.at(i) / std::max(an->value.at(i), 1e-12f);
    }
    Accumulate(an.get(), std::move(g));
  });
}

Var Gelu(const Var& a) {
  auto an = a.node();
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  Tensor y(a.value().shape());
  t::kernels::GeluInto(a.value().data(), y.data(), y.size());
  return MakeOp(y, {an}, [an](Node* self) {
    Tensor g(self->grad.shape());
    for (int i = 0; i < g.size(); ++i) {
      const float x = an->value.at(i);
      const float inner = kC * (x + 0.044715f * x * x * x);
      const float th = std::tanh(inner);
      const float sech2 = 1.0f - th * th;
      const float dinner = kC * (1.0f + 3.0f * 0.044715f * x * x);
      const float dy = 0.5f * (1.0f + th) + 0.5f * x * sech2 * dinner;
      g.at(i) = self->grad.at(i) * dy;
    }
    Accumulate(an.get(), std::move(g));
  });
}

Var Concat(const Var& a, const Var& b) {
  VSD_CHECK(a.value().ndim() == 2 && b.value().ndim() == 2)
      << "Concat requires 2-D";
  VSD_CHECK(a.value().dim(0) == b.value().dim(0)) << "Concat row mismatch";
  const int n = a.value().dim(0);
  const int da = a.value().dim(1);
  const int db = b.value().dim(1);
  Tensor y({n, da + db});
  t::kernels::ConcatRowsInto(a.value().data(), b.value().data(), y.data(),
                             n, da, db);
  auto an = a.node();
  auto bn = b.node();
  return MakeOp(y, {an, bn}, [an, bn, n, da, db](Node* self) {
    if (an->requires_grad) {
      Tensor ga({n, da});
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < da; ++j) ga.at(i, j) = self->grad.at(i, j);
      }
      Accumulate(an.get(), std::move(ga));
    }
    if (bn->requires_grad) {
      Tensor gb({n, db});
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < db; ++j) gb.at(i, j) = self->grad.at(i, da + j);
      }
      Accumulate(bn.get(), std::move(gb));
    }
  });
}

Var Reshape(const Var& a, std::vector<int> shape) {
  auto an = a.node();
  // The value is a view of the input's; the gradient view below shares
  // the reshape's grad, so Accumulate copies it into the input's own.
  return MakeOp(a.value().Reshape(std::move(shape)), {an}, [an](Node* self) {
    Accumulate(an.get(), self->grad.Reshape(an->value.shape()));
  });
}

Var SumAll(const Var& a) {
  auto an = a.node();
  Tensor y({1});
  y.at(0) = t::Sum(a.value());
  return MakeOp(y, {an}, [an](Node* self) {
    Tensor g(an->value.shape());
    g.Fill(self->grad.at(0));
    Accumulate(an.get(), std::move(g));
  });
}

Var MeanAll(const Var& a) {
  const float inv = 1.0f / static_cast<float>(a.value().size());
  return Scale(SumAll(a), inv);
}

Var SoftmaxCrossEntropy(const Var& logits, const std::vector<int>& labels) {
  VSD_CHECK(logits.value().ndim() == 2) << "SCE requires 2-D logits";
  const int n = logits.value().dim(0);
  const int c = logits.value().dim(1);
  VSD_CHECK(static_cast<int>(labels.size()) == n) << "SCE label count";
  Tensor probs = t::SoftmaxRows(logits.value());
  Tensor y({1});
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    VSD_CHECK(labels[i] >= 0 && labels[i] < c) << "SCE label range";
    loss -= std::log(std::max(probs.at(i, labels[i]), 1e-12f));
  }
  y.at(0) = static_cast<float>(loss / n);
  auto ln = logits.node();
  return MakeOp(y, {ln}, [ln, probs, labels, n, c](Node* self) {
    Tensor g({n, c});
    const float scale = self->grad.at(0) / static_cast<float>(n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < c; ++j) {
        const float onehot = (labels[i] == j) ? 1.0f : 0.0f;
        g.at(i, j) = scale * (probs.at(i, j) - onehot);
      }
    }
    Accumulate(ln.get(), std::move(g));
  });
}

Var BceWithLogits(const Var& logits, const std::vector<float>& targets) {
  const int n = logits.value().size();
  VSD_CHECK(static_cast<int>(targets.size()) == n) << "BCE target count";
  Tensor y({1});
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    const float x = logits.value().at(i);
    // log(1 + exp(-|x|)) + max(x, 0) - x*t, the stable form.
    loss += std::log1p(std::exp(-std::abs(x))) + std::max(x, 0.0f) -
            x * targets[i];
  }
  y.at(0) = static_cast<float>(loss / n);
  auto ln = logits.node();
  return MakeOp(y, {ln}, [ln, targets, n](Node* self) {
    Tensor g(ln->value.shape());
    const float scale = self->grad.at(0) / static_cast<float>(n);
    for (int i = 0; i < n; ++i) {
      const float p = static_cast<float>(
          1.0 / (1.0 + std::exp(-static_cast<double>(ln->value.at(i)))));
      g.at(i) = scale * (p - targets[i]);
    }
    Accumulate(ln.get(), std::move(g));
  });
}

Var LogSoftmaxRows(const Var& logits) {
  VSD_CHECK(logits.value().ndim() == 2) << "LogSoftmax requires 2-D";
  const int n = logits.value().dim(0);
  const int c = logits.value().dim(1);
  Tensor probs = t::SoftmaxRows(logits.value());
  Tensor y({n, c});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < c; ++j) {
      y.at(i, j) = std::log(std::max(probs.at(i, j), 1e-12f));
    }
  }
  auto ln = logits.node();
  return MakeOp(y, {ln}, [ln, probs, n, c](Node* self) {
    Tensor g({n, c});
    for (int i = 0; i < n; ++i) {
      float grow = 0.0f;
      for (int j = 0; j < c; ++j) grow += self->grad.at(i, j);
      for (int j = 0; j < c; ++j) {
        g.at(i, j) = self->grad.at(i, j) - probs.at(i, j) * grow;
      }
    }
    Accumulate(ln.get(), std::move(g));
  });
}

Var Div(const Var& a, const Var& b) {
  auto an = a.node();
  auto bn = b.node();
  const bool scalar_b = b.value().size() == 1;
  Tensor y(a.value().shape());
  if (scalar_b) {
    const float inv = 1.0f / bn->value.at(0);
    for (int i = 0; i < y.size(); ++i) y.at(i) = an->value.at(i) * inv;
  } else {
    VSD_CHECK(SameShape(a.value(), b.value())) << "Div shape mismatch";
    for (int i = 0; i < y.size(); ++i) {
      y.at(i) = an->value.at(i) / bn->value.at(i);
    }
  }
  return MakeOp(y, {an, bn}, [an, bn, scalar_b](Node* self) {
    if (an->requires_grad) {
      Tensor ga(self->grad.shape());
      if (scalar_b) {
        ga = t::Scale(self->grad, 1.0f / bn->value.at(0));
      } else {
        for (int i = 0; i < ga.size(); ++i) {
          ga.at(i) = self->grad.at(i) / bn->value.at(i);
        }
      }
      Accumulate(an.get(), std::move(ga));
    }
    if (bn->requires_grad) {
      // d/db (a/b) = -a / b^2.
      Tensor gb(self->grad.shape());
      for (int i = 0; i < gb.size(); ++i) {
        const float bv = scalar_b ? bn->value.at(0) : bn->value.at(i);
        gb.at(i) = -self->grad.at(i) * an->value.at(i) / (bv * bv);
      }
      Accumulate(bn.get(), std::move(gb));
    }
  });
}

Var SqrtV(const Var& a) {
  auto an = a.node();
  Tensor y(a.value().shape());
  for (int i = 0; i < y.size(); ++i) {
    y.at(i) = std::sqrt(std::max(a.value().at(i), 1e-12f));
  }
  return MakeOp(y, {an}, [an](Node* self) {
    Tensor g(self->grad.shape());
    for (int i = 0; i < g.size(); ++i) {
      g.at(i) = self->grad.at(i) * 0.5f / std::max(self->value.at(i),
                                                   1e-6f);
    }
    Accumulate(an.get(), std::move(g));
  });
}

Var AbsV(const Var& a) {
  auto an = a.node();
  Tensor y(a.value().shape());
  for (int i = 0; i < y.size(); ++i) y.at(i) = std::abs(a.value().at(i));
  return MakeOp(y, {an}, [an](Node* self) {
    Tensor g(self->grad.shape());
    for (int i = 0; i < g.size(); ++i) {
      const float x = an->value.at(i);
      g.at(i) = x > 0.0f ? self->grad.at(i)
                         : (x < 0.0f ? -self->grad.at(i) : 0.0f);
    }
    Accumulate(an.get(), std::move(g));
  });
}

Var ClampV(const Var& a, float lo, float hi) {
  VSD_CHECK(lo <= hi) << "ClampV bounds";
  auto an = a.node();
  Tensor y(a.value().shape());
  for (int i = 0; i < y.size(); ++i) {
    y.at(i) = std::clamp(a.value().at(i), lo, hi);
  }
  return MakeOp(y, {an}, [an, lo, hi](Node* self) {
    Tensor g(self->grad.shape());
    for (int i = 0; i < g.size(); ++i) {
      const float x = an->value.at(i);
      g.at(i) = (x > lo && x < hi) ? self->grad.at(i) : 0.0f;
    }
    Accumulate(an.get(), std::move(g));
  });
}

int ConvOutDim(int in, int k, int stride, int pad) {
  return (in + 2 * pad - k) / stride + 1;
}

namespace {

/// The shapes of one im2col over NHWC input, checked once.
struct ConvGeometry {
  int n, h, w, c, kh, kw, stride, pad, oh, ow;

  int rows() const { return n * oh * ow; }
  int patch() const { return kh * kw * c; }
};

ConvGeometry CheckedGeometry(const Tensor& x, int kh, int kw, int stride,
                             int pad) {
  VSD_CHECK(x.ndim() == 4) << "Im2Col requires [N,H,W,C]";
  ConvGeometry geo{x.dim(0), x.dim(1), x.dim(2), x.dim(3), kh, kw,
                   stride,   pad,      0,        0};
  VSD_CHECK(kh <= geo.h + 2 * pad && kw <= geo.w + 2 * pad)
      << "Im2Col window larger than the padded image";
  geo.oh = ConvOutDim(geo.h, kh, stride, pad);
  geo.ow = ConvOutDim(geo.w, kw, stride, pad);
  VSD_CHECK(geo.oh > 0 && geo.ow > 0) << "Im2Col degenerate output";
  return geo;
}

Tensor Im2ColValue(const Tensor& x, const ConvGeometry& geo) {
  Tensor cols({geo.rows(), geo.patch()});
  std::vector<float> plane(
      t::kernels::Im2ColPlaneSize(geo.h, geo.w, geo.c, geo.pad));
  t::kernels::Im2ColInto(x.data(), cols.data(), geo.n, geo.h, geo.w, geo.c,
                         geo.kh, geo.kw, geo.stride, geo.pad, plane.data());
  return cols;
}

/// col2im: the input gradient [N,H,W,C] from the patch gradients `col`
/// [rows, patch], through a zero-bordered plane like the forward's. `col`
/// is walked in (row, col) order, and each kernel row adds its kw*c
/// floats, with no bounds test, into the plane run it was read from. The
/// border collects the padding taps, which are dropped; every pixel sums
/// its taps from +0.0f in the order a per-tap loop would.
Tensor Col2Im(const float* col, const ConvGeometry& geo) {
  const int image_row = geo.w * geo.c;
  const int plane_row = image_row + 2 * geo.pad * geo.c;
  const int run = geo.kw * geo.c;
  std::vector<float> plane(
      t::kernels::Im2ColPlaneSize(geo.h, geo.w, geo.c, geo.pad));
  const float* interior = plane.data() +
                          static_cast<long long>(geo.pad) * plane_row +
                          geo.pad * geo.c;
  Tensor g({geo.n, geo.h, geo.w, geo.c});
  for (int b = 0; b < geo.n; ++b) {
    std::fill(plane.begin(), plane.end(), 0.0f);
    for (int oy = 0; oy < geo.oh; ++oy) {
      float* window = plane.data() +
                      static_cast<long long>(oy) * geo.stride * plane_row;
      for (int ox = 0; ox < geo.ow; ++ox, window += geo.stride * geo.c) {
        float* px = window;
        for (int ky = 0; ky < geo.kh; ++ky, px += plane_row, col += run) {
          for (int t = 0; t < run; ++t) px[t] += col[t];
        }
      }
    }
    float* image = g.data() + static_cast<long long>(b) * geo.h * image_row;
    for (int y = 0; y < geo.h; ++y) {
      std::copy_n(interior + static_cast<long long>(y) * plane_row,
                  image_row, image + static_cast<long long>(y) * image_row);
    }
  }
  return g;
}

}  // namespace

Var Im2Col(const Var& x, int kh, int kw, int stride, int pad) {
  const ConvGeometry geo = CheckedGeometry(x.value(), kh, kw, stride, pad);
  auto xn = x.node();
  return MakeOp(Im2ColValue(x.value(), geo), {xn}, [xn, geo](Node* self) {
    Accumulate(xn.get(), Col2Im(self->grad.data(), geo));
  });
}

Var Conv2d(const Var& x, const Var& w, const Var& b, int kh, int kw,
           int stride, int pad) {
  const ConvGeometry geo = CheckedGeometry(x.value(), kh, kw, stride, pad);
  VSD_CHECK(w.value().ndim() == 2 && w.value().dim(0) == geo.patch())
      << "Conv2d weights must be [kh*kw*C, F]";
  const int f = w.value().dim(1);
  VSD_CHECK(b.value().size() == f) << "Conv2d bias must be [F]";
  // The compiled graph's Im2Col -> MatMul -> AddRows -> Reshape: the same
  // kernels in the same order, with the bias added in place.
  Tensor cols = Im2ColValue(x.value(), geo);
  Tensor y = t::MatMul(cols, w.value());
  t::kernels::AddRowsInto(y.data(), b.value().data(), y.data(), geo.rows(),
                          f);
  auto xn = x.node();
  auto wn = w.node();
  auto bn = b.node();
  return MakeOp(
      y.Reshape({geo.n, geo.oh, geo.ow, f}), {xn, wn, bn},
      [xn, wn, bn, cols, geo, f](Node* self) {
        // dY is read in place, where the four-node form copied it into
        // the Add and MatMul nodes' grads as +0.0f + dY. That copy only
        // turned -0.0f into +0.0f, and every reader below gives the same
        // bits for either zero: the bias row sum and Aᵀ·dY start at +0.0f,
        // and dY·Wᵀ skips zero entries of dY.
        const Tensor dy = self->grad.Reshape({geo.rows(), f});
        Accumulate(bn.get(), dy);
        if (wn->requires_grad) {
          Accumulate(wn.get(), TransposedProduct(cols, dy));
        }
        if (xn->requires_grad) {
          const Tensor dcols = t::MatMul(dy, t::Transpose(wn->value));
          Accumulate(xn.get(), Col2Im(dcols.data(), geo));
        }
      });
}

Var SoftmaxRowsV(const Var& logits) {
  VSD_CHECK(logits.value().ndim() == 2) << "SoftmaxRowsV requires 2-D";
  Tensor probs = t::SoftmaxRows(logits.value());
  const int n = probs.dim(0);
  const int c = probs.dim(1);
  auto ln = logits.node();
  return MakeOp(probs, {ln}, [ln, n, c](Node* self) {
    Tensor g({n, c});
    for (int i = 0; i < n; ++i) {
      float dot = 0.0f;
      for (int j = 0; j < c; ++j) {
        dot += self->grad.at(i, j) * self->value.at(i, j);
      }
      for (int j = 0; j < c; ++j) {
        g.at(i, j) = self->value.at(i, j) * (self->grad.at(i, j) - dot);
      }
    }
    Accumulate(ln.get(), std::move(g));
  });
}

Var LayerNormRows(const Var& x, const Var& gamma, const Var& beta,
                  float eps) {
  VSD_CHECK(x.value().ndim() == 2) << "LayerNormRows requires 2-D";
  const int n = x.value().dim(0);
  const int d = x.value().dim(1);
  VSD_CHECK(gamma.value().size() == d && beta.value().size() == d)
      << "LayerNorm parameter size";
  Tensor y({n, d});
  Tensor xhat({n, d});
  std::vector<float> inv_std(n);
  for (int i = 0; i < n; ++i) {
    float mu = 0.0f;
    for (int j = 0; j < d; ++j) mu += x.value().at(i, j);
    mu /= static_cast<float>(d);
    float var = 0.0f;
    for (int j = 0; j < d; ++j) {
      const float diff = x.value().at(i, j) - mu;
      var += diff * diff;
    }
    var /= static_cast<float>(d);
    inv_std[i] = 1.0f / std::sqrt(var + eps);
    for (int j = 0; j < d; ++j) {
      xhat.at(i, j) = (x.value().at(i, j) - mu) * inv_std[i];
      y.at(i, j) = xhat.at(i, j) * gamma.value().at(j) + beta.value().at(j);
    }
  }
  auto xn = x.node();
  auto gn = gamma.node();
  auto bn = beta.node();
  return MakeOp(y, {xn, gn, bn},
                [xn, gn, bn, xhat, inv_std, n, d](Node* self) {
    if (gn->requires_grad) {
      Tensor gg({d});
      for (int j = 0; j < d; ++j) {
        float s = 0.0f;
        for (int i = 0; i < n; ++i) s += self->grad.at(i, j) * xhat.at(i, j);
        gg.at(j) = s;
      }
      Accumulate(gn.get(), std::move(gg));
    }
    if (bn->requires_grad) {
      Tensor gb({d});
      for (int j = 0; j < d; ++j) {
        float s = 0.0f;
        for (int i = 0; i < n; ++i) s += self->grad.at(i, j);
        gb.at(j) = s;
      }
      Accumulate(bn.get(), std::move(gb));
    }
    if (xn->requires_grad) {
      Tensor gx({n, d});
      for (int i = 0; i < n; ++i) {
        // dL/dxhat = g * gamma; standard layernorm backward.
        float sum_dxhat = 0.0f;
        float sum_dxhat_xhat = 0.0f;
        for (int j = 0; j < d; ++j) {
          const float dxhat = self->grad.at(i, j) * gn->value.at(j);
          sum_dxhat += dxhat;
          sum_dxhat_xhat += dxhat * xhat.at(i, j);
        }
        for (int j = 0; j < d; ++j) {
          const float dxhat = self->grad.at(i, j) * gn->value.at(j);
          gx.at(i, j) = inv_std[i] *
                        (dxhat - (sum_dxhat +
                                  xhat.at(i, j) * sum_dxhat_xhat) /
                                     static_cast<float>(d));
        }
      }
      Accumulate(xn.get(), std::move(gx));
    }
  });
}

Var Softplus(const Var& a) {
  auto an = a.node();
  Tensor y(a.value().shape());
  for (int i = 0; i < y.size(); ++i) {
    const float x = a.value().at(i);
    y.at(i) = std::log1p(std::exp(-std::abs(x))) + std::max(x, 0.0f);
  }
  return MakeOp(y, {an}, [an](Node* self) {
    Tensor g(self->grad.shape());
    for (int i = 0; i < g.size(); ++i) {
      const float x = an->value.at(i);
      const float sig = static_cast<float>(
          1.0 / (1.0 + std::exp(-static_cast<double>(x))));
      g.at(i) = self->grad.at(i) * sig;
    }
    Accumulate(an.get(), std::move(g));
  });
}

Var MulColumn(const Var& x, const Var& col) {
  VSD_CHECK(x.value().ndim() == 2 && col.value().ndim() == 2)
      << "MulColumn requires 2-D";
  const int n = x.value().dim(0);
  const int d = x.value().dim(1);
  VSD_CHECK(col.value().dim(0) == n && col.value().dim(1) == 1)
      << "MulColumn column shape";
  Tensor y({n, d});
  for (int i = 0; i < n; ++i) {
    const float c = col.value().at(i, 0);
    for (int j = 0; j < d; ++j) y.at(i, j) = x.value().at(i, j) * c;
  }
  auto xn = x.node();
  auto cn = col.node();
  return MakeOp(y, {xn, cn}, [xn, cn, n, d](Node* self) {
    if (xn->requires_grad) {
      Tensor gx({n, d});
      for (int i = 0; i < n; ++i) {
        const float c = cn->value.at(i, 0);
        for (int j = 0; j < d; ++j) gx.at(i, j) = self->grad.at(i, j) * c;
      }
      Accumulate(xn.get(), std::move(gx));
    }
    if (cn->requires_grad) {
      Tensor gc({n, 1});
      for (int i = 0; i < n; ++i) {
        float s = 0.0f;
        for (int j = 0; j < d; ++j) {
          s += self->grad.at(i, j) * xn->value.at(i, j);
        }
        gc.at(i, 0) = s;
      }
      Accumulate(cn.get(), std::move(gc));
    }
  });
}

Var RowSum(const Var& x) {
  VSD_CHECK(x.value().ndim() == 2) << "RowSum requires 2-D";
  const int n = x.value().dim(0);
  const int d = x.value().dim(1);
  Tensor y({n, 1});
  for (int i = 0; i < n; ++i) {
    float s = 0.0f;
    for (int j = 0; j < d; ++j) s += x.value().at(i, j);
    y.at(i, 0) = s;
  }
  auto xn = x.node();
  return MakeOp(y, {xn}, [xn, n, d](Node* self) {
    Tensor g({n, d});
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < d; ++j) g.at(i, j) = self->grad.at(i, 0);
    }
    Accumulate(xn.get(), std::move(g));
  });
}

Var MeanRows(const Var& x) {
  VSD_CHECK(x.value().ndim() == 2) << "MeanRows requires 2-D";
  const int n = x.value().dim(0);
  const int d = x.value().dim(1);
  Tensor y({1, d});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) {
      y.at(0, j) += x.value().at(i, j) / static_cast<float>(n);
    }
  }
  auto xn = x.node();
  return MakeOp(y, {xn}, [xn, n, d](Node* self) {
    Tensor g({n, d});
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < d; ++j) {
        g.at(i, j) = self->grad.at(0, j) / static_cast<float>(n);
      }
    }
    Accumulate(xn.get(), std::move(g));
  });
}

}  // namespace vsd::autograd
