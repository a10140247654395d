#ifndef VSD_TENSOR_AUTOGRAD_H_
#define VSD_TENSOR_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace vsd::autograd {

using ::vsd::tensor::Tensor;

/// One vertex of the dynamically built computation graph.
struct Node {
  Tensor value;
  /// Same shape as `value`; made lazily: adopted from the first gradient
  /// an op's backward builds for this node, or zeros from EnsureGrad.
  /// Never shares storage with another node's grad.
  Tensor grad;
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  /// Reads `self->grad` and accumulates into the parents' grads. Unset for
  /// leaves.
  std::function<void(Node* self)> backward;

  /// Allocates (if needed) and returns the gradient tensor.
  Tensor& EnsureGrad();
};

/// \brief Handle to a graph node; the user-facing autograd value type.
///
/// Cheap to copy (shared node). Leaf variables created with
/// `requires_grad=true` act as trainable parameters: after `Backward()` their
/// `grad()` holds d(root)/d(param).
class Var {
 public:
  Var() = default;
  explicit Var(Tensor value, bool requires_grad = false);
  explicit Var(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node_->value; }
  Tensor& mutable_value() { return node_->value; }
  const Tensor& grad() const { return node_->grad; }
  bool requires_grad() const { return node_->requires_grad; }

  /// Resets this node's gradient to zeros (allocating it if needed).
  void ZeroGrad();

  const std::shared_ptr<Node>& node() const { return node_; }

 private:
  std::shared_ptr<Node> node_;
};

/// Runs reverse-mode differentiation from `root` (which must be scalar,
/// i.e. size 1). Gradients accumulate into every reachable node with
/// `requires_grad`.
void Backward(const Var& root);

// ---- Differentiable ops. Shapes follow tensor:: value ops. ----

/// Element-wise sum; supports `b` scalar or row-broadcast [D] vs [N,D].
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
Var Scale(const Var& a, float s);
Var Neg(const Var& a);

/// [M,K]x[K,N] -> [M,N].
Var MatMul(const Var& a, const Var& b);

Var Relu(const Var& a);
Var TanhV(const Var& a);
Var SigmoidV(const Var& a);
Var ExpV(const Var& a);
/// Natural log; inputs are clamped away from zero for stability.
Var LogV(const Var& a);
/// Gaussian error linear unit (tanh approximation).
Var Gelu(const Var& a);

/// Concatenates 2-D tensors [N,D1] and [N,D2] along axis 1.
Var Concat(const Var& a, const Var& b);

/// View with a new shape: the value shares `a`'s storage. The gradient is
/// reshaped back and copied into `a`'s grad, which it never aliases.
Var Reshape(const Var& a, std::vector<int> shape);

/// Sum of all elements -> scalar [1].
Var SumAll(const Var& a);
/// Mean of all elements -> scalar [1].
Var MeanAll(const Var& a);

/// Mean softmax cross-entropy of logits [N,C] against integer labels.
Var SoftmaxCrossEntropy(const Var& logits, const std::vector<int>& labels);

/// Mean binary cross-entropy with logits [N] (or [N,1]) against targets.
Var BceWithLogits(const Var& logits, const std::vector<float>& targets);

/// Row-wise log-softmax of 2-D logits.
Var LogSoftmaxRows(const Var& logits);

/// im2col over NHWC input: [N,H,W,C] -> [N*OH*OW, kh*kw*C] patches;
/// differentiable (backward is col2im). `pad` is symmetric zero padding.
/// NHWC is used so a following matmul yields [N,OH,OW,F] by plain reshape.
Var Im2Col(const Var& x, int kh, int kw, int stride, int pad);

/// Convolution over NHWC input as one node: x [N,H,W,C], weights w
/// [kh*kw*C, F] (fp32 or int8), bias b [F] -> [N,OH,OW,F]. The value and
/// every gradient are bit-identical to Reshape(Add(MatMul(Im2Col(x), w),
/// b)): the forward runs the compiled graph's kernels in its order, and
/// the backward reads dY in place where those four nodes copied it.
Var Conv2d(const Var& x, const Var& w, const Var& b, int kh, int kw,
           int stride, int pad);

/// Row-wise softmax of 2-D input (differentiable).
Var SoftmaxRowsV(const Var& logits);

/// Layer normalization over the last axis of [N,D] with learnable gamma and
/// beta (each [D]).
Var LayerNormRows(const Var& x, const Var& gamma, const Var& beta,
                  float eps = 1e-5f);

/// Mean over rows: [N,D] -> [1,D] (differentiable).
Var MeanRows(const Var& x);

/// Numerically stable softplus log(1 + exp(x)).
Var Softplus(const Var& a);

/// Column-broadcast product: x [N,D] scaled row-wise by col [N,1].
Var MulColumn(const Var& x, const Var& col);

/// Sum along axis 1: [N,D] -> [N,1] (differentiable).
Var RowSum(const Var& x);

/// Element-wise quotient; `b` must have no zero entries. Same broadcast
/// rules as Mul.
Var Div(const Var& a, const Var& b);

/// Element-wise square root (inputs clamped to >= 1e-12 for stability).
Var SqrtV(const Var& a);

/// Element-wise absolute value (subgradient 0 at the origin).
Var AbsV(const Var& a);

/// Element-wise clamp; gradient passes only inside (lo, hi).
Var ClampV(const Var& a, float lo, float hi);

/// Output spatial size of a conv/im2col along one axis.
int ConvOutDim(int in, int k, int stride, int pad);

}  // namespace vsd::autograd

#endif  // VSD_TENSOR_AUTOGRAD_H_
