#ifndef VSD_TENSOR_TENSOR_H_
#define VSD_TENSOR_TENSOR_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/dtype.h"

namespace vsd::tensor {

/// \brief A dense row-major N-dimensional array, fp32 by default.
///
/// Copies are shallow (shared storage); use `Clone()` for a deep copy.
/// All shape errors are programming errors and abort via VSD_CHECK — tensors
/// sit on the hot path and returning `Status` from every op would be
/// prohibitive; callers validate shapes at API boundaries instead.
///
/// A tensor may alternatively hold int8 row-quantized storage
/// (`dtype() == DType::kI8`, produced by `QuantizeInt8()`): a 2-D int8
/// payload plus per-row scale/zero_point in the tensor/quant.h format.
/// Int8 tensors are frozen-weight storage only — they support shape
/// queries, Clone/Reshape-free passing, the q* accessors, and appearing as
/// the rhs of `MatMul`; every float accessor (`data()`, `at()`, ...)
/// aborts on them. Training code never sees an int8 tensor.
class Tensor {
 public:
  /// An empty (rank-0, size-0) tensor.
  Tensor();

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<int> shape);

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  static Tensor Zeros(std::vector<int> shape);
  static Tensor Full(std::vector<int> shape, float value);
  /// Takes ownership of `values`; size must equal the shape product.
  static Tensor FromVector(std::vector<int> shape, std::vector<float> values);
  /// I.i.d. normal(0, stddev) entries.
  static Tensor Randn(std::vector<int> shape, Rng* rng, float stddev = 1.0f);
  /// I.i.d. uniform [lo, hi) entries.
  static Tensor Uniform(std::vector<int> shape, Rng* rng, float lo,
                        float hi);

  int ndim() const { return static_cast<int>(shape_.size()); }
  const std::vector<int>& shape() const { return shape_; }
  int dim(int i) const;
  /// Total element count.
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  DType dtype() const { return dtype_; }

  /// Float payload; aborts on int8 tensors (use the q* accessors).
  float* data();
  const float* data() const;

  /// Int8 payload accessors; abort on fp32 tensors.
  const int8_t* qdata() const;
  /// Per-row scales, [dim(0)].
  const float* qscale() const;
  /// Per-row zero points, [dim(0)].
  const int32_t* qzero() const;

  /// Row-quantizes a 2-D fp32 tensor into an int8 tensor of the same
  /// shape (rows are dim 0 — the MatMul reduction dim when this tensor is
  /// the rhs). Per-row parameters are computed independently, so the
  /// result is identical under any thread count.
  Tensor QuantizeInt8() const;

  /// Expands an int8 tensor back to a fresh fp32 tensor (the exact values
  /// the fused int8 MatMul kernel sees).
  Tensor DequantizeF32() const;

  /// Flat accessor. The accessors are inline and unchecked: autograd's
  /// element loops call them billions of times per training run.
  float& at(int i) { return (*data_)[i]; }
  float at(int i) const { return (*data_)[i]; }
  /// 2-D accessor; requires ndim() == 2.
  float& at(int i, int j) { return (*data_)[i * shape_[1] + j]; }
  float at(int i, int j) const { return (*data_)[i * shape_[1] + j]; }
  /// 4-D accessor over NHWC (n, h, w, c), the layout every image and
  /// feature map uses; requires ndim() == 4.
  float& at4(int n, int h, int w, int c) {
    return (*data_)[((n * shape_[1] + h) * shape_[2] + w) * shape_[3] + c];
  }
  float at4(int n, int h, int w, int c) const {
    return (*data_)[((n * shape_[1] + h) * shape_[2] + w) * shape_[3] + c];
  }

  /// Deep copy.
  Tensor Clone() const;

  /// Returns a tensor sharing this storage with a new shape (same size).
  Tensor Reshape(std::vector<int> shape) const;

  /// Copies the `row`-th row of a 2-D tensor into a new [D] tensor.
  Tensor Row(int row) const;

  /// Sets every element to `value`.
  void Fill(float value);

  /// Element-wise `this += other` (same shape).
  void AddInPlace(const Tensor& other);
  /// Element-wise `this *= s`.
  void ScaleInPlace(float s);

  /// Flat std::vector copy of the contents.
  std::vector<float> ToVector() const;

  /// True when no other tensor shares this tensor's float storage.
  bool unique_storage() const { return data_.use_count() == 1; }

  /// "Tensor[2x3]{...}" debugging aid (truncated for large tensors).
  std::string ToString() const;

 private:
  /// Shared int8 payload (immutable once built — int8 tensors are frozen
  /// weights, so shallow copies never race on it).
  struct QuantStorage {
    std::vector<int8_t> q;      ///< [rows*cols] row-major
    std::vector<float> scale;   ///< [rows]
    std::vector<int32_t> zero;  ///< [rows]
  };

  std::vector<int> shape_;
  int size_ = 0;
  DType dtype_ = DType::kF32;
  std::shared_ptr<std::vector<float>> data_;
  std::shared_ptr<const QuantStorage> qstore_;
};

/// \brief Reuses the large float buffers of one thread's tensors within a
/// loop (RAII).
///
/// A training step makes the same tensors every step, tens of MB of them;
/// freed, glibc returns those pages to the OS and the next step faults
/// them in again. While a scope is the innermost one alive on a thread:
/// - each tensor of at least `kMinFloats` floats made on that thread takes
///   the smallest cached buffer that fits, re-zeroed (`Clone` copies into
///   it instead), or a new one;
/// - the storage of such a tensor goes into the cache, not back to the
///   allocator, when its last handle is released on that thread.
/// The scope frees its cache when it ends.
///
/// Values cannot change: a reused buffer reads like a fresh one. Storage
/// released on another thread, after every scope ended or at thread exit
/// is plain freed, and outside every scope allocation is exactly as
/// without one.
class StorageReuse {
 public:
  /// 64 KB. glibc recycles smaller buffers cheaply: it neither mmaps
  /// them nor, mostly, trims them.
  static constexpr size_t kMinFloats = 16384;

  StorageReuse();
  ~StorageReuse();
  StorageReuse(const StorageReuse&) = delete;
  StorageReuse& operator=(const StorageReuse&) = delete;

  /// Number of buffers the cache holds now.
  size_t cached() const { return cache_.size(); }

 private:
  friend class Tensor;

  /// Storage of `size` floats: a copy of `src`, or zeros when `src` is
  /// null.
  static std::shared_ptr<std::vector<float>> NewStorage(size_t size,
                                                        const float* src);
  /// The deleter of storage made inside a scope.
  static void Release(std::vector<float>* buffer);

  std::multimap<size_t, std::vector<float>> cache_;  ///< By capacity.
  StorageReuse* outer_;
};

/// True when shapes are identical.
bool SameShape(const Tensor& a, const Tensor& b);

// ---- Value-level math (no autograd). Results are freshly allocated. ----

/// Element-wise sum with limited broadcasting: shapes equal, `b` scalar
/// (size 1), or `a`=[N,D] with `b`=[D].
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Scale(const Tensor& a, float s);

/// 2-D matrix product [M,K]x[K,N] -> [M,N].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// 2-D transpose.
Tensor Transpose(const Tensor& a);

/// Sum of all elements.
float Sum(const Tensor& a);
/// Mean of all elements.
float Mean(const Tensor& a);

/// Element-wise maps.
Tensor Relu(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Exp(const Tensor& a);

/// Row-wise softmax of a 2-D tensor.
Tensor SoftmaxRows(const Tensor& a);

/// Row-wise argmax of a 2-D tensor.
std::vector<int> ArgMaxRows(const Tensor& a);

/// Stacks equal-length [D] tensors into [N,D].
Tensor StackRows(const std::vector<Tensor>& rows);

}  // namespace vsd::tensor

#endif  // VSD_TENSOR_TENSOR_H_
