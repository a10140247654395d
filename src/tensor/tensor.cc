#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"

namespace vsd::tensor {
namespace {

int ShapeProduct(const std::vector<int>& shape) {
  int n = 1;
  for (int d : shape) {
    VSD_CHECK(d >= 0) << "negative dimension " << d;
    n *= d;
  }
  return n;
}

/// The innermost live StorageReuse on this thread. A plain pointer, so it
/// is still readable while the thread's other thread_locals are destroyed.
thread_local StorageReuse* t_active_scope = nullptr;

}  // namespace

StorageReuse::StorageReuse() : outer_(t_active_scope) {
  t_active_scope = this;
}

StorageReuse::~StorageReuse() {
  VSD_CHECK(t_active_scope == this) << "StorageReuse scopes must nest";
  t_active_scope = outer_;
}

std::shared_ptr<std::vector<float>> StorageReuse::NewStorage(
    size_t size, const float* src) {
  StorageReuse* scope = t_active_scope;
  if (scope == nullptr || size < kMinFloats) {
    return src == nullptr
               ? std::make_shared<std::vector<float>>(size, 0.0f)
               : std::make_shared<std::vector<float>>(src, src + size);
  }
  auto* buffer = new std::vector<float>();
  auto best = scope->cache_.lower_bound(size);
  if (best != scope->cache_.end()) {
    *buffer = std::move(best->second);
    scope->cache_.erase(best);
  }
  // Within capacity, assign writes the elements and allocates nothing.
  if (src == nullptr) {
    buffer->assign(size, 0.0f);
  } else {
    buffer->assign(src, src + size);
  }
  return std::shared_ptr<std::vector<float>>(buffer, &StorageReuse::Release);
}

void StorageReuse::Release(std::vector<float>* buffer) {
  StorageReuse* scope = t_active_scope;
  if (scope != nullptr && buffer->capacity() >= kMinFloats) {
    scope->cache_.emplace(buffer->capacity(), std::move(*buffer));
  }
  delete buffer;
}

Tensor::Tensor() : data_(std::make_shared<std::vector<float>>()) {}

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)),
      size_(ShapeProduct(shape_)),
      data_(StorageReuse::NewStorage(size_, nullptr)) {}

Tensor Tensor::Zeros(std::vector<int> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::Full(std::vector<int> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(std::vector<int> shape,
                          std::vector<float> values) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.size_ = ShapeProduct(t.shape_);
  VSD_CHECK(static_cast<int>(values.size()) == t.size_)
      << "FromVector: " << values.size() << " values for size " << t.size_;
  t.data_ = std::make_shared<std::vector<float>>(std::move(values));
  return t;
}

Tensor Tensor::Randn(std::vector<int> shape, Rng* rng, float stddev) {
  Tensor t(std::move(shape));
  for (int i = 0; i < t.size_; ++i) {
    t.data()[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::Uniform(std::vector<int> shape, Rng* rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (int i = 0; i < t.size_; ++i) {
    t.data()[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

int Tensor::dim(int i) const {
  VSD_CHECK(i >= 0 && i < ndim()) << "dim index " << i;
  return shape_[i];
}

float* Tensor::data() {
  VSD_CHECK(dtype_ == DType::kF32) << "data() on int8 tensor";
  return data_->data();
}
const float* Tensor::data() const {
  VSD_CHECK(dtype_ == DType::kF32) << "data() on int8 tensor";
  return data_->data();
}

const int8_t* Tensor::qdata() const {
  VSD_CHECK(dtype_ == DType::kI8) << "qdata() on fp32 tensor";
  return qstore_->q.data();
}
const float* Tensor::qscale() const {
  VSD_CHECK(dtype_ == DType::kI8) << "qscale() on fp32 tensor";
  return qstore_->scale.data();
}
const int32_t* Tensor::qzero() const {
  VSD_CHECK(dtype_ == DType::kI8) << "qzero() on fp32 tensor";
  return qstore_->zero.data();
}

Tensor Tensor::QuantizeInt8() const {
  VSD_CHECK(dtype_ == DType::kF32) << "QuantizeInt8 on int8 tensor";
  VSD_CHECK(ndim() == 2) << "QuantizeInt8 requires 2-D, got rank " << ndim();
  const int rows = shape_[0];
  const int cols = shape_[1];
  VSD_CHECK(rows == 0 || cols > 0) << "QuantizeInt8 on zero-width rows";
  auto store = std::make_shared<QuantStorage>();
  store->q.resize(static_cast<size_t>(size_));
  store->scale.resize(static_cast<size_t>(rows));
  store->zero.resize(static_cast<size_t>(rows));
  const float* src = data_->data();
  // Rows quantize independently, so the split across workers cannot
  // change the result — quantization is deterministic per VSD_THREADS.
  ParallelFor(rows, [&](int64_t r) {
    const RowQuant params = QuantizeRowInt8(
        src + r * cols, cols, store->q.data() + r * cols);
    store->scale[static_cast<size_t>(r)] = params.scale;
    store->zero[static_cast<size_t>(r)] = params.zero_point;
  });
  Tensor t;
  t.shape_ = shape_;
  t.size_ = size_;
  t.dtype_ = DType::kI8;
  t.qstore_ = std::move(store);
  return t;
}

Tensor Tensor::DequantizeF32() const {
  VSD_CHECK(dtype_ == DType::kI8) << "DequantizeF32 on fp32 tensor";
  const int rows = shape_[0];
  const int cols = shape_[1];
  Tensor out(shape_);
  float* dst = out.data();
  for (int r = 0; r < rows; ++r) {
    DequantizeRowInt8(qstore_->q.data() + static_cast<size_t>(r) * cols,
                      cols, qstore_->scale[static_cast<size_t>(r)],
                      qstore_->zero[static_cast<size_t>(r)],
                      dst + static_cast<size_t>(r) * cols);
  }
  return out;
}

Tensor Tensor::Clone() const {
  Tensor t;
  t.shape_ = shape_;
  t.size_ = size_;
  t.dtype_ = dtype_;
  if (dtype_ == DType::kI8) {
    t.qstore_ = std::make_shared<const QuantStorage>(*qstore_);
  } else {
    t.data_ = StorageReuse::NewStorage(size_, data_->data());
  }
  return t;
}

Tensor Tensor::Reshape(std::vector<int> shape) const {
  VSD_CHECK(dtype_ == DType::kF32) << "Reshape on int8 tensor";
  Tensor t;
  t.shape_ = std::move(shape);
  t.size_ = ShapeProduct(t.shape_);
  VSD_CHECK(t.size_ == size_) << "Reshape size mismatch";
  t.data_ = data_;
  return t;
}

Tensor Tensor::Row(int row) const {
  VSD_CHECK(ndim() == 2) << "Row requires 2-D";
  VSD_CHECK(row >= 0 && row < shape_[0]) << "row " << row;
  const int d = shape_[1];
  Tensor out({d});
  for (int j = 0; j < d; ++j) out.at(j) = at(row, j);
  return out;
}

void Tensor::Fill(float value) {
  for (auto& x : *data_) x = value;
}

void Tensor::AddInPlace(const Tensor& other) {
  VSD_CHECK(SameShape(*this, other)) << "AddInPlace shape mismatch";
  float* dst = data_->data();
  const float* src = other.data();
  for (int i = 0; i < size_; ++i) dst[i] += src[i];
}

void Tensor::ScaleInPlace(float s) {
  for (auto& x : *data_) x *= s;
}

std::vector<float> Tensor::ToVector() const { return *data_; }

std::string Tensor::ToString() const {
  std::string out = "Tensor[";
  for (int i = 0; i < ndim(); ++i) {
    if (i > 0) out += "x";
    out += std::to_string(shape_[i]);
  }
  out += "]{";
  const int show = std::min(size_, 8);
  char buf[32];
  for (int i = 0; i < show; ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.4g", at(i));
    out += buf;
  }
  if (size_ > show) out += ", ...";
  out += "}";
  return out;
}

bool SameShape(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape();
}

namespace {

enum class BroadcastKind { kSame, kScalarB, kRowB, kInvalid };

BroadcastKind ClassifyBroadcast(const Tensor& a, const Tensor& b) {
  if (SameShape(a, b)) return BroadcastKind::kSame;
  if (b.size() == 1) return BroadcastKind::kScalarB;
  if (a.ndim() == 2 && b.ndim() == 1 && b.dim(0) == a.dim(1)) {
    return BroadcastKind::kRowB;
  }
  if (a.ndim() == 2 && b.ndim() == 2 && b.dim(0) == 1 &&
      b.dim(1) == a.dim(1)) {
    return BroadcastKind::kRowB;
  }
  return BroadcastKind::kInvalid;
}

template <typename Op>
Tensor BinaryOp(const Tensor& a, const Tensor& b, Op op, const char* name) {
  const BroadcastKind kind = ClassifyBroadcast(a, b);
  VSD_CHECK(kind != BroadcastKind::kInvalid) << name << " shape mismatch";
  Tensor out(a.shape());
  switch (kind) {
    case BroadcastKind::kSame:
      for (int i = 0; i < a.size(); ++i) out.at(i) = op(a.at(i), b.at(i));
      break;
    case BroadcastKind::kScalarB: {
      const float s = b.at(0);
      for (int i = 0; i < a.size(); ++i) out.at(i) = op(a.at(i), s);
      break;
    }
    case BroadcastKind::kRowB: {
      const int n = a.dim(0);
      const int d = a.dim(1);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < d; ++j) {
          out.at(i * d + j) = op(a.at(i * d + j), b.at(j));
        }
      }
      break;
    }
    case BroadcastKind::kInvalid:
      break;
  }
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  // Row-broadcast adds go through the shared kernel so the eager path and
  // the compiled graph executor run the same compiled loop (bit-identity).
  if (ClassifyBroadcast(a, b) == BroadcastKind::kRowB) {
    Tensor out(a.shape());
    kernels::AddRowsInto(a.data(), b.data(), out.data(), a.dim(0),
                         a.dim(1));
    return out;
  }
  return BinaryOp(a, b, [](float x, float y) { return x + y; }, "Add");
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x - y; }, "Sub");
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x * y; }, "Mul");
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out = a.Clone();
  out.ScaleInPlace(s);
  return out;
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  VSD_CHECK(a.ndim() == 2 && b.ndim() == 2) << "MatMul requires 2-D";
  VSD_CHECK(a.dim(1) == b.dim(0)) << "MatMul inner dim mismatch";
  const int m = a.dim(0);
  const int k = a.dim(1);
  const int n = b.dim(1);
  Tensor out({m, n});
  if (b.dtype() == DType::kI8) {
    kernels::MatMulI8Into(a.data(), b.qdata(), b.qscale(), b.qzero(),
                          out.data(), m, k, n);
  } else {
    kernels::MatMulInto(a.data(), b.data(), out.data(), m, k, n);
  }
  return out;
}

Tensor Transpose(const Tensor& a) {
  VSD_CHECK(a.ndim() == 2) << "Transpose requires 2-D";
  const int m = a.dim(0);
  const int n = a.dim(1);
  Tensor out({n, m});
  // Square blocks, so that the rows read and the rows written both stay in
  // cache while a block is copied.
  constexpr int kBlock = 16;
  const float* src = a.data();
  float* dst = out.data();
  for (int i0 = 0; i0 < m; i0 += kBlock) {
    const int i1 = std::min(i0 + kBlock, m);
    for (int j0 = 0; j0 < n; j0 += kBlock) {
      const int j1 = std::min(j0 + kBlock, n);
      for (int i = i0; i < i1; ++i) {
        const float* row = src + static_cast<long long>(i) * n;
        for (int j = j0; j < j1; ++j) {
          dst[static_cast<long long>(j) * m + i] = row[j];
        }
      }
    }
  }
  return out;
}

float Sum(const Tensor& a) {
  double s = 0.0;
  for (int i = 0; i < a.size(); ++i) s += a.at(i);
  return static_cast<float>(s);
}

float Mean(const Tensor& a) {
  if (a.size() == 0) return 0.0f;
  return Sum(a) / static_cast<float>(a.size());
}

namespace {
template <typename Op>
Tensor UnaryOp(const Tensor& a, Op op) {
  Tensor out(a.shape());
  for (int i = 0; i < a.size(); ++i) out.at(i) = op(a.at(i));
  return out;
}
}  // namespace

Tensor Relu(const Tensor& a) {
  Tensor out(a.shape());
  kernels::ReluInto(a.data(), out.data(), a.size());
  return out;
}

Tensor Tanh(const Tensor& a) {
  Tensor out(a.shape());
  kernels::TanhInto(a.data(), out.data(), a.size());
  return out;
}

Tensor Sigmoid(const Tensor& a) {
  Tensor out(a.shape());
  kernels::SigmoidInto(a.data(), out.data(), a.size());
  return out;
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::exp(x); });
}

Tensor SoftmaxRows(const Tensor& a) {
  VSD_CHECK(a.ndim() == 2) << "SoftmaxRows requires 2-D";
  const int n = a.dim(0);
  const int d = a.dim(1);
  Tensor out(a.shape());
  for (int i = 0; i < n; ++i) {
    float m = a.at(i, 0);
    for (int j = 1; j < d; ++j) m = std::max(m, a.at(i, j));
    float sum = 0.0f;
    for (int j = 0; j < d; ++j) {
      const float e = std::exp(a.at(i, j) - m);
      out.at(i, j) = e;
      sum += e;
    }
    for (int j = 0; j < d; ++j) out.at(i, j) /= sum;
  }
  return out;
}

std::vector<int> ArgMaxRows(const Tensor& a) {
  VSD_CHECK(a.ndim() == 2) << "ArgMaxRows requires 2-D";
  const int n = a.dim(0);
  const int d = a.dim(1);
  std::vector<int> out(n, 0);
  for (int i = 0; i < n; ++i) {
    float best = a.at(i, 0);
    for (int j = 1; j < d; ++j) {
      if (a.at(i, j) > best) {
        best = a.at(i, j);
        out[i] = j;
      }
    }
  }
  return out;
}

Tensor StackRows(const std::vector<Tensor>& rows) {
  VSD_CHECK(!rows.empty()) << "StackRows: empty input";
  const int d = rows[0].size();
  Tensor out({static_cast<int>(rows.size()), d});
  for (size_t i = 0; i < rows.size(); ++i) {
    VSD_CHECK(rows[i].size() == d) << "StackRows: ragged rows";
    for (int j = 0; j < d; ++j) {
      out.at(static_cast<int>(i), j) = rows[i].at(j);
    }
  }
  return out;
}

}  // namespace vsd::tensor
