// Tests for the int8 row-quantization path (tensor/quant.h, Tensor::
// QuantizeInt8) and the kernel backend switch (tensor/kernels.h):
// round-trip error bounds, determinism across thread counts, the fused
// int8 MatMul's bit-identity with dequantize-then-MatMul, backend
// dispatch, and scalar-vs-SIMD bitwise equality for every dispatched
// kernel including vector-width tails, for the 4-lane and the 8-lane copy
// each called directly.
#include "tensor/quant.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/kernels.h"
#include "tensor/kernels_backends.h"
#include "tensor/tensor.h"

namespace vsd::tensor {
namespace {

namespace k = ::vsd::tensor::kernels;

/// RAII backend override, mirroring GraphModeGuard in graph_exec_test.cc.
class BackendGuard {
 public:
  explicit BackendGuard(k::Backend backend) { k::SetBackend(backend); }
  ~BackendGuard() { k::ClearBackendOverride(); }
};

/// RAII global-thread-count override.
class ThreadsGuard {
 public:
  explicit ThreadsGuard(int n) { ThreadPool::SetGlobalThreads(n); }
  ~ThreadsGuard() { ThreadPool::SetGlobalThreads(1); }
};

TEST(QuantRowTest, RoundTripErrorBoundedByHalfScale) {
  Rng rng(1);
  constexpr int kN = 257;
  std::vector<float> x(kN);
  for (float& v : x) v = rng.Normal() * 3.0f;
  std::vector<int8_t> q(kN);
  const RowQuant rq = QuantizeRowInt8(x.data(), kN, q.data());
  std::vector<float> dq(kN);
  DequantizeRowInt8(q.data(), kN, rq.scale, rq.zero_point, dq.data());
  // Round-to-nearest: |x - dq| <= scale/2 (plus fp rounding slack).
  const float bound = rq.scale * 0.5f * 1.0001f + 1e-7f;
  for (int i = 0; i < kN; ++i) {
    EXPECT_LE(std::fabs(x[i] - dq[i]), bound) << "i=" << i;
  }
}

TEST(QuantRowTest, DegenerateRowsQuantizeToExactValues) {
  // Constant rows have zero range; the degenerate scale must still
  // round-trip the constant and keep zeros exact.
  for (float c : {0.0f, 1.5f, -2.25f}) {
    std::vector<float> x(8, c);
    std::vector<int8_t> q(8);
    const RowQuant rq = QuantizeRowInt8(x.data(), 8, q.data());
    std::vector<float> dq(8);
    DequantizeRowInt8(q.data(), 8, rq.scale, rq.zero_point, dq.data());
    for (float v : dq) EXPECT_FLOAT_EQ(v, c);
  }
}

TEST(QuantRowTest, ZerosSurviveRoundTripExactly) {
  // The quantization range is widened to include 0 so that exact zeros map
  // to the zero point — the MatMul zero-row skip depends on this.
  std::vector<float> x = {0.0f, 5.0f, 0.0f, -3.0f, 0.0f, 7.5f};
  std::vector<int8_t> q(x.size());
  const RowQuant rq =
      QuantizeRowInt8(x.data(), static_cast<int>(x.size()), q.data());
  std::vector<float> dq(x.size());
  DequantizeRowInt8(q.data(), static_cast<int>(x.size()), rq.scale,
                    rq.zero_point, dq.data());
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] == 0.0f) {
      EXPECT_EQ(dq[i], 0.0f) << "i=" << i;
    }
  }
}

TEST(QuantTensorTest, QuantizeIsDeterministicAcrossThreadCounts) {
  Rng rng(7);
  Tensor w = Tensor::Randn({64, 96}, &rng);
  Tensor q1, q4;
  {
    ThreadsGuard threads(1);
    q1 = w.QuantizeInt8();
  }
  {
    ThreadsGuard threads(4);
    q4 = w.QuantizeInt8();
  }
  const size_t n = static_cast<size_t>(64) * 96;
  EXPECT_EQ(0, std::memcmp(q1.qdata(), q4.qdata(), n * sizeof(int8_t)));
  EXPECT_EQ(0, std::memcmp(q1.qscale(), q4.qscale(), 64 * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(q1.qzero(), q4.qzero(), 64 * sizeof(int32_t)));
}

TEST(QuantTensorTest, DequantizeRoundTripsWithinPerRowBound) {
  Rng rng(9);
  Tensor w = Tensor::Randn({16, 40}, &rng);
  Tensor q = w.QuantizeInt8();
  EXPECT_EQ(q.dtype(), DType::kI8);
  Tensor dq = q.DequantizeF32();
  EXPECT_EQ(dq.dtype(), DType::kF32);
  for (int i = 0; i < 16; ++i) {
    const float bound = q.qscale()[i] * 0.5f * 1.0001f + 1e-7f;
    for (int j = 0; j < 40; ++j) {
      EXPECT_LE(std::fabs(w.data()[i * 40 + j] - dq.data()[i * 40 + j]),
                bound);
    }
  }
}

TEST(QuantMatMulTest, FusedInt8MatchesDequantizeThenMatMulBitwise) {
  // The fused kernel dequantizes inline in the same k-order the fp32
  // kernel reads b, so both orderings see identical float op sequences.
  Rng rng(11);
  for (int backend = 0; backend < (k::SimdCompiled() ? 2 : 1); ++backend) {
    BackendGuard guard(static_cast<k::Backend>(backend));
    for (int n : {8, 13, 64}) {  // Includes non-multiple-of-8 tails.
      Tensor a = Tensor::Randn({5, 24}, &rng);
      Tensor b = Tensor::Randn({24, n}, &rng);
      Tensor bq = b.QuantizeInt8();
      Tensor fused = MatMul(a, bq);
      Tensor reference = MatMul(a, bq.DequantizeF32());
      ASSERT_EQ(fused.size(), reference.size());
      EXPECT_EQ(0, std::memcmp(fused.data(), reference.data(),
                               fused.size() * sizeof(float)))
          << "backend=" << backend << " n=" << n;
    }
  }
}

/// Calls the entry point `entry` under `backend` and the backend kernel
/// `direct` through the same `call(fn, out)` into dirty buffers, and
/// expects the same bytes.
template <typename Fn, typename Call>
void ExpectEntryComputes(k::Backend backend, Fn* entry, Fn* direct,
                         size_t out_size, Call call) {
  std::vector<float> via_entry(out_size, -123.25f);
  std::vector<float> via_direct(out_size, 456.75f);
  {
    BackendGuard guard(backend);
    call(entry, via_entry.data());
  }
  call(direct, via_direct.data());
  EXPECT_EQ(0, std::memcmp(via_entry.data(), via_direct.data(),
                           out_size * sizeof(float)));
}

/// One set of inputs for every entry point. `image` is NHWC [2,5,4,3];
/// im2col with a 3x3 kernel, stride 2, pad 1 gives [2*3*2, 27].
struct KernelInputs {
  Rng rng{27};
  Tensor a = Tensor::Randn({4, 10}, &rng);
  Tensor b = Tensor::Randn({10, 9}, &rng);
  Tensor bq = b.QuantizeInt8();
  Tensor bias = Tensor::Randn({10}, &rng);
  Tensor c = Tensor::Randn({4, 9}, &rng);
  Tensor image = Tensor::Randn({2, 5, 4, 3}, &rng);

  static constexpr size_t kIm2ColSize = 12 * 27;

  /// `call` arguments for ExpectEntryComputes over `image`.
  auto Map() const {
    return [this](auto* fn, float* out) {
      fn(image.data(), out, static_cast<int>(image.size()));
    };
  }
  auto Im2Col() const {
    return [this](auto* fn, float* out) {
      std::vector<float> plane(k::Im2ColPlaneSize(5, 4, 3, 1), 9.5f);
      fn(image.data(), out, 2, 5, 4, 3, 3, 3, 2, 1, plane.data());
    };
  }
};

TEST(RegistryTest, ScalarIsRegisteredForEveryOp) {
  // Under kScalar every entry point computes exactly its scalar kernel.
  const KernelInputs in;
  const k::Backend sc = k::Backend::kScalar;
  const size_t map_size = in.image.size();
  ExpectEntryComputes(sc, &k::MatMulInto, &k::scalar::MatMulInto, 4 * 9,
                      [&](auto* fn, float* out) {
                        fn(in.a.data(), in.b.data(), out, 4, 10, 9);
                      });
  ExpectEntryComputes(sc, &k::MatMulTransAInto, &k::scalar::MatMulTransAInto,
                      10 * 9, [&](auto* fn, float* out) {
                        fn(in.a.data(), in.c.data(), out, 4, 10, 9);
                      });
  ExpectEntryComputes(sc, &k::MatMulI8Into, &k::scalar::MatMulI8Into, 4 * 9,
                      [&](auto* fn, float* out) {
                        fn(in.a.data(), in.bq.qdata(), in.bq.qscale(),
                           in.bq.qzero(), out, 4, 10, 9);
                      });
  ExpectEntryComputes(sc, &k::AddRowsInto, &k::scalar::AddRowsInto, 4 * 10,
                      [&](auto* fn, float* out) {
                        fn(in.a.data(), in.bias.data(), out, 4, 10);
                      });
  ExpectEntryComputes(sc, &k::ReluInto, &k::scalar::ReluInto, map_size,
                      in.Map());
  ExpectEntryComputes(sc, &k::TanhInto, &k::scalar::TanhInto, map_size,
                      in.Map());
  ExpectEntryComputes(sc, &k::SigmoidInto, &k::scalar::SigmoidInto, map_size,
                      in.Map());
  ExpectEntryComputes(sc, &k::GeluInto, &k::scalar::GeluInto, map_size,
                      in.Map());
  ExpectEntryComputes(sc, &k::ConcatRowsInto, &k::scalar::ConcatRowsInto,
                      4 * 19, [&](auto* fn, float* out) {
                        fn(in.a.data(), in.c.data(), out, 4, 10, 9);
                      });
  ExpectEntryComputes(sc, &k::Im2ColInto, &k::scalar::Im2ColInto,
                      KernelInputs::kIm2ColSize, in.Im2Col());
}

TEST(RegistryTest, ResolveFallsBackToScalarForUnregisteredSlots) {
  // Tanh and Sigmoid have no vector variant: under kSimd their entry
  // points still compute the scalar kernel (libm per element). Im2Col's
  // simd variant copies whole kernel rows from a bordered plane, and must
  // give the same bytes.
  const KernelInputs in;
  const k::Backend sd = k::Backend::kSimd;
  const size_t map_size = in.image.size();
  ExpectEntryComputes(sd, &k::TanhInto, &k::scalar::TanhInto, map_size,
                      in.Map());
  ExpectEntryComputes(sd, &k::SigmoidInto, &k::scalar::SigmoidInto, map_size,
                      in.Map());
  ExpectEntryComputes(sd, &k::Im2ColInto, &k::scalar::Im2ColInto,
                      KernelInputs::kIm2ColSize, in.Im2Col());
}

TEST(RegistryTest, BackendOverrideWinsAndClears) {
  {
    BackendGuard guard(k::Backend::kScalar);
    EXPECT_EQ(k::ActiveBackend(), k::Backend::kScalar);
  }
  if (k::SimdCompiled()) {
    BackendGuard guard(k::Backend::kSimd);
    EXPECT_EQ(k::ActiveBackend(), k::Backend::kSimd);
  }
}

/// One compiled set of the dispatched kernels, called directly.
struct KernelCopy {
  const char* name;
  decltype(&k::scalar::MatMulInto) matmul;
  decltype(&k::scalar::MatMulTransAInto) matmul_trans_a;
  decltype(&k::scalar::MatMulI8Into) matmul_i8;
  decltype(&k::scalar::AddRowsInto) add_rows;
  decltype(&k::scalar::ReluInto) relu;
  decltype(&k::scalar::GeluInto) gelu;
  decltype(&k::scalar::ConcatRowsInto) concat_rows;
  decltype(&k::scalar::Im2ColInto) im2col;
};

constexpr KernelCopy kScalarCopy = {
    "scalar",
    &k::scalar::MatMulInto,
    &k::scalar::MatMulTransAInto,
    &k::scalar::MatMulI8Into,
    &k::scalar::AddRowsInto,
    &k::scalar::ReluInto,
    &k::scalar::GeluInto,
    &k::scalar::ConcatRowsInto,
    &k::scalar::Im2ColInto,
};
constexpr KernelCopy kFourLanes = {
    "4-lane simd",
    &k::simd::MatMulInto,
    &k::simd::MatMulTransAInto,
    &k::simd::MatMulI8Into,
    &k::simd::AddRowsInto,
    &k::simd::ReluInto,
    &k::simd::GeluInto,
    &k::simd::ConcatRowsInto,
    &k::simd::Im2ColInto,
};
constexpr KernelCopy kEightLanes = {
    "8-lane simd",
    &k::simd_avx2::MatMulInto,
    &k::simd_avx2::MatMulTransAInto,
    &k::simd_avx2::MatMulI8Into,
    &k::simd_avx2::AddRowsInto,
    &k::simd_avx2::ReluInto,
    &k::simd_avx2::GeluInto,
    &k::simd_avx2::ConcatRowsInto,
    &k::simd_avx2::Im2ColInto,
};
/// The entry points, called under the simd backend (each picks a copy).
constexpr KernelCopy kSimdEntries = {
    "entry points under simd",
    &k::MatMulInto,
    &k::MatMulTransAInto,
    &k::MatMulI8Into,
    &k::AddRowsInto,
    &k::ReluInto,
    &k::GeluInto,
    &k::ConcatRowsInto,
    &k::Im2ColInto,
};

/// The copies checked against scalar: the 4-lane one, the 8-lane one on a
/// CPU that runs it, and the entry points under the simd backend.
std::vector<const KernelCopy*> SimdCopies() {
  std::vector<const KernelCopy*> copies = {&kFourLanes, &kSimdEntries};
  if (k::EightLanesUsable()) copies.push_back(&kEightLanes);
  return copies;
}

/// Runs `fn(copy, out)` for scalar and for every SimdCopies() entry into
/// separate buffers, and expects each simd output bitwise equal to
/// scalar's. Buffers are pre-filled with a dirty pattern so kernels that
/// fail to fully define their output range are caught too.
template <typename Fn>
void ExpectCopiesMatchScalar(size_t out_size, Fn&& fn) {
  if (!k::SimdCompiled()) GTEST_SKIP() << "SIMD backend not compiled in";
  std::vector<float> want(out_size, -123.25f);
  fn(kScalarCopy, want.data());
  for (const KernelCopy* copy : SimdCopies()) {
    std::vector<float> got(out_size, 456.75f);
    {
      BackendGuard guard(k::Backend::kSimd);
      fn(*copy, got.data());
    }
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                             out_size * sizeof(float)))
        << copy->name;
  }
}

/// Ends a sweep: where the 8-lane copy cannot run, says so.
void SkipIfNoEightLanes() {
  if (!k::EightLanesUsable()) {
    GTEST_SKIP() << "8-lane copy not checked: CPU without AVX2, or a build "
                    "without the copy";
  }
}

/// Rows of `a` and `b` per chunk of the simd Aᵀ·B (kernels_simd.cc).
constexpr int kTransAChunk = 256;

/// A [m,k] MatMul operand: normal values with about `zero_share` of them
/// zero, some of those -0.0f, and column `zero_column` all zero.
std::vector<float> SparseOperand(int m, int k, double zero_share,
                                 int zero_column, Rng* rng) {
  std::vector<float> a(static_cast<size_t>(m) * k);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      float& v = a[static_cast<size_t>(i) * k + p];
      v = static_cast<float>(rng->Normal());
      if (p == zero_column || rng->Uniform() < zero_share) {
        v = rng->Bernoulli(0.25) ? -0.0f : 0.0f;
      }
    }
  }
  return a;
}

/// A [k,n] MatMul operand: normal values, except that row `special_row`
/// holds inf, -inf and NaN, which only a skipped zero in `a` keeps out of
/// the product.
std::vector<float> OperandWithNonFiniteRow(int k, int n, int special_row,
                                           Rng* rng) {
  std::vector<float> b(static_cast<size_t>(k) * n);
  for (float& v : b) v = static_cast<float>(rng->Normal());
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  for (int j = 0; j < n; ++j) {
    b[static_cast<size_t>(special_row) * n + j] = specials[j % 3];
  }
  return b;
}

/// A [k,n] MatMul operand of normal values: finite, of mixed sign.
std::vector<float> FiniteOperand(int k, int n, Rng* rng) {
  std::vector<float> b(static_cast<size_t>(k) * n);
  for (float& v : b) v = static_cast<float>(rng->Normal());
  return b;
}

/// Expects every one of `out`'s floats to be +0.0f, bit for bit.
void ExpectPositiveZeros(const std::vector<float>& out) {
  const std::vector<float> zeros(out.size(), 0.0f);
  EXPECT_EQ(0, std::memcmp(out.data(), zeros.data(),
                           out.size() * sizeof(float)));
}

/// Expects the simd MatMul bit-identical to scalar on `a` x `b`, and, under
/// the default backend, every row of the m-row product bit-identical to
/// the 1-row product of that row alone: batch composition never changes
/// a bit.
void ExpectMatMulExact(const std::vector<float>& a,
                       const std::vector<float>& b, int m, int kk, int n) {
  SCOPED_TRACE(testing::Message() << "m=" << m << " k=" << kk << " n=" << n);
  const size_t size = static_cast<size_t>(m) * n;
  ExpectCopiesMatchScalar(size, [&](const KernelCopy& copy, float* out) {
    copy.matmul(a.data(), b.data(), out, m, kk, n);
  });
  if (m == 1) return;
  std::vector<float> rows(size, 1.5f);
  k::MatMulInto(a.data(), b.data(), rows.data(), m, kk, n);
  std::vector<float> row(static_cast<size_t>(n), -2.5f);
  for (int i = 0; i < m; ++i) {
    k::MatMulInto(a.data() + static_cast<size_t>(i) * kk, b.data(),
                  row.data(), 1, kk, n);
    EXPECT_EQ(0, std::memcmp(row.data(),
                             rows.data() + static_cast<size_t>(i) * n,
                             n * sizeof(float)))
        << "row " << i;
  }
}

TEST(SimdBitIdentityTest, MatMulF32IncludingTails) {
  // Every row count, depth and width class the blocked kernel tells apart:
  // row-tile remainders, k below and above its chunk, vector tails, one
  // and several column blocks, and 68 columns, which the entry points run
  // at 8 lanes with a 4-column tail. `a` is ~5%, ~40%, ~95% or all zero,
  // the zeros including -0.0f; from k = 16 the ~40% and ~95% shares take
  // the list path. Each `a` meets three b's:
  //   * a row of inf and NaN under an all-zero a column, which only the
  //     skip keeps out of the product (the skipping tiles);
  //   * a finite b, whose products the tiles add without a zero test (an
  //     all-zero a must then still give +0.0f everywhere);
  //   * the finite b with one NaN in its last column, under the zero a
  //     column: a scalar tail column at 8 lanes, and at 4 lanes too unless
  //     n is a multiple of 4. Only the check of every column of b sends
  //     the tail to the skipping loop.
  Rng rng(21);
  for (double zero_share : {0.05, 0.4, 0.95, 1.0}) {
    for (int m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 64}) {
      for (int kk : {1, 12, 25, 72, 2304}) {
        for (int n : {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12,
                      13, 14, 15, 16, 17, 24, 48, 68, 96, 192}) {
          SCOPED_TRACE(testing::Message() << "zero share " << zero_share);
          const std::vector<float> a =
              SparseOperand(m, kk, zero_share, kk / 2, &rng);
          ExpectMatMulExact(a, OperandWithNonFiniteRow(kk, n, kk / 2, &rng),
                            m, kk, n);
          std::vector<float> b = FiniteOperand(kk, n, &rng);
          {
            SCOPED_TRACE("finite b");
            ExpectMatMulExact(a, b, m, kk, n);
          }
          if (zero_share == 1.0) {
            std::vector<float> out(static_cast<size_t>(m) * n, 1.5f);
            k::MatMulInto(a.data(), b.data(), out.data(), m, kk, n);
            ExpectPositiveZeros(out);
          }
          if (n % 8 != 0) {
            SCOPED_TRACE("NaN in the last column");
            b[static_cast<size_t>(kk / 2) * n + n - 1] =
                std::numeric_limits<float>::quiet_NaN();
            ExpectMatMulExact(a, b, m, kk, n);
          }
        }
      }
    }
  }
  SkipIfNoEightLanes();
}

TEST(SimdBitIdentityTest, MatMulTransAIncludingTails) {
  // aᵀ·b straight from a [m,k] must give the bits of MatMulInto over a
  // transposed copy, under both backends. m crosses the simd kernel's
  // 256-row chunk (accumulators carried through `out`), k covers every
  // row-tile remainder and n every column class of MatMulF32IncludingTails.
  // Row m/2 of `a` is all zero (some -0.0f), and `a` meets three b's:
  //   * the same row of `b` holding inf and NaN, which only the zero skip
  //     keeps out of the product;
  //   * a finite `b`, which the tiles multiply without a zero test (an
  //     all-zero `a` must then still give +0.0f everywhere);
  //   * past the first chunk (m > 256), the finite `b` with one NaN in the
  //     last column of its last row, under row m - 1 of `a`, zeroed too:
  //     each chunk must check its own rows of `b`.
  Rng rng(28);
  for (double zero_share : {0.05, 0.4, 0.95, 1.0}) {
    for (int m : {0, 1, 2, 3, 64, 256, 300, 600}) {
      for (int kk : {1, 2, 3, 4, 5, 7, 9, 13, 25, 72}) {
        for (int n : {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12,
                      13, 14, 15, 16, 17, 24, 48, 68, 96, 192}) {
          SCOPED_TRACE(testing::Message()
                       << "zero share " << zero_share << " m=" << m
                       << " k=" << kk << " n=" << n);
          // SparseOperand zeroes a column; transposed, it is a's row m/2.
          std::vector<float> at = SparseOperand(kk, m, zero_share, m / 2, &rng);
          if (m > kTransAChunk) {
            for (int p = 0; p < kk; ++p) {
              at[static_cast<size_t>(p) * m + m - 1] = 0.0f;
            }
          }
          std::vector<float> a(at.size());
          for (int i = 0; i < m; ++i) {
            for (int p = 0; p < kk; ++p) {
              a[static_cast<size_t>(i) * kk + p] =
                  at[static_cast<size_t>(p) * m + i];
            }
          }
          const size_t size = static_cast<size_t>(kk) * n;
          const auto expect_exact = [&](const std::vector<float>& b) {
            ExpectCopiesMatchScalar(size, [&](const KernelCopy& copy,
                                              float* out) {
              copy.matmul_trans_a(a.data(), b.data(), out, m, kk, n);
            });
            std::vector<float> direct(size, 3.5f);
            std::vector<float> transposed(size, -7.25f);
            k::MatMulTransAInto(a.data(), b.data(), direct.data(), m, kk, n);
            k::MatMulInto(at.data(), b.data(), transposed.data(), kk, m, n);
            EXPECT_EQ(0, std::memcmp(direct.data(), transposed.data(),
                                     size * sizeof(float)));
            return direct;
          };
          expect_exact(m == 0 ? std::vector<float>()
                              : OperandWithNonFiniteRow(m, n, m / 2, &rng));
          std::vector<float> b = FiniteOperand(m, n, &rng);
          {
            SCOPED_TRACE("finite b");
            const std::vector<float> out = expect_exact(b);
            if (zero_share == 1.0) ExpectPositiveZeros(out);
          }
          if (m > kTransAChunk) {
            SCOPED_TRACE("NaN in the last row");
            b[static_cast<size_t>(m - 1) * n + n - 1] =
                std::numeric_limits<float>::quiet_NaN();
            expect_exact(b);
          }
        }
      }
    }
  }
  SkipIfNoEightLanes();
}

TEST(SimdBitIdentityTest, MatMulF32SkipsZeroRows) {
  // The zero-row fast path must fire identically in both backends.
  Rng rng(22);
  Tensor a = Tensor::Randn({6, 12}, &rng);
  for (int j = 0; j < 12; ++j) a.data()[2 * 12 + j] = 0.0f;
  Tensor b = Tensor::Randn({12, 9}, &rng);
  ExpectCopiesMatchScalar(static_cast<size_t>(6) * 9,
                          [&](const KernelCopy& copy, float* out) {
                            copy.matmul(a.data(), b.data(), out, 6, 12, 9);
                          });
  SkipIfNoEightLanes();
}

TEST(SimdBitIdentityTest, Im2ColIncludingPadding) {
  // Every padding case: taps off each edge, whole kernel rows off the top
  // and bottom, windows wider than the padded image's margin; then the
  // model's two convolutions at batch 1-3. The input holds -0.0f and NaN,
  // which the copy must keep bit for bit.
  struct Shape {
    int n, h, w, c, kh, kw, stride, pad;
  };
  std::vector<Shape> shapes;
  for (int n : {1, 3}) {
    for (int c : {1, 8}) {
      for (const auto& [kh, kw] :
           {std::pair{1, 1}, std::pair{3, 3}, std::pair{5, 5},
            std::pair{2, 3}}) {
        for (int stride : {1, 2}) {
          for (int pad : {0, 1, 2}) {
            shapes.push_back({n, 7, 6, c, kh, kw, stride, pad});
          }
        }
      }
    }
  }
  for (int n : {1, 2, 3}) {
    shapes.push_back({n, 48, 48, 1, 5, 5, 2, 2});  // conv1
    shapes.push_back({n, 24, 24, 8, 3, 3, 2, 1});  // conv2
  }
  // One output and one plane per copy, reused across every shape without
  // clearing, and each plane refilled with NaN before each call: a copy
  // that leaves part of its output unwritten, or reads a plane border it
  // did not zero, differs from scalar.
  size_t max_out = 0;
  size_t max_plane = 0;
  for (const Shape& s : shapes) {
    const int oh = (s.h + 2 * s.pad - s.kh) / s.stride + 1;
    const int ow = (s.w + 2 * s.pad - s.kw) / s.stride + 1;
    max_out = std::max(max_out, static_cast<size_t>(s.n) * oh * ow * s.kh *
                                    s.kw * s.c);
    max_plane = std::max(max_plane, static_cast<size_t>(k::Im2ColPlaneSize(
                                        s.h, s.w, s.c, s.pad)));
  }
  const std::vector<const KernelCopy*> copies = SimdCopies();
  std::vector<float> want(max_out, -123.25f);
  std::vector<std::vector<float>> outs(copies.size(),
                                       std::vector<float>(max_out, 456.75f));
  std::vector<float> plane(max_plane);
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  Rng rng(29);
  for (const Shape& s : shapes) {
    const int oh = (s.h + 2 * s.pad - s.kh) / s.stride + 1;
    const int ow = (s.w + 2 * s.pad - s.kw) / s.stride + 1;
    const size_t size =
        static_cast<size_t>(s.n) * oh * ow * s.kh * s.kw * s.c;
    Tensor x = Tensor::Randn({s.n, s.h, s.w, s.c}, &rng);
    x.data()[0] = -0.0f;
    x.data()[x.size() - 1] = kNaN;
    SCOPED_TRACE(testing::Message()
                 << "n=" << s.n << " " << s.h << "x" << s.w << "x" << s.c
                 << " k=" << s.kh << "x" << s.kw << " stride=" << s.stride
                 << " pad=" << s.pad);
    auto run = [&](const KernelCopy& copy, float* out) {
      std::fill(plane.begin(), plane.end(), kNaN);
      copy.im2col(x.data(), out, s.n, s.h, s.w, s.c, s.kh, s.kw, s.stride,
                  s.pad, plane.data());
    };
    run(kScalarCopy, want.data());
    for (size_t i = 0; i < copies.size(); ++i) {
      BackendGuard guard(k::Backend::kSimd);
      run(*copies[i], outs[i].data());
      EXPECT_EQ(0, std::memcmp(want.data(), outs[i].data(),
                               size * sizeof(float)))
          << copies[i]->name;
    }
  }
  SkipIfNoEightLanes();
}

TEST(SimdBitIdentityTest, MatMulI8IncludingTails) {
  Rng rng(23);
  for (int n : {1, 7, 8, 15, 32}) {
    Tensor a = Tensor::Randn({3, 20}, &rng);
    Tensor bq = Tensor::Randn({20, n}, &rng).QuantizeInt8();
    ExpectCopiesMatchScalar(
        static_cast<size_t>(3) * n, [&](const KernelCopy& copy, float* out) {
          copy.matmul_i8(a.data(), bq.qdata(), bq.qscale(), bq.qzero(), out,
                         3, 20, n);
        });
  }
  SkipIfNoEightLanes();
}

TEST(SimdBitIdentityTest, AddRowsIncludingTails) {
  Rng rng(24);
  for (int cols : {1, 5, 8, 19, 64}) {
    Tensor a = Tensor::Randn({7, cols}, &rng);
    Tensor bias = Tensor::Randn({cols}, &rng);
    ExpectCopiesMatchScalar(
        static_cast<size_t>(7) * cols, [&](const KernelCopy& copy, float* out) {
          copy.add_rows(a.data(), bias.data(), out, 7, cols);
        });
  }
  SkipIfNoEightLanes();
}

TEST(SimdBitIdentityTest, ReluHandlesNegZeroAndSpecials) {
  // The SIMD mask trick must match `x > 0 ? x : 0` exactly, including
  // -0.0f -> +0.0f and denormals.
  std::vector<float> x = {-1.0f, 0.0f,  -0.0f, 2.5f,   -2.5f, 1e-38f,
                          -1e-38f, 3.0f, -4.0f, 0.125f, 7.0f,  -0.5f};
  ExpectCopiesMatchScalar(x.size(), [&](const KernelCopy& copy, float* out) {
    copy.relu(x.data(), out, static_cast<int>(x.size()));
  });
  SkipIfNoEightLanes();
}

TEST(SimdBitIdentityTest, GeluIncludingTails) {
  Rng rng(25);
  for (int n : {3, 8, 11, 40}) {
    Tensor x = Tensor::Randn({n}, &rng);
    ExpectCopiesMatchScalar(static_cast<size_t>(n),
                            [&](const KernelCopy& copy, float* out) {
                              copy.gelu(x.data(), out, n);
                            });
  }
  SkipIfNoEightLanes();
}

TEST(SimdBitIdentityTest, ConcatRowsMixedWidths) {
  Rng rng(26);
  Tensor a = Tensor::Randn({5, 13}, &rng);
  Tensor b = Tensor::Randn({5, 6}, &rng);
  ExpectCopiesMatchScalar(static_cast<size_t>(5) * 19,
                          [&](const KernelCopy& copy, float* out) {
                            copy.concat_rows(a.data(), b.data(), out, 5, 13,
                                             6);
                          });
  SkipIfNoEightLanes();
}

TEST(QuantTensorTest, CloneDeepCopiesQuantStorage) {
  Rng rng(31);
  Tensor q = Tensor::Randn({4, 12}, &rng).QuantizeInt8();
  Tensor c = q.Clone();
  EXPECT_EQ(c.dtype(), DType::kI8);
  EXPECT_NE(c.qdata(), q.qdata());
  EXPECT_EQ(0, std::memcmp(c.qdata(), q.qdata(), 4 * 12));
}

}  // namespace
}  // namespace vsd::tensor
