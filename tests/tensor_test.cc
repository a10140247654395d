#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace vsd::tensor {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.ndim(), 2);
  EXPECT_EQ(t.size(), 6);
  for (int i = 0; i < t.size(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(TensorTest, EmptyTensor) {
  Tensor t;
  EXPECT_EQ(t.size(), 0);
  EXPECT_TRUE(t.empty());
}

TEST(TensorTest, FullAndFill) {
  Tensor t = Tensor::Full({4}, 2.5f);
  EXPECT_EQ(t.at(3), 2.5f);
  t.Fill(-1.0f);
  EXPECT_EQ(t.at(0), -1.0f);
}

TEST(TensorTest, FromVector) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(1, 0), 3.0f);
  EXPECT_EQ(t.at(0, 1), 2.0f);
}

TEST(TensorTest, CopyIsShallowCloneIsDeep) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor shallow = a;
  Tensor deep = a.Clone();
  a.at(0) = 9.0f;
  EXPECT_EQ(shallow.at(0), 9.0f);
  EXPECT_EQ(deep.at(0), 1.0f);
}

TEST(TensorTest, ReshapeSharesData) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = a.Reshape({3, 2});
  b.at(0, 0) = 42.0f;
  EXPECT_EQ(a.at(0, 0), 42.0f);
  EXPECT_EQ(b.at(2, 1), 6.0f);
}

TEST(TensorTest, RowExtraction) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = a.Row(1);
  EXPECT_EQ(r.ndim(), 1);
  EXPECT_EQ(r.at(0), 4.0f);
  EXPECT_EQ(r.at(2), 6.0f);
}

TEST(TensorTest, At4Indexing) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 7.0f;
  EXPECT_EQ(t.at(t.size() - 1), 7.0f);
}

TEST(TensorTest, RandnStatistics) {
  Rng rng(42);
  Tensor t = Tensor::Randn({10000}, &rng, 2.0f);
  double mean = 0.0;
  for (int i = 0; i < t.size(); ++i) mean += t.at(i);
  mean /= t.size();
  double var = 0.0;
  for (int i = 0; i < t.size(); ++i) var += (t.at(i) - mean) * (t.at(i) - mean);
  var /= t.size();
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(TensorTest, UniformRange) {
  Rng rng(43);
  Tensor t = Tensor::Uniform({1000}, &rng, -1.0f, 1.0f);
  for (int i = 0; i < t.size(); ++i) {
    EXPECT_GE(t.at(i), -1.0f);
    EXPECT_LT(t.at(i), 1.0f);
  }
}

TEST(TensorOpsTest, AddSameShape) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = Tensor::FromVector({2}, {10, 20});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.at(0), 11.0f);
  EXPECT_EQ(c.at(1), 22.0f);
}

TEST(TensorOpsTest, AddScalarBroadcast) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor s = Tensor::Full({1}, 10.0f);
  Tensor c = Add(a, s);
  EXPECT_EQ(c.at(1, 1), 14.0f);
}

TEST(TensorOpsTest, AddRowBroadcast) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.at(0, 0), 11.0f);
  EXPECT_EQ(c.at(1, 2), 36.0f);
}

TEST(TensorOpsTest, SubMulScale) {
  Tensor a = Tensor::FromVector({2}, {5, 8});
  Tensor b = Tensor::FromVector({2}, {2, 4});
  EXPECT_EQ(Sub(a, b).at(1), 4.0f);
  EXPECT_EQ(Mul(a, b).at(0), 10.0f);
  EXPECT_EQ(Scale(a, 0.5f).at(1), 4.0f);
}

TEST(TensorOpsTest, MatMulKnownResult) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(TensorOpsTest, MatMulIdentity) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor eye = Tensor::FromVector({2, 2}, {1, 0, 0, 1});
  Tensor c = MatMul(a, eye);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.at(i), a.at(i));
}

TEST(TensorOpsTest, Transpose) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_EQ(t.at(2, 1), 6.0f);
  EXPECT_EQ(t.at(0, 1), 4.0f);
}

TEST(TensorOpsTest, SumMean) {
  Tensor a = Tensor::FromVector({4}, {1, 2, 3, 4});
  EXPECT_EQ(Sum(a), 10.0f);
  EXPECT_EQ(Mean(a), 2.5f);
}

TEST(TensorOpsTest, ElementwiseMaps) {
  Tensor a = Tensor::FromVector({3}, {-1.0f, 0.0f, 2.0f});
  Tensor r = Relu(a);
  EXPECT_EQ(r.at(0), 0.0f);
  EXPECT_EQ(r.at(2), 2.0f);
  Tensor s = Sigmoid(a);
  EXPECT_NEAR(s.at(1), 0.5f, 1e-6f);
  Tensor t = Tanh(a);
  EXPECT_NEAR(t.at(2), std::tanh(2.0f), 1e-6f);
  Tensor e = Exp(a);
  EXPECT_NEAR(e.at(0), std::exp(-1.0f), 1e-6f);
}

TEST(TensorOpsTest, SoftmaxRowsSumsToOne) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 100, 100, 100});
  Tensor p = SoftmaxRows(a);
  for (int i = 0; i < 2; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < 3; ++j) sum += p.at(i, j);
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  EXPECT_NEAR(p.at(1, 0), 1.0f / 3.0f, 1e-6f);
  EXPECT_GT(p.at(0, 2), p.at(0, 1));
}

TEST(TensorOpsTest, ArgMaxRows) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 5, 2, 9, 0, 3});
  auto idx = ArgMaxRows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(TensorOpsTest, StackRows) {
  Tensor r0 = Tensor::FromVector({2}, {1, 2});
  Tensor r1 = Tensor::FromVector({2}, {3, 4});
  Tensor s = StackRows({r0, r1});
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.at(1, 1), 4.0f);
}

TEST(TensorOpsTest, AddInPlaceAndScaleInPlace) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = Tensor::FromVector({2}, {3, 4});
  a.AddInPlace(b);
  EXPECT_EQ(a.at(0), 4.0f);
  a.ScaleInPlace(2.0f);
  EXPECT_EQ(a.at(1), 12.0f);
}

TEST(TensorTest, ToStringMentionsShape) {
  Tensor a({2, 3});
  EXPECT_NE(a.ToString().find("2x3"), std::string::npos);
}

// ---- StorageReuse ----

constexpr int kLarge = static_cast<int>(StorageReuse::kMinFloats);

/// True when every element is +0.0f, bit for bit.
bool AllPositiveZeroBits(const Tensor& t) {
  for (int i = 0; i < t.size(); ++i) {
    uint32_t bits;
    const float x = t.at(i);
    std::memcpy(&bits, &x, sizeof(bits));
    if (bits != 0u) return false;
  }
  return true;
}

TEST(StorageReuseTest, SameSizeTensorGetsTheReleasedBufferZeroed) {
  StorageReuse reuse;
  Tensor a({kLarge});
  a.Fill(-0.0f);
  a.at(7) = 3.5f;
  const float* buffer = a.data();
  a = Tensor();
  EXPECT_EQ(reuse.cached(), 1u);
  Tensor b({kLarge});
  EXPECT_EQ(b.data(), buffer);
  EXPECT_EQ(reuse.cached(), 0u);
  EXPECT_TRUE(AllPositiveZeroBits(b));
}

TEST(StorageReuseTest, SmallerLargeTensorTakesTheSmallestBufferThatFits) {
  StorageReuse reuse;
  Tensor biggest({3 * kLarge});
  Tensor bigger({2 * kLarge});
  bigger.Fill(1.0f);
  const float* buffer = bigger.data();
  biggest = Tensor();
  bigger = Tensor();
  ASSERT_EQ(reuse.cached(), 2u);
  Tensor t({kLarge + 1});
  EXPECT_EQ(t.data(), buffer);
  EXPECT_EQ(t.size(), kLarge + 1);
  EXPECT_TRUE(AllPositiveZeroBits(t));
  EXPECT_EQ(reuse.cached(), 1u);
}

TEST(StorageReuseTest, CloneTakesACachedBufferAndCopies) {
  StorageReuse reuse;
  Tensor src = Tensor::Full({kLarge}, 2.0f);
  { Tensor dropped({kLarge}); }
  ASSERT_EQ(reuse.cached(), 1u);
  Tensor copy = src.Clone();
  EXPECT_EQ(reuse.cached(), 0u);
  EXPECT_NE(copy.data(), src.data());
  EXPECT_EQ(copy.at(kLarge - 1), 2.0f);
}

TEST(StorageReuseTest, BufferReleasedAfterTheScopeEndsIsNotHandedOut) {
  Tensor kept;
  {
    StorageReuse reuse;
    kept = Tensor({kLarge});
    Tensor dropped({kLarge});
  }  // `dropped`'s buffer was cached and is freed with the scope.
  StorageReuse later;
  EXPECT_EQ(later.cached(), 0u);
  {
    StorageReuse inner;
    kept = Tensor();  // Released into the innermost live scope.
    EXPECT_EQ(inner.cached(), 1u);
    EXPECT_EQ(later.cached(), 0u);
  }
  EXPECT_EQ(later.cached(), 0u);
  Tensor made_in_later({kLarge});
  made_in_later = Tensor();
  EXPECT_EQ(later.cached(), 1u);
}

TEST(StorageReuseTest, ReleaseOnAParallelForWorkerStaysOutOfTheCache) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  StorageReuse reuse;
  std::vector<Tensor> tensors = {Tensor({kLarge}), Tensor({kLarge})};
  std::atomic<int> caller_releases{0};
  std::atomic<int> worker_releases{0};
  pool.ParallelFor(2, [&](int64_t i) {
    if (std::this_thread::get_id() != caller) {
      tensors[i] = Tensor();
      worker_releases.fetch_add(1);
      return;
    }
    // Hold the caller's index until a worker has taken the other one.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (worker_releases.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    tensors[i] = Tensor();
    caller_releases.fetch_add(1);
  });
  ASSERT_GE(worker_releases.load(), 1);
  EXPECT_EQ(reuse.cached(), static_cast<size_t>(caller_releases.load()));
}

TEST(StorageReuseTest, TensorsUnderTheThresholdNeverEnterTheCache) {
  StorageReuse reuse;
  { Tensor small({kLarge - 1}); }
  EXPECT_EQ(reuse.cached(), 0u);
  { Tensor large({kLarge}); }
  ASSERT_EQ(reuse.cached(), 1u);
  Tensor small({kLarge - 1});
  EXPECT_EQ(reuse.cached(), 1u);
}

}  // namespace
}  // namespace vsd::tensor
