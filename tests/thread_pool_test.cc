// Unit tests for the deterministic thread pool: task completion,
// exception propagation, nested-loop safety, the threads=1 inline path,
// and the pool-size-independent static partitioning that underpins the
// parallel-vs-serial equivalence contract.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace vsd {
namespace {

TEST(StaticPartitionTest, ChunksCoverRangeExactlyOnce) {
  for (int64_t n : {1, 2, 5, 63, 64, 65, 1000, 4096}) {
    const int chunks = NumChunks(n);
    ASSERT_GE(chunks, 1);
    std::vector<int> hits(n, 0);
    int64_t expected_begin = 0;
    for (int c = 0; c < chunks; ++c) {
      const auto [begin, end] = ChunkBounds(n, c);
      EXPECT_EQ(begin, expected_begin) << "gap before chunk " << c;
      EXPECT_GT(end, begin) << "empty chunk " << c;
      for (int64_t i = begin; i < end; ++i) ++hits[i];
      expected_begin = end;
    }
    EXPECT_EQ(expected_begin, n);
    for (int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(StaticPartitionTest, MappingIndependentOfPoolSize) {
  // The partition is a pure function of n: pools of any size must see the
  // same index -> chunk mapping. (ChunkBounds takes no pool argument, so
  // this asserts the API cannot regress into pool-size-dependent chunks.)
  const int64_t n = 1000;
  std::vector<int> chunk_of(n, -1);
  for (int c = 0; c < NumChunks(n); ++c) {
    const auto [begin, end] = ChunkBounds(n, c);
    for (int64_t i = begin; i < end; ++i) chunk_of[i] = c;
  }
  for (int pool_size : {1, 2, 3, 8}) {
    ThreadPool pool(pool_size);
    std::vector<int> seen(n, -2);
    pool.ParallelFor(n, [&](int64_t i) {
      // Recompute the chunk this index belongs to; it must match the
      // pool-independent mapping above.
      for (int c = 0; c < NumChunks(n); ++c) {
        const auto [begin, end] = ChunkBounds(n, c);
        if (i >= begin && i < end) {
          seen[i] = c;
          return;
        }
      }
    });
    EXPECT_EQ(seen, chunk_of) << "pool size " << pool_size;
  }
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    const int64_t n = 500;
    std::vector<int> counts(n, 0);
    pool.ParallelFor(n, [&](int64_t i) { ++counts[i]; });
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), n)
        << "threads=" << threads;
    for (int64_t i = 0; i < n; ++i) EXPECT_EQ(counts[i], 1);
  }
}

TEST(ThreadPoolTest, ParallelMapPreservesIndexOrder) {
  ThreadPool pool(4);
  const auto out =
      pool.ParallelMap<int64_t>(300, [](int64_t i) { return i * i; });
  ASSERT_EQ(out.size(), 300u);
  for (int64_t i = 0; i < 300; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, ZeroAndNegativeCountsAreNoOps) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](int64_t) { ++calls; });
  pool.ParallelFor(-5, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(pool.ParallelMap<int>(0, [](int64_t) { return 1; }).empty());
}

TEST(ThreadPoolTest, SingleThreadRunsInlineOnCallerThread) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  bool all_inline = true;
  pool.ParallelFor(100, [&](int64_t) {
    if (std::this_thread::get_id() != caller) all_inline = false;
  });
  EXPECT_TRUE(all_inline);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.ParallelFor(200,
                         [](int64_t i) {
                           if (i == 137) throw std::runtime_error("boom");
                         }),
        std::runtime_error)
        << "threads=" << threads;
    // The pool stays usable after a throwing loop.
    std::atomic<int> ran{0};
    pool.ParallelFor(50, [&](int64_t) { ++ran; });
    EXPECT_EQ(ran.load(), 50);
  }
}

TEST(ThreadPoolTest, LowestFailingIndexWinsDeterministically) {
  // Both the inline and the parallel path must surface the exception of
  // the lowest failing iteration, so error behavior cannot depend on
  // scheduling.
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::string what;
    try {
      pool.ParallelFor(400, [](int64_t i) {
        if (i % 100 == 99) {
          throw std::runtime_error("fail@" + std::to_string(i));
        }
      });
      FAIL() << "expected throw, threads=" << threads;
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "fail@99") << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineAndCompletes) {
  ThreadPool pool(4);
  const int64_t outer = 20;
  const int64_t inner = 30;
  std::vector<std::vector<int>> counts(outer, std::vector<int>(inner, 0));
  pool.ParallelFor(outer, [&](int64_t i) {
    // Nested call on the same pool: must not deadlock, and must still run
    // every inner index exactly once.
    pool.ParallelFor(inner, [&](int64_t j) { ++counts[i][j]; });
  });
  for (int64_t i = 0; i < outer; ++i) {
    for (int64_t j = 0; j < inner; ++j) {
      EXPECT_EQ(counts[i][j], 1) << "(" << i << "," << j << ")";
    }
  }
}

TEST(ThreadPoolTest, ConcurrentExternalSubmittersSerialize) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      pool.ParallelFor(100, [&](int64_t) { ++total; });
    });
  }
  for (auto& s : submitters) s.join();
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPoolTest, DefaultThreadsReadsEnvironment) {
  const char* saved = std::getenv("VSD_THREADS");
  const std::string saved_value = saved ? saved : "";
  setenv("VSD_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 3);
  setenv("VSD_THREADS", "0", 1);  // degenerate -> serial
  EXPECT_EQ(ThreadPool::DefaultThreads(), 1);
  setenv("VSD_THREADS", "junk", 1);
  EXPECT_EQ(ThreadPool::DefaultThreads(), 1);
  unsetenv("VSD_THREADS");
  EXPECT_EQ(ThreadPool::DefaultThreads(), 1);
  if (saved) setenv("VSD_THREADS", saved_value.c_str(), 1);
}

TEST(ThreadPoolTest, SetGlobalThreadsResizesGlobalPool) {
  const int original = ThreadPool::GlobalThreads();
  ThreadPool::SetGlobalThreads(2);
  EXPECT_EQ(ThreadPool::GlobalThreads(), 2);
  std::vector<int> counts(64, 0);
  ParallelFor(64, [&](int64_t i) { ++counts[i]; });
  for (int c : counts) EXPECT_EQ(c, 1);
  ThreadPool::SetGlobalThreads(original);
}

}  // namespace
}  // namespace vsd
