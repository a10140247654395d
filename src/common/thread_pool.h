#ifndef VSD_COMMON_THREAD_POOL_H_
#define VSD_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.h"

namespace vsd {

/// Number of work chunks a loop of `n` iterations is split into. Depends
/// only on `n` — never on the pool size — so the index -> chunk mapping
/// (and anything a caller derives from it) is identical for every thread
/// count. This is half of the determinism contract; the other half is that
/// per-index results are written to per-index slots, so scheduling order
/// can never be observed.
int NumChunks(int64_t n);

/// Half-open iteration range [begin, end) of chunk `chunk` (in
/// [0, NumChunks(n))) of an `n`-iteration loop. Chunks are contiguous,
/// disjoint, and cover [0, n) exactly.
std::pair<int64_t, int64_t> ChunkBounds(int64_t n, int chunk);

/// \brief Fixed-size worker pool with deterministic work partitioning.
///
/// The pool exists so the embarrassingly parallel loops of this codebase
/// (CV folds, per-sample evaluation, explainer perturbation batches) can
/// run on all cores while staying bit-identical to the serial run:
///
///  * Work is split by `NumChunks`/`ChunkBounds`, which depend only on the
///    iteration count, and every iteration writes only to its own output
///    slot; thread scheduling therefore cannot influence any result.
///  * A pool of 1 thread spawns no workers at all: `ParallelFor` degrades
///    to a plain inline loop (the reference execution).
///  * Nested `ParallelFor` calls from inside a worker run inline rather
///    than deadlocking on the shared pool.
///
/// Exceptions thrown by loop bodies are captured per chunk and the one
/// from the lowest failing iteration index is rethrown in the caller once
/// the loop has drained (other chunks may or may not have run — same
/// guarantee the serial loop gives about iterations after the throw).
class ThreadPool {
 public:
  /// `num_threads` >= 1 is the total concurrency: the submitting thread
  /// participates, so `num_threads - 1` workers are spawned.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs `fn(i)` exactly once for every i in [0, n).
  ///
  /// The body must write only per-index slots (`out[i] = ...`), body
  /// locals, atomics, or lock-guarded state — any other write through a
  /// by-reference capture is a data race. CI's ThreadSanitizer job runs
  /// the parallel suites at VSD_THREADS=4 to catch one.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  /// Maps [0, n) through `fn`, returning results in index order. `T` must
  /// be default-constructible.
  template <typename T>
  std::vector<T> ParallelMap(int64_t n, const std::function<T(int64_t)>& fn) {
    std::vector<T> out(static_cast<size_t>(n > 0 ? n : 0));
    ParallelFor(n, [&](int64_t i) { out[i] = fn(i); });
    return out;
  }

  // ---- Global pool ----

  /// The process-wide pool used by the free `ParallelFor`/`ParallelMap`.
  /// Lazily created with `DefaultThreads()` threads.
  static ThreadPool& Global();

  /// Resizes the global pool (clamped to >= 1). Call from the main thread
  /// before parallel work starts (benches do this in ParseBenchArgs);
  /// resizing while a loop is in flight is not supported.
  static void SetGlobalThreads(int num_threads);

  /// Thread count of the global pool (creating it if needed).
  static int GlobalThreads();

  /// The VSD_THREADS environment variable, or 1 (serial) when unset or
  /// not a positive integer.
  static int DefaultThreads();

 private:
  struct Work;

  void WorkerLoop();
  void RunChunks(Work* work);

  int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex submit_mu_;  ///< Serializes concurrent external submitters.
  std::mutex mu_;         ///< Also guards the counters inside *work_.
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Work* work_ VSD_GUARDED_BY(mu_) = nullptr;
  uint64_t generation_ VSD_GUARDED_BY(mu_) = 0;
  bool stop_ VSD_GUARDED_BY(mu_) = false;
};

/// `ThreadPool::Global().ParallelFor(n, fn)`.
void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

/// `ThreadPool::Global().ParallelMap<T>(n, fn)`.
template <typename T>
std::vector<T> ParallelMap(int64_t n, const std::function<T(int64_t)>& fn) {
  return ThreadPool::Global().ParallelMap<T>(n, fn);
}

}  // namespace vsd

#endif  // VSD_COMMON_THREAD_POOL_H_
