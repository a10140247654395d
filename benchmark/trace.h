#ifndef VSD_BENCHMARK_TRACE_H_
#define VSD_BENCHMARK_TRACE_H_

// In-memory spans recorded around the benchmark's own calls into each
// layer (nothing inside the library is instrumented), written out at exit
// as Chrome trace-event JSON.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace vsd::benchmark {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

class Tracer {
 public:
  /// The process-wide tracer; disabled until `Enable(true)`.
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a finished span on the calling thread. Returns its index, or
  /// -1 (recording nothing) when disabled.
  int Record(std::string name, int64_t start_ns, int64_t end_ns, int parent,
             int64_t request = -1);

  /// Opens a span that `Close` ends; -1 when disabled.
  int Open(std::string name, int parent, int64_t request = -1);
  void Close(int id);

  std::vector<Span> Spans() const;

  /// Writes every span as a Chrome trace-event "X" event (ts/dur in
  /// microseconds) with its id, parent and request id as args.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<bool> enabled_{false};
};

/// Span over a C++ scope. Nests under the calling thread's innermost open
/// ScopedSpan unless `parent` is given; children on other threads (the
/// explainers' pool workers) must be given their parent explicitly.
class ScopedSpan {
 public:
  static constexpr int kInherit = -2;

  explicit ScopedSpan(std::string name, int parent = kInherit,
                      int64_t request = -1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's index (-1 when tracing is off).
  int id() const { return id_; }

  /// The calling thread's innermost open ScopedSpan, or -1.
  static int Current();

 private:
  int id_;
  int saved_current_;
};

/// Self and total time per span name.
struct NameTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans);

bool WriteTextFile(const std::string& path, const std::string& content);

}  // namespace vsd::benchmark

#endif  // VSD_BENCHMARK_TRACE_H_
