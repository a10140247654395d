#ifndef VSD_BENCHMARK_STATS_H_
#define VSD_BENCHMARK_STATS_H_

// Pure statistics behind the benchmark's reported numbers: percentiles
// with their support, due-time latency, span self time, the open-loop SLO
// rate, and the verdict rule `compare` applies. Kept free of any library
// dependency so stats_test.cc can pin each rule on synthetic inputs.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace vsd::benchmark {

/// A tail percentile is reported only with at least this many samples
/// ranked beyond it.
inline constexpr int64_t kMinBeyond = 10;

/// Latency recorded for a request that failed or was refused: it misses
/// every limit.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile and the sample count behind it.
struct Percentile {
  double p = 0.0;
  double value = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;  ///< Samples ranked strictly above the percentile.
  bool supported() const { return beyond >= kMinBeyond; }
};

/// Nearest-rank percentile: the value at rank ceil(p * n) (1-based) of the
/// sorted samples. `p` in (0, 1]. Empty input gives value 0, samples 0.
Percentile NearestRank(std::vector<double> values, double p);

/// The highest of p999, p99, p90 and p50 that has `kMinBeyond` samples
/// beyond it; p50 when none has.
Percentile HighestSupported(const std::vector<double>& values);

/// Median as `statistics.median` computes it (mean of the middle pair).
double Median(std::vector<double> values);

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them. One
/// value gives that value three times; empty input gives zeros.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / |median|; 0 when the median is 0.
  double RelativeSpread() const;
};
Quartiles QuartilesOf(std::vector<double> values);

/// Latency of one open-loop request as its sender sees it, measured from
/// when it was due: how late the generator submitted it plus the serving
/// layer's own latency from submission to resolution.
double DueLatencyMs(int64_t due_ns, int64_t submit_ns,
                    int64_t serve_latency_micros);

// ---- Open-loop phases ----

/// Generator lateness above which an open-loop phase is invalid: the
/// offered schedule was not the one measured.
inline constexpr double kMaxGenLateUs = 1000.0;

/// One fixed-rate phase as the SLO rule needs it.
struct PhaseOutcome {
  double rate = 0.0;  ///< Offered requests per second.
  /// Latency from due per attempted request; kMissed for failures.
  std::vector<double> latency_ms;
  int64_t failed = 0;
  double gen_late_us_p99 = 0.0;
  /// Last resolution minus the last arrival's due time.
  double drain_ms = 0.0;

  bool valid() const { return gen_late_us_p99 <= kMaxGenLateUs; }
  double FailedShare() const;
};

/// The latency limit and backlog rule of `max_rps_slo`.
struct SloRule {
  double p99_ms = 50.0;
  double max_failed_share = 0.001;
  double max_drain_ms = 250.0;
};

/// True when the phase is valid, its p99 is supported and within the
/// limit, its failed share is within the limit, and it drained in time.
bool MeetsSlo(const PhaseOutcome& phase, const SloRule& rule);

/// Highest offered rate among the phases that meet the SLO; 0 when none.
double MaxRpsWithinSlo(const std::vector<PhaseOutcome>& phases,
                       const SloRule& rule);

// ---- Spans ----

/// One traced interval. `parent` indexes the same span list (-1 = root).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t request = -1;  ///< Request id, -1 when none.
  int tid = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Length of the union of [start, end) intervals clipped to [lo, hi).
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi);

// ---- Verdicts (choosing-metrics guide, section 8) ----

enum class Verdict { kBetter, kSame, kWorse, kUnresolved };
const char* VerdictName(Verdict verdict);

struct Comparison {
  Quartiles a;
  Quartiles b;
  /// Relative change of b's median from a's, signed so > 0 is worse.
  double worse_by = 0.0;
  int wins = 0;  ///< Index-paired runs where b beat a (ties count neither).
  int pairs = 0;
  Verdict verdict = Verdict::kSame;
};

/// Compares run sets `a` (parent) and `b` (change) of one metric.
///  * better: b's median beats a's by more than a's quartile spread and b
///    wins at least nine tenths of the pairs;
///  * same: otherwise, when every b run beats every a run;
///  * unresolved: otherwise, when either side's relative quartile spread
///    exceeds `bound`;
///  * worse: b's median is worse than a's by more than `bound`;
///  * same: anything else.
Comparison Compare(const std::vector<double>& a, const std::vector<double>& b,
                   double bound, bool higher_is_better);

}  // namespace vsd::benchmark

#endif  // VSD_BENCHMARK_STATS_H_
