#include "stats.h"

#include <algorithm>
#include <cmath>

namespace vsd::benchmark {

Percentile NearestRank(std::vector<double> values, double p) {
  Percentile out;
  out.p = p;
  out.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const int64_t n = out.samples;
  // The epsilon keeps exact products (0.99 * 1000) from rounding up a rank.
  int64_t rank = static_cast<int64_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  out.value = values[static_cast<size_t>(rank - 1)];
  out.beyond = n - rank;
  return out;
}

Percentile HighestSupported(const std::vector<double>& values) {
  for (double p : {0.999, 0.99, 0.9}) {
    Percentile pct = NearestRank(values, p);
    if (pct.supported()) return pct;
  }
  return NearestRank(values, 0.5);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double Quartiles::RelativeSpread() const {
  return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
}

Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  if (values.size() == 1) {
    out.q1 = out.median = out.q3 = values[0];
    return out;
  }
  std::sort(values.begin(), values.end());
  const int64_t ld = static_cast<int64_t>(values.size());
  const int64_t m = ld + 1;
  double q[3];
  for (int64_t i = 1; i <= 3; ++i) {
    int64_t j = std::clamp<int64_t>(i * m / 4, 1, ld - 1);
    const int64_t delta = i * m - j * 4;
    q[i - 1] = (values[static_cast<size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  out.q1 = q[0];
  out.median = q[1];
  out.q3 = q[2];
  return out;
}

double DueLatencyMs(int64_t due_ns, int64_t submit_ns,
                    int64_t serve_latency_micros) {
  return static_cast<double>(submit_ns - due_ns) / 1e6 +
         static_cast<double>(serve_latency_micros) / 1e3;
}

double PhaseOutcome::FailedShare() const {
  return latency_ms.empty() ? 0.0
                            : static_cast<double>(failed) /
                                  static_cast<double>(latency_ms.size());
}

bool MeetsSlo(const PhaseOutcome& phase, const SloRule& rule) {
  if (!phase.valid()) return false;
  const Percentile p99 = NearestRank(phase.latency_ms, 0.99);
  return p99.supported() && p99.value <= rule.p99_ms &&
         phase.FailedShare() <= rule.max_failed_share &&
         phase.drain_ms <= rule.max_drain_ms;
}

double MaxRpsWithinSlo(const std::vector<PhaseOutcome>& phases,
                       const SloRule& rule) {
  double best = 0.0;
  for (const PhaseOutcome& phase : phases) {
    if (MeetsSlo(phase, rule)) best = std::max(best, phase.rate);
  }
  return best;
}

int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  for (auto& [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
  }
  std::erase_if(intervals, [](const auto& iv) { return iv.second <= iv.first; });
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (open && start <= run_end) {
      run_end = std::max(run_end, end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = start;
    run_end = end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && span.parent < static_cast<int>(spans.size())) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    self[i] = span.end_ns - span.start_ns -
              CoveredNs(std::move(children[i]), span.start_ns, span.end_ns);
  }
  return self;
}

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kBetter:
      return "better";
    case Verdict::kSame:
      return "same";
    case Verdict::kWorse:
      return "worse";
    case Verdict::kUnresolved:
      return "unresolved";
  }
  return "?";
}

Comparison Compare(const std::vector<double>& a, const std::vector<double>& b,
                   double bound, bool higher_is_better) {
  Comparison out;
  out.a = QuartilesOf(a);
  out.b = QuartilesOf(b);
  if (a.empty() || b.empty()) {
    out.verdict = Verdict::kUnresolved;
    return out;
  }
  // "Beats" in the metric's own direction.
  const auto beats = [higher_is_better](double x, double y) {
    return higher_is_better ? x > y : x < y;
  };
  const double diff = out.b.median - out.a.median;
  out.worse_by = out.a.median != 0.0
                     ? (higher_is_better ? -diff : diff) /
                           std::fabs(out.a.median)
                     : 0.0;
  out.pairs = static_cast<int>(std::min(a.size(), b.size()));
  for (int i = 0; i < out.pairs; ++i) {
    if (beats(b[static_cast<size_t>(i)], a[static_cast<size_t>(i)])) {
      ++out.wins;
    }
  }
  bool every_b_beats_every_a = true;
  for (double x : b) {
    for (double y : a) every_b_beats_every_a &= beats(x, y);
  }
  const bool median_beats = beats(out.b.median, out.a.median) &&
                            std::fabs(diff) > out.a.q3 - out.a.q1;
  if (median_beats && out.wins * 10 >= out.pairs * 9) {
    out.verdict = Verdict::kBetter;
  } else if (every_b_beats_every_a) {
    out.verdict = Verdict::kSame;  // No regression, but no gain shown.
  } else if (out.a.RelativeSpread() > bound ||
             out.b.RelativeSpread() > bound) {
    out.verdict = Verdict::kUnresolved;
  } else if (out.worse_by > bound) {
    out.verdict = Verdict::kWorse;
  } else {
    out.verdict = Verdict::kSame;
  }
  return out;
}

}  // namespace vsd::benchmark
