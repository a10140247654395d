// Robustness bench: the serving layer under deterministic fault injection.
// Sweeps fault rates {0, 0.05, 0.10}, serves half of UVSD-sim through a
// standalone serve::Replica with a fitted Gao-SVM fallback, and reports how
// requests resolved at each rate (full / fallback / prior / invalid /
// deadline) plus end-to-end accuracy over the answered requests.
//
// Deterministic: the CSV is byte-identical at every --threads value and
// worker count. Fault decisions key on request ids, sample ids, and frame
// content — never on batch composition — so per-request outcomes do not
// depend on timing. Timing-dependent queue statistics (batches cut, mean
// fill) stay out of the CSV.
//
// At rate 0 the bench self-checks the serving bit-identity contract against
// a direct ChainPipeline::PredictBatch and exits 1 on any mismatch.
//
// Usage: bench_robustness [--quick] [--seed S] [--threads N] [--batch N]
//                         [--assert-degraded-below F]
//   --assert-degraded-below F   exit 1 if, at any nonzero fault rate, the
//                               fraction of degraded answers reaches F.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "baselines/gao_svm.h"
#include "bench/harness.h"
#include "common/faults.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"
#include "cot/pipeline.h"
#include "serve/replica_pool.h"

namespace vsd::bench {
namespace {

std::string Fmt(const char* fmt, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, value);
  return std::string(buf);
}

std::string Int(int64_t value) { return std::to_string(value); }

/// How one sweep point resolved; every field is deterministic.
struct SweepOutcome {
  int64_t full = 0;
  int64_t fallback = 0;
  int64_t prior = 0;
  int64_t invalid = 0;
  int64_t deadline = 0;
  int64_t other_error = 0;
  int64_t correct = 0;   ///< Answered requests matching stress_label.
  int64_t answered = 0;  ///< Requests that resolved with a probability.
};

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchArgs(argc, argv);
  double degraded_bound = -1.0;  // < 0: no assertion.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--assert-degraded-below") == 0 && i + 1 < argc) {
      degraded_bound = std::atof(argv[++i]);
    }
  }
  std::printf("=== Robustness: serving under injected faults (%s) ===\n",
              options.quick ? "quick" : "full");

  BenchData data = MakeBenchData(options);
  const vlm::FoundationModel& base = PretrainedBase(options);
  const cot::ChainPipeline pipeline(&base, OursChainConfig(options));

  // First half fits the degradation fallback; second half is served.
  const int total = data.uvsd.size();
  const int split = total / 2;
  data::Dataset train{"uvsd-train", {data.uvsd.samples.begin(),
                                     data.uvsd.samples.begin() + split}};
  std::vector<const data::VideoSample*> served;
  for (int i = split; i < total; ++i) served.push_back(&data.uvsd.samples[i]);

  baselines::GaoSvm fallback;
  Rng fit_rng(options.seed + 17);
  fallback.Fit(train, &fit_rng);

  // Faults-off reference: the bit-identity baseline for the rate-0 point.
  const std::vector<double> reference = pipeline.PredictBatch(served);

  serve::ServeConfig config;
  config.max_queue = static_cast<int>(served.size());
  config.max_batch = 8;
  config.max_batch_delay_micros = 500;
  config.num_workers = 2;
  config.retry.max_retries = 2;
  config.retry.initial_backoff_micros = 100;
  config.retry.max_backoff_micros = 1000;
  // Breaker off here: this bench runs threaded on the real clock, where
  // open/half-open transitions depend on wall time. bench_serve_load runs
  // the breaker enabled on a virtual clock, deterministically.
  config.breaker_threshold = 0;
  config.default_deadline_micros = 60'000'000;  // Generous: never expires.

  Table table({"Rate", "Requests", "Full", "Fallback", "Prior", "Invalid",
               "Deadline", "Rejected", "Retries", "Accuracy"});
  auto& injector = FaultInjector::Global();

  const double rates[] = {0.0, 0.05, 0.10};
  for (int point = 0; point < 3; ++point) {
    const double rate = rates[point];
    if (rate > 0.0) {
      FaultConfig faults;
      faults.enabled = true;
      faults.seed = options.seed + 1000003ULL * static_cast<uint64_t>(point);
      faults.transient_rate = rate;
      faults.corrupt_rate = rate / 2;
      faults.nan_rate = rate / 2;
      faults.stall_rate = rate / 2;
      faults.stall_micros = 200;
      injector.Configure(faults);
    } else {
      injector.Disable();
    }

    serve::Replica replica(0, &pipeline, config, &fallback, /*pool=*/nullptr);
    std::vector<std::future<vsd::Result<serve::ServeResult>>> futures;
    futures.reserve(served.size());
    for (const data::VideoSample* sample : served) {
      futures.push_back(replica.Submit(*sample, {}));
    }

    SweepOutcome outcome;
    for (size_t i = 0; i < futures.size(); ++i) {
      if (futures[i].wait_for(std::chrono::seconds(300)) !=
          std::future_status::ready) {
        std::fprintf(stderr, "FAIL: request %zu never resolved (hung)\n", i);
        return 1;
      }
      const vsd::Result<serve::ServeResult> result = futures[i].get();
      if (result.ok()) {
        const serve::ServeResult& answer = result.value();
        switch (answer.degradation) {
          case serve::DegradationLevel::kFull: ++outcome.full; break;
          case serve::DegradationLevel::kFallback: ++outcome.fallback; break;
          case serve::DegradationLevel::kPrior: ++outcome.prior; break;
        }
        ++outcome.answered;
        if (answer.label == served[i]->stress_label) ++outcome.correct;
        if (rate == 0.0 && answer.prob_stressed != reference[i]) {
          std::fprintf(stderr,
                       "FAIL: faults-off serving diverged from direct "
                       "PredictBatch at request %zu (%.17g vs %.17g)\n",
                       i, answer.prob_stressed, reference[i]);
          return 1;
        }
      } else {
        switch (result.status().code()) {
          case StatusCode::kInvalidArgument: ++outcome.invalid; break;
          case StatusCode::kDeadlineExceeded: ++outcome.deadline; break;
          default: ++outcome.other_error; break;
        }
      }
    }
    replica.Shutdown();
    const serve::ServeStatsSnapshot stats = replica.Stats();

    if (rate == 0.0 &&
        (outcome.full != static_cast<int64_t>(served.size()) ||
         outcome.other_error != 0)) {
      std::fprintf(stderr, "FAIL: faults-off run did not serve every request "
                           "at full fidelity\n");
      return 1;
    }
    if (outcome.other_error != 0) {
      std::fprintf(stderr, "FAIL: %lld requests resolved with unexpected "
                           "errors\n",
                   static_cast<long long>(outcome.other_error));
      return 1;
    }
    const double degraded_fraction =
        static_cast<double>(outcome.fallback + outcome.prior) /
        static_cast<double>(served.size());
    if (rate > 0.0 && degraded_bound >= 0.0 &&
        degraded_fraction >= degraded_bound) {
      std::fprintf(stderr,
                   "FAIL: degraded fraction %.4f >= bound %.4f at rate "
                   "%.2f\n",
                   degraded_fraction, degraded_bound, rate);
      return 1;
    }

    const double accuracy =
        outcome.answered > 0
            ? static_cast<double>(outcome.correct) / outcome.answered
            : 0.0;
    table.AddRow({Fmt("%.2f", rate), Int(stats.submitted), Int(outcome.full),
                  Int(outcome.fallback), Int(outcome.prior),
                  Int(outcome.invalid), Int(outcome.deadline),
                  Int(stats.rejected_queue_full), Int(stats.retries),
                  Fmt("%.4f", accuracy)});
    std::printf("  done: rate %.2f (%lld full, %lld degraded, %lld retries)\n",
                rate, static_cast<long long>(outcome.full),
                static_cast<long long>(outcome.fallback + outcome.prior),
                static_cast<long long>(stats.retries));
  }
  injector.Disable();

  std::printf("\n%s\n", table.ToString().c_str());
  (void)table.WriteCsv("robustness.csv");
  return 0;
}

}  // namespace
}  // namespace vsd::bench

int main(int argc, char** argv) { return vsd::bench::Main(argc, argv); }
