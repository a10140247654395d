// serve_open: open-loop Poisson traffic on the real clock into Router ->
// ReplicaPool, the deployment path of realtime_monitor and
// clinical_screening. Vision encode is most of its compute and the serve
// queue sets its latency, so this is where serving and encode changes show.

#include <algorithm>
#include <string>

#include "cot/pipeline.h"
#include "data/generator.h"
#include "load_generator.h"
#include "stats.h"
#include "workload.h"

namespace vsd::benchmark {
namespace {

/// Held-out clips the requests cycle through: content repeats every 1024
/// requests, ids never do.
constexpr int kPoolClips = 1024;
/// The ramp stops at 1500 rps: the consistent-hash ring puts about 60% of
/// the 64 sessions on one replica, which saturates near 2500 rps offered
/// while the machine runs fast and near 1500 while it runs slow; beyond
/// that its queue fills and refuses requests.
constexpr double kRampRates[] = {1000.0, 1250.0, 1500.0};
constexpr int kClosedInFlight = 32;
/// The pass is five rounds, each of 500 rps for 0.05 of --seconds (12 s in
/// BENCHMARK.json), then a 0.1 step of 1500 rps (first two rounds) or of
/// the ramp, then the closed loop for 0.05. Spreading each phase over the
/// pass keeps one slow stretch of the shared machine from setting a gated
/// number. A 1.2 s step at 1000 rps is about the shortest whose p99 has
/// 10 samples beyond it.
constexpr int kRounds = 5;
/// Index into the phases (r500, r1500, the ramp, peak) of each round's
/// middle step.
constexpr int kMiddle[kRounds] = {1, 1, 2, 3, 4};

class ServeOpen : public Workload {
 public:
  int extra_threads() const override { return kReplicas; }

  SetupTimes Setup(uint64_t seed) override {
    seed_ = seed;
    pipeline_.reset();
    SetupTimes times;
    int64_t t0 = NowNs();
    {
      ScopedSpan span("data.MakeUvsdSimSmall");
      clips_ = data::MakeUvsdSimSmall(kPoolClips, DeriveSeed(seed, 1)).samples;
    }
    times.data_s = SecondsSince(t0);
    t0 = NowNs();
    {
      ScopedSpan span("vlm.PretrainGeneralist");
      model_ = PretrainBackbone();
    }
    times.pretrain_s = SecondsSince(t0);
    t0 = NowNs();
    {
      // Compiles the forward graphs for every batch size a cut can have.
      ScopedSpan span("cot.warmup");
      pipeline_ =
          std::make_unique<cot::ChainPipeline>(model_.get(), QuickChainConfig());
      std::vector<const data::VideoSample*> batch;
      for (int b = 1; b <= 8; ++b) {
        batch.push_back(&clips_[static_cast<size_t>(b)]);
        (void)pipeline_->TryPredictBatch(batch);
      }
    }
    times.prepare_s = SecondsSince(t0);
    return times;
  }

  void PrepareChecks() override {
    // Direct PredictBatch over the pool in chunks of 32: entries do not
    // depend on batch composition, so chunking changes no bit.
    reference_.clear();
    for (size_t begin = 0; begin < clips_.size(); begin += 32) {
      std::vector<const data::VideoSample*> batch;
      for (size_t i = begin; i < std::min(begin + 32, clips_.size()); ++i) {
        batch.push_back(&clips_[i]);
      }
      const std::vector<double> probs = pipeline_->PredictBatch(batch);
      reference_.insert(reference_.end(), probs.begin(), probs.end());
    }
  }

  PassResult Measure(double seconds) override {
    std::vector<PhaseStats> phases;
    const auto add = [&phases](std::string name, double rate) {
      phases.emplace_back();
      phases.back().name = std::move(name);
      phases.back().rate = rate;
    };
    add("r500", 500.0);
    add("r1500", 1500.0);
    for (double rate : kRampRates) {
      add("ramp" + std::to_string(static_cast<int>(rate)), rate);
    }
    add("peak", 0.0);

    LoadGenerator load(pipeline_.get(), &clips_, &reference_);
    uint64_t salt = 10;
    for (int round = 0; round < kRounds; ++round) {
      load.RunOpen(0.05 * seconds, DeriveSeed(seed_, salt++), &phases[0]);
      load.RunOpen(0.1 * seconds, DeriveSeed(seed_, salt++),
                   &phases[static_cast<size_t>(kMiddle[round])]);
      load.RunClosed(kClosedInFlight, 0.05 * seconds, &phases.back());
    }
    std::vector<PhaseOutcome> ramp;
    for (size_t i = 2; i + 1 < phases.size(); ++i) {
      ramp.push_back(phases[i].outcome);
    }

    PassResult out;
    int64_t fixed_attempted = 0;
    int64_t fixed_failed = 0;
    for (size_t i = 0; i < phases.size(); ++i) {
      const PhaseStats& phase = phases[i];
      phase.AddTo(&out.observed);
      const auto attempted =
          static_cast<int64_t>(phase.outcome.latency_ms.size());
      out.attempted += attempted;
      out.failed += phase.outcome.failed;
      if (i < 2) {
        fixed_attempted += attempted;
        fixed_failed += phase.outcome.failed;
      }
      if (phase.mismatches > 0) {
        out.failures.push_back(
            "serve_open: " + std::to_string(phase.mismatches) +
            " full answers in phase " + phase.name +
            " differ from direct PredictBatch");
      }
      if (phase.unresolved > 0) {
        out.failures.push_back("serve_open: " +
                               std::to_string(phase.unresolved) +
                               " requests in phase " + phase.name +
                               " never resolved");
      }
    }
    // The gated latency is the 500 rps p50: at 1500 rps queueing amplifies
    // every scheduling hiccup of the shared machine into the median (8%
    // run-to-run spread against 3.5%). r1500 is reported, not gated.
    out.latency_ms = NearestRank(phases[0].outcome.latency_ms, 0.5).value;
    out.throughput_per_s = phases.back().CompletionsPerSecond();
    out.observed["serve.max_rps_slo"] = {MaxRpsWithinSlo(ramp, SloRule{}),
                                         "1/s"};
    out.observed["serve.failed_share"] = {
        fixed_attempted > 0 ? static_cast<double>(fixed_failed) /
                                  static_cast<double>(fixed_attempted)
                            : 0.0,
        "ratio"};
    return out;
  }

  // Every answer is checked against the reference while it is collected.
  void Check(std::vector<std::string>* failures) override {}

  const vlm::FoundationModel& backbone() const override { return *model_; }

 private:
  uint64_t seed_ = 0;
  std::vector<data::VideoSample> clips_;
  std::unique_ptr<vlm::FoundationModel> model_;
  std::unique_ptr<cot::ChainPipeline> pipeline_;
  std::vector<double> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeOpen() {
  return std::make_unique<ServeOpen>();
}

}  // namespace vsd::benchmark
