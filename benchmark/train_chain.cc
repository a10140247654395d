// train_chain: Algorithm 1. ChainTrainer::Train (describe tuning, assess
// training, description self-refinement with DPO, highlight warmup and
// rationale DPO) on a fixed split. Eager autograd and the optimizer run
// here and nowhere else in the benchmark; no graph executor, no serving.

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "cot/pipeline.h"
#include "cot/trainer.h"
#include "data/folds.h"
#include "core_speed.h"
#include "data/generator.h"
#include "stats.h"
#include "workload.h"

namespace vsd::benchmark {
namespace {

constexpr int kStressClips = 400;
constexpr int kAuClips = 300;
constexpr int kMinRuns = 3;
/// Held-out accuracy (80 clips) a trained chain must reach. Quick-size
/// training landed between 0.72 and 0.91 on seeds 1-10; a broken chain
/// answers near the 0.56 majority rate.
constexpr double kAccuracyFloor = 0.65;

/// FNV-1a over the report's counts and loss and every trained weight.
uint64_t Digest(const cot::TrainReport& report,
                const vlm::FoundationModel& model) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  mix(&report.describe_dpo_pairs, sizeof(report.describe_dpo_pairs));
  mix(&report.rationale_dpo_pairs, sizeof(report.rationale_dpo_pairs));
  mix(&report.refined_descriptions, sizeof(report.refined_descriptions));
  mix(&report.final_assess_loss, sizeof(report.final_assess_loss));
  const std::vector<float> state = model.StateVector();
  mix(state.data(), state.size() * sizeof(float));
  return h;
}

class TrainChain : public Workload {
 public:
  int extra_threads() const override { return 1; }  // CoreSpeedSampler.

  SetupTimes Setup(uint64_t seed) override {
    seed_ = seed;
    SetupTimes times;
    int64_t t0 = NowNs();
    {
      ScopedSpan span("data.MakeUvsdSimSmall");
      const data::Dataset uvsd =
          data::MakeUvsdSimSmall(kStressClips, DeriveSeed(seed, 7));
      Rng split_rng(DeriveSeed(seed, 9));
      const data::Split split = data::StratifiedHoldout(uvsd, 0.2, &split_rng);
      train_ = uvsd.Subset(split.train);
      test_ = uvsd.Subset(split.test);
    }
    {
      ScopedSpan span("data.MakeDisfaSim");
      au_data_ = data::MakeDisfaSim(DeriveSeed(seed, 8), kAuClips);
    }
    times.data_s = SecondsSince(t0);
    t0 = NowNs();
    {
      ScopedSpan span("vlm.PretrainGeneralist");
      base_ = PretrainBackbone();
    }
    times.pretrain_s = SecondsSince(t0);
    return times;
  }

  PassResult Measure(double seconds) override {
    PassResult out;
    std::vector<double> train_ms;
    std::vector<double> scaled_ms;  // At the baseline core speed.
    std::vector<uint64_t> digests;
    // Train runs on this thread alone: the library pool has one thread.
    CoreSpeedSampler speed;
    const int64_t start = NowNs();
    do {
      auto model = base_->Clone();
      model->ClearFeatureCache();
      Rng rng(DeriveSeed(seed_, 10));
      (void)speed.TakeMeanUs();
      const int64_t t0 = NowNs();
      cot::TrainReport report;
      {
        ScopedSpan span("cot.ChainTrainer::Train");
        report = cot::ChainTrainer(QuickChainConfig())
                     .Train(model.get(), au_data_, train_, &rng);
      }
      train_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      scaled_ms.push_back(AtBaselineSpeed(train_ms.back(), speed.TakeMeanUs()));
      digests.push_back(Digest(report, *model));
      report_ = report;
      trained_ = std::move(model);
    } while (static_cast<int>(train_ms.size()) < kMinRuns ||
             SecondsSince(start) < seconds);

    for (uint64_t d : digests) {
      if (d != digests.front()) {
        out.failures.push_back(
            "train_chain: Train runs on the same inputs disagree");
        break;
      }
    }
    std::fprintf(stderr, "[benchmark] train_chain TrainReport digest %016llx\n",
                 static_cast<unsigned long long>(digests.front()));
    const double n = static_cast<double>(train_.size());
    out.attempted = static_cast<int64_t>(train_ms.size());
    out.latency_ms = Median(scaled_ms);
    out.throughput_per_s = n / (out.latency_ms / 1e3);
    out.observed["train_s"] = {Median(train_ms) / 1e3, "s"};
    out.observed["train.runs"] = {static_cast<double>(train_ms.size()),
                                  "count"};
    out.observed["train.stress_clips"] = {n, "count"};
    out.observed["cot.train.describe_dpo_pairs"] = {
        static_cast<double>(report_.describe_dpo_pairs), "count"};
    out.observed["cot.train.rationale_dpo_pairs"] = {
        static_cast<double>(report_.rationale_dpo_pairs), "count"};
    out.observed["cot.train.refined_descriptions"] = {
        static_cast<double>(report_.refined_descriptions), "count"};
    out.observed["cot.train.refine_accept_ratio"] = {
        static_cast<double>(report_.refined_descriptions) / n, "ratio"};
    return out;
  }

  /// The last trained chain clears the accuracy floor on held-out clips.
  void Check(std::vector<std::string>* failures) override {
    trained_->PrecomputeFeatures(test_);
    const cot::ChainPipeline pipeline(trained_.get(), QuickChainConfig());
    std::vector<const data::VideoSample*> batch;
    for (const data::VideoSample& s : test_.samples) batch.push_back(&s);
    const std::vector<int> labels = pipeline.PredictLabelBatch(batch);
    int correct = 0;
    for (size_t i = 0; i < labels.size(); ++i) {
      correct += labels[i] == test_.samples[i].stress_label ? 1 : 0;
    }
    const double accuracy =
        static_cast<double>(correct) / static_cast<double>(labels.size());
    std::fprintf(stderr, "[benchmark] train_chain held-out accuracy %.4f\n",
                 accuracy);
    if (accuracy < kAccuracyFloor) {
      failures->push_back("train_chain: held-out accuracy " +
                          std::to_string(accuracy) + " is below the floor " +
                          std::to_string(kAccuracyFloor));
    }
  }

  const vlm::FoundationModel& backbone() const override { return *base_; }

 private:
  uint64_t seed_ = 0;
  data::Dataset train_;
  data::Dataset test_;
  data::Dataset au_data_;
  std::unique_ptr<vlm::FoundationModel> base_;
  std::unique_ptr<vlm::FoundationModel> trained_;
  cot::TrainReport report_;
};

}  // namespace

std::unique_ptr<Workload> MakeTrainChain() {
  return std::make_unique<TrainChain>();
}

}  // namespace vsd::benchmark
