// explain_fig6: Fig. 6's cost comparison. The chain explains a clip in
// three generations (uncached RunBatch at batch 1); LIME, KernelSHAP and
// SOBOL need hundreds to thousands of black-box calls, each a batch-32
// shared-neutral encode. The only workload that exercises explain/ and
// img/, and the batch-32 shared-neutral encode.

#include <span>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cot/pipeline.h"
#include "core_speed.h"
#include "data/generator.h"
#include "explain_timing.h"
#include "stats.h"
#include "workload.h"

namespace vsd::benchmark {
namespace {

constexpr int kClips = 8;
constexpr int kOursRepeats = 20;

class ExplainFig6 : public Workload {
 public:
  SetupTimes Setup(uint64_t seed) override {
    seed_ = seed;
    pipeline_.reset();
    SetupTimes times;
    int64_t t0 = NowNs();
    {
      ScopedSpan span("data.MakeUvsdSimSmall");
      dataset_ = data::MakeUvsdSimSmall(kClips, DeriveSeed(seed, 4));
    }
    times.data_s = SecondsSince(t0);
    t0 = NowNs();
    {
      ScopedSpan span("vlm.PretrainGeneralist");
      model_ = PretrainBackbone();
    }
    times.pretrain_s = SecondsSince(t0);
    t0 = NowNs();
    segmentations_.clear();
    descriptions_.clear();
    for (const data::VideoSample& clip : dataset_.samples) {
      {
        ScopedSpan span("img.Slic");
        segmentations_.push_back(img::Slic(clip.expressive_frame, kSlicSegments));
      }
      ScopedSpan span("vlm.DescribeProbs");
      descriptions_.push_back(GreedyDescription(*model_, clip));
    }
    pipeline_ =
        std::make_unique<cot::ChainPipeline>(model_.get(), QuickChainConfig());
    explainers_ = Fig6Explainers();
    {
      // Compiles the batch-1 chain graphs and the batch-32 encode graph.
      ScopedSpan span("cot.warmup");
      (void)RunOurs(0, 0);
      std::vector<const img::Image*> frames(
          32, &dataset_.samples[0].expressive_frame);
      (void)model_->AssessProbStressedWithFramesBatch(
          frames, dataset_.samples[0].neutral_frame, descriptions_[0]);
    }
    times.prepare_s = SecondsSince(t0);
    return times;
  }

  PassResult Measure(double seconds) override {
    PassResult out;
    std::vector<double> ours_ms;
    std::vector<std::vector<double>> method_ms(explainers_.size());
    std::vector<double> evals(explainers_.size(), 0.0);
    std::vector<double> total_ms(explainers_.size(), 0.0);
    std::vector<double> classifier_ms(explainers_.size(), 0.0);
    // At the baseline core speed: Ours per call, post-hoc evaluations per
    // second per Explain call.
    std::vector<double> ours_scaled_ms;
    std::vector<double> evals_per_s;
    // Clip after clip, cycling: at least one pass, then until `seconds`.
    int64_t clips_done = 0;
    const int64_t start = NowNs();
    do {
      const int c = static_cast<int>(clips_done % kClips);
      for (int r = 0; r < kOursRepeats; ++r) {
        const double reference_us = ReferenceLoopUs();
        const int64_t t0 = NowNs();
        (void)RunOurs(c, r);
        ours_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
        ours_scaled_ms.push_back(AtBaselineSpeed(ours_ms.back(), reference_us));
      }
      for (size_t m = 0; m < explainers_.size(); ++m) {
        Rng rng(DeriveSeed(seed_, 6) + static_cast<uint64_t>(c));
        const ExplainTiming t = TimeExplain(
            explainers_[m], *model_, dataset_.samples[static_cast<size_t>(c)],
            descriptions_[static_cast<size_t>(c)],
            segmentations_[static_cast<size_t>(c)], &rng);
        method_ms[m].push_back(t.ms);
        total_ms[m] += t.ms;
        classifier_ms[m] += t.classifier_ms;
        evals[m] += static_cast<double>(t.attribution.model_evaluations);
        evals_per_s.push_back(
            static_cast<double>(t.attribution.model_evaluations) /
            (AtBaselineSpeed(t.ms, t.reference_us) / 1e3));
      }
      ++clips_done;
    } while (clips_done < kClips || SecondsSince(start) < seconds);

    out.observed["explain_ms.ours"] = {Median(ours_ms), "ms"};
    for (size_t m = 0; m < explainers_.size(); ++m) {
      const std::string& name = explainers_[m].name;
      const double calls = static_cast<double>(method_ms[m].size());
      out.observed["explain_ms." + name] = {Median(method_ms[m]), "ms"};
      out.observed["explain.evals." + name] = {evals[m] / calls, "count"};
      out.observed["explain.classifier_share." + name] = {
          classifier_ms[m] / total_ms[m], "ratio"};
    }
    out.observed["explain.clips"] = {static_cast<double>(clips_done), "count"};
    out.attempted = static_cast<int64_t>(ours_ms.size()) +
                    clips_done * static_cast<int64_t>(explainers_.size());
    out.latency_ms = Median(ours_scaled_ms);
    out.throughput_per_s = Median(evals_per_s);
    return out;
  }

  /// One clip's attributions are identical at 1 and 2 threads.
  void Check(std::vector<std::string>* failures) override {
    const data::VideoSample& clip = dataset_.samples[0];
    for (const NamedExplainer& named : explainers_) {
      std::vector<double> scores[2];
      int64_t evals[2] = {0, 0};
      for (int threads : {1, 2}) {
        ThreadPool::SetGlobalThreads(threads);
        Rng rng(DeriveSeed(seed_, 6));
        const ExplainTiming t = TimeExplain(named, *model_, clip,
                                            descriptions_[0],
                                            segmentations_[0], &rng);
        scores[threads - 1] = t.attribution.segment_scores;
        evals[threads - 1] = t.attribution.model_evaluations;
      }
      if (scores[0] != scores[1] || evals[0] != evals[1]) {
        failures->push_back("explain_fig6: " + named.name +
                            " attributions differ between 1 and 2 threads");
      }
    }
    ThreadPool::SetGlobalThreads(kPoolThreads);
  }

  const vlm::FoundationModel& backbone() const override { return *model_; }

 private:
  /// Ours: the chain's own explanation of clip `c`, uncached (the model
  /// holds no features for these clips), at batch 1.
  std::vector<cot::ChainOutput> RunOurs(int c, int repeat) const {
    Rng rng(DeriveSeed(seed_, 5) + static_cast<uint64_t>(c * 100 + repeat));
    Rng* rngs[] = {&rng};
    const data::VideoSample* batch[] = {
        &dataset_.samples[static_cast<size_t>(c)]};
    ScopedSpan span("cot.ChainPipeline::RunBatch");
    return pipeline_->RunBatch(batch, rngs);
  }

  uint64_t seed_ = 0;
  data::Dataset dataset_;
  std::vector<img::Segmentation> segmentations_;
  std::vector<face::AuMask> descriptions_;
  std::unique_ptr<vlm::FoundationModel> model_;
  std::unique_ptr<cot::ChainPipeline> pipeline_;
  std::vector<NamedExplainer> explainers_;
};

}  // namespace

std::unique_ptr<Workload> MakeExplainFig6() {
  return std::make_unique<ExplainFig6>();
}

}  // namespace vsd::benchmark
