// chain_cached: the paper's interpretable output on the Table I/III
// evaluation path. ChainPipeline::RunBatch (Describe -> Assess ->
// Highlight, one Rng stream per clip, transcripts rendered) over clips
// whose vision features were cached in set-up, so the vision tower does no
// work: head, graph-executor and kernel changes show here and not in
// serve_open, which always misses the cache.

#include <span>
#include <string>

#include "common/rng.h"
#include "cot/pipeline.h"
#include "core_speed.h"
#include "data/generator.h"
#include "stats.h"
#include "workload.h"

namespace vsd::benchmark {
namespace {

constexpr int kClips = 256;
constexpr int kBatch = 32;

class ChainCached : public Workload {
 public:
  SetupTimes Setup(uint64_t seed) override {
    seed_ = seed;
    pipeline_.reset();
    SetupTimes times;
    int64_t t0 = NowNs();
    {
      ScopedSpan span("data.MakeUvsdSimSmall");
      dataset_ = data::MakeUvsdSimSmall(kClips, DeriveSeed(seed, 2));
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
      ScopedSpan span("vlm.PrecomputeFeatures");
      model_->PrecomputeFeatures(dataset_);
    }
    pipeline_ =
        std::make_unique<cot::ChainPipeline>(model_.get(), QuickChainConfig());
    clips_.clear();
    for (const data::VideoSample& s : dataset_.samples) clips_.push_back(&s);
    {
      ScopedSpan span("cot.warmup");
      (void)RunBatchAt(0);
    }
    times.prepare_s = SecondsSince(t0);
    return times;
  }

  PassResult Measure(double seconds) override {
    PassResult out;
    std::vector<double> batch_ms;
    std::vector<double> scaled_ms;  // At the baseline core speed.
    size_t transcript_bytes = 0;
    const int64_t start = NowNs();
    do {
      for (int begin = 0; begin < kClips; begin += kBatch) {
        const double reference_us = ReferenceLoopUs();
        const int64_t t0 = NowNs();
        ScopedSpan span("chain.batch");
        const std::vector<cot::ChainOutput> outputs = RunBatchAt(begin);
        ScopedSpan render("cot.ChainOutput::Transcript");
        for (const cot::ChainOutput& o : outputs) {
          transcript_bytes += o.Transcript().size();
        }
        batch_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
        scaled_ms.push_back(AtBaselineSpeed(batch_ms.back(), reference_us));
        out.attempted += kBatch;
      }
    } while (SecondsSince(start) < seconds);
    out.latency_ms = Median(scaled_ms);
    out.throughput_per_s = kBatch * 1e3 / out.latency_ms;
    const Percentile tail = HighestSupported(batch_ms);
    out.observed["chain.batches"] = {static_cast<double>(batch_ms.size()),
                                     "count"};
    out.observed["chain.batch_wall_p50_ms"] = {Median(batch_ms), "ms"};
    out.observed["chain.batch_tail_p"] = {tail.p, "quantile"};
    out.observed["chain.batch_tail_ms"] = {tail.value, "ms"};
    out.observed["chain.transcript_bytes_per_clip"] = {
        static_cast<double>(transcript_bytes) /
            static_cast<double>(out.attempted),
        "bytes"};
    return out;
  }

  /// Batch-of-32 output equals 32 batch-of-1 runs with the same streams.
  void Check(std::vector<std::string>* failures) override {
    const std::vector<cot::ChainOutput> batched = RunBatchAt(0);
    for (int i = 0; i < kBatch; ++i) {
      Rng rng = Stream(i);
      const cot::ChainOutput single =
          pipeline_->Run(*clips_[static_cast<size_t>(i)], &rng);
      const cot::ChainOutput& b = batched[static_cast<size_t>(i)];
      if (single.Transcript() != b.Transcript() ||
          single.assess.prob_stressed != b.assess.prob_stressed ||
          single.highlight.ranked_aus != b.highlight.ranked_aus) {
        failures->push_back("chain_cached: batch-32 output for clip " +
                            std::to_string(i) +
                            " differs from a batch-of-1 Run");
        return;
      }
    }
  }

  const vlm::FoundationModel& backbone() const override { return *model_; }

 private:
  /// Clip i's highlight stream; fresh for every run, so each pass does the
  /// same work.
  Rng Stream(int i) const {
    return Rng(DeriveSeed(seed_, 3) + 91 * static_cast<uint64_t>(i));
  }

  std::vector<cot::ChainOutput> RunBatchAt(int begin) const {
    std::vector<Rng> rngs;
    std::vector<Rng*> rng_ptrs;
    rngs.reserve(kBatch);
    for (int i = begin; i < begin + kBatch; ++i) rngs.push_back(Stream(i));
    for (Rng& rng : rngs) rng_ptrs.push_back(&rng);
    ScopedSpan span("cot.ChainPipeline::RunBatch");
    return pipeline_->RunBatch(
        std::span<const data::VideoSample* const>(clips_.data() + begin,
                                                  kBatch),
        rng_ptrs);
  }

  uint64_t seed_ = 0;
  data::Dataset dataset_;
  std::vector<const data::VideoSample*> clips_;
  std::unique_ptr<vlm::FoundationModel> model_;
  std::unique_ptr<cot::ChainPipeline> pipeline_;
};

}  // namespace

std::unique_ptr<Workload> MakeChainCached() {
  return std::make_unique<ChainCached>();
}

}  // namespace vsd::benchmark
