#include "explain_timing.h"

#include <mutex>
#include <utility>

#include "core_speed.h"
#include "explain/kernel_shap.h"
#include "explain/lime.h"
#include "explain/sobol.h"
#include "stats.h"
#include "trace.h"

namespace vsd::benchmark {

std::vector<NamedExplainer> Fig6Explainers() {
  std::vector<NamedExplainer> out;
  out.push_back({"lime", std::make_unique<explain::LimeExplainer>(1000)});
  out.push_back({"shap", std::make_unique<explain::KernelShapExplainer>(1000)});
  out.push_back({"sobol", std::make_unique<explain::SobolExplainer>(15)});
  return out;
}

face::AuMask GreedyDescription(const vlm::FoundationModel& model,
                               const data::VideoSample& clip) {
  face::AuMask description{};
  const std::vector<double> probs = model.DescribeProbs(clip);
  for (int j = 0; j < face::kNumAus; ++j) description[j] = probs[j] > 0.5;
  return description;
}

ExplainTiming TimeExplain(const NamedExplainer& named,
                          const vlm::FoundationModel& model,
                          const data::VideoSample& clip,
                          const face::AuMask& description,
                          const img::Segmentation& segmentation, Rng* rng) {
  // The explainers call the classifier from their pool workers.
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> calls;
  std::vector<std::pair<int64_t, int64_t>> reference_runs;
  double reference_us_sum = 0.0;
  int parent_span = -1;
  const explain::BatchClassifierFn classifier =
      [&](std::span<const img::Image> frames) {
        std::vector<const img::Image*> expressive;
        expressive.reserve(frames.size());
        for (const img::Image& frame : frames) expressive.push_back(&frame);
        const int64_t before_reference = NowNs();
        const double reference_us = ReferenceLoopUs();
        const int64_t t0 = NowNs();
        std::vector<double> probs = model.AssessProbStressedWithFramesBatch(
            expressive, clip.neutral_frame, description);
        const int64_t t1 = NowNs();
        Tracer::Get().Record("explain.classifier", t0, t1, parent_span);
        std::lock_guard<std::mutex> lock(mu);
        calls.emplace_back(t0, t1);
        reference_runs.emplace_back(before_reference, t0);
        reference_us_sum += reference_us;
        return probs;
      };
  ExplainTiming out;
  const int64_t start = NowNs();
  {
    ScopedSpan span("explain." + named.name + "::Explain");
    parent_span = span.id();
    out.attribution = named.explainer->Explain(
        classifier, clip.expressive_frame, segmentation, rng);
  }
  const int64_t end = NowNs();
  out.ms = static_cast<double>(end - start -
                               CoveredNs(reference_runs, start, end)) /
           1e6;
  out.classifier_ms =
      static_cast<double>(CoveredNs(std::move(calls), start, end)) / 1e6;
  if (!reference_runs.empty()) {
    out.reference_us =
        reference_us_sum / static_cast<double>(reference_runs.size());
  }
  return out;
}

}  // namespace vsd::benchmark
