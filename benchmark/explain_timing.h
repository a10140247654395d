#ifndef VSD_BENCHMARK_EXPLAIN_TIMING_H_
#define VSD_BENCHMARK_EXPLAIN_TIMING_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/sample.h"
#include "explain/explainer.h"
#include "face/au.h"
#include "img/slic.h"
#include "vlm/foundation_model.h"

namespace vsd::benchmark {

/// Fig. 6 explainer sizes: LIME and KernelSHAP at 1000 samples, SOBOL at
/// 15 designs, over 64 SLIC segments.
inline constexpr int kSlicSegments = 64;

/// One post-hoc explainer with its short name ("lime", "shap", "sobol").
struct NamedExplainer {
  std::string name;
  std::unique_ptr<explain::Explainer> explainer;
};
std::vector<NamedExplainer> Fig6Explainers();

/// The clip's greedy description (AUs with p > 0.5), fixed while the
/// explainers perturb the expressive frame.
face::AuMask GreedyDescription(const vlm::FoundationModel& model,
                               const data::VideoSample& clip);

/// One timed Explain call.
struct ExplainTiming {
  explain::Attribution attribution;
  double ms = 0.0;
  /// Part of the call's wall time covered by black-box classifier calls.
  double classifier_ms = 0.0;
  /// Mean time of the reference loop, run before each classifier call (and
  /// left out of `ms`): the core's speed over the call.
  double reference_us = 0.0;
};

/// Explains `clip` through the shared-neutral batch classifier
/// (AssessProbStressedWithFramesBatch: the neutral frame encoded once per
/// batch), running the reference loop before each classifier call. Traces
/// the call as "explain.<name>::Explain" with each classifier call as an
/// "explain.classifier" child span.
ExplainTiming TimeExplain(const NamedExplainer& named,
                          const vlm::FoundationModel& model,
                          const data::VideoSample& clip,
                          const face::AuMask& description,
                          const img::Segmentation& segmentation, Rng* rng);

}  // namespace vsd::benchmark

#endif  // VSD_BENCHMARK_EXPLAIN_TIMING_H_
