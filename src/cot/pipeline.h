#ifndef VSD_COT_PIPELINE_H_
#define VSD_COT_PIPELINE_H_

#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "cot/chain_config.h"
#include "data/sample.h"
#include "vlm/foundation_model.h"

namespace vsd::cot {

/// Full output of one chain run (Eq. 1).
struct ChainOutput {
  vlm::DescribeResult describe;   ///< E
  vlm::AssessResult assess;       ///< A
  vlm::HighlightResult highlight; ///< R

  /// The three generations concatenated, as a transcript.
  std::string Transcript() const;
};

/// \brief Inference-time "Describe -> Assess -> Highlight" pipeline.
///
/// Runs the trained model through the reasoning chain of Sec. III-A. With
/// `use_chain` off it degenerates to the "w/o Chain" variant: a direct
/// assessment from the video, followed by a highlight over all AUs.
class ChainPipeline {
 public:
  ChainPipeline(const vlm::FoundationModel* model, const ChainConfig& config);

  /// Deterministic chain run (greedy describe/assess; rng only used for
  /// highlight tie-breaking and may be null for fully greedy output).
  ChainOutput Run(const data::VideoSample& sample, Rng* rng) const;

  /// Convenience: the assessed label only.
  int PredictLabel(const data::VideoSample& sample) const;
  double PredictProbStressed(const data::VideoSample& sample) const;

  // ---- Batched inference ----
  //
  // Stage-wise chain execution over one perception per call
  // (`FoundationModel::Perceive`: one vision encode of the uncached clips,
  // one trunk pass, one describe-head pass). Describe reads the greedy
  // mask and its log-prob from the perceived logits; Assess and Highlight
  // each run one head forward on the perceived trunk rows. Entry i of
  // every batched result is bit-identical to the corresponding
  // single-sample call (the singles above are batch-of-1 delegations).

  /// Batched chain runs. `rngs` holds one highlight stream per sample
  /// (empty = fully greedy for every sample). Entry i is bit-identical to
  /// `Run(*batch[i], rngs[i])`.
  std::vector<ChainOutput> RunBatch(vlm::FoundationModel::SampleSpan batch,
                                    std::span<Rng* const> rngs) const;

  /// Convenience RunBatch that forks one child stream per sample from
  /// `rng` in index order (null = greedy for every sample).
  std::vector<ChainOutput> RunBatch(vlm::FoundationModel::SampleSpan batch,
                                    Rng* rng) const;

  /// Batched PredictProbStressed: p_F(stressed) per sample.
  std::vector<double> PredictBatch(
      vlm::FoundationModel::SampleSpan batch) const;

  /// Batched PredictLabel.
  std::vector<int> PredictLabelBatch(
      vlm::FoundationModel::SampleSpan batch) const;

  // ---- Validated / fault-aware inference surface ----
  //
  // The serving layer predicts through these. Each sample is validated
  // (data::ValidateSample) and checked against the global FaultInjector
  // before the forward; the forward itself runs once over the valid subset
  // only. Errors are PER SAMPLE: one bad sample never fails its
  // batch-mates, which matters under dynamic batching where batch
  // composition is timing-dependent — per-sample granularity is what keeps
  // request outcomes deterministic. Successful entries are bit-identical
  // to `PredictBatch` over the same samples (entry independence, PR 3).

  /// Batched fallible prediction: entry i holds p_F(stressed) for
  /// `batch[i]`, or the per-sample error. `InvalidArgument` = bad input or
  /// injected frame corruption (not retryable); `Internal` = injected
  /// transient / NaN activation or a genuine non-finite probability
  /// (retryable upstream).
  std::vector<vsd::Result<double>> TryPredictBatch(
      vlm::FoundationModel::SampleSpan batch) const;

  /// Single-sample convenience (batch-of-1 through TryPredictBatch).
  vsd::Result<double> TryPredictProbStressed(
      const data::VideoSample& sample) const;

  /// Chain run with an in-context example (Sec. IV-F): the example's label
  /// and (normalized) similarity shift the assessment. One perception
  /// feeds all three steps.
  ChainOutput RunWithExample(const data::VideoSample& sample,
                             int example_label, double similarity,
                             Rng* rng) const;

  /// Test-time self-refinement for frozen (off-the-shelf) models
  /// (Sec. IV-G): reflect on the description without ground truth, keep the
  /// new description only when self-verification finds it more faithful,
  /// then reassess. `pool` supplies verification negatives. The final
  /// Assess and Highlight reuse the perception of the initial Describe.
  ChainOutput RunWithTestTimeRefinement(const data::VideoSample& sample,
                                        const data::Dataset& pool,
                                        Rng* rng) const;

  const ChainConfig& config() const { return config_; }
  const vlm::FoundationModel& model() const { return *model_; }

 private:
  /// Greedy descriptions: AUs with p > 0.5 under the perceived describe
  /// logits (all empty when chain is off).
  std::vector<face::AuMask> GreedyDescriptions(
      const vlm::Perception& perception) const;

  const vlm::FoundationModel* model_;
  ChainConfig config_;
};

}  // namespace vsd::cot

#endif  // VSD_COT_PIPELINE_H_
