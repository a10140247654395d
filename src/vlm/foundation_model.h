#ifndef VSD_VLM_FOUNDATION_MODEL_H_
#define VSD_VLM_FOUNDATION_MODEL_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/sample.h"
#include "face/au.h"
#include "nn/graph.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "vlm/vision.h"

namespace vsd::vlm {

/// Architecture hyper-parameters of the simulated vision-language model.
struct FoundationModelConfig {
  int vision_dim = 48;      ///< Per-frame embedding width.
  int hidden_dim = 96;      ///< Trunk width.
  int au_feature_dim = 24;  ///< Width of the description (AU set) embedding.
  uint64_t seed = 42;       ///< Weight initialization seed.
  /// Fixed additive offset on the assess stress-margin. Zero for trained
  /// task models; nonzero for the off-the-shelf API simulations, whose
  /// verdict threshold is not calibrated to the stress prior (the paper's
  /// zero-shot rows show exactly this precision/recall skew).
  float assess_margin_bias = 0.0f;
};

/// Structured result of the Describe step (facial description E).
struct DescribeResult {
  face::AuMask mask{};   ///< AUs the model reports.
  std::string text;      ///< Natural-language rendering of the description.
  double log_prob = 0.0; ///< log p_F(E | V, I1) of the sampled set.
};

/// Structured result of the Assess step (stress decision A).
struct AssessResult {
  int label = 0;               ///< 1 = Stressed, 0 = Unstressed.
  double prob_stressed = 0.5;  ///< p_F(A=stressed | V, E, I2).
  std::string text;
};

/// Structured result of the Highlight step (rationale R).
struct HighlightResult {
  std::vector<int> ranked_aus;  ///< AU indices, most critical first.
  std::string text;
};

/// What the model perceives of a batch of videos: V of Eq. 1, computed
/// once per batch by `FoundationModel::Perceive` and read by every chain
/// step. Describe reads `describe_logits`, Assess reads `hidden` plus the
/// posterior in `describe_logits`, Highlight reads `hidden`. Rows are
/// independent, so row i is bit-identical to the batch-of-1 perception of
/// sample i.
struct Perception {
  tensor::Tensor features;         ///< [N, 2*vision_dim] video features.
  tensor::Tensor hidden;           ///< [N, hidden_dim + 2*vision_dim] trunk.
  tensor::Tensor describe_logits;  ///< [N, kNumAus] describe-head logits.

  int size() const { return features.dim(0); }
};

/// \brief The trainable generative vision-language model F.
///
/// This class is the repo's stand-in for the fine-tuned Qwen-VL of the
/// paper. It exposes two equivalent interfaces:
///
///  * a typed interface (`Describe` / `Assess` / `Highlight` / reflection /
///    verification) whose outputs carry honest model likelihoods, used by
///    the chain pipeline and the DPO trainer; and
///  * a text interface (`Chat`) that routes English instructions (I1, I2,
///    I3, reflection, verification, direct-assess) to the typed interface
///    and renders/parses the canonical templates — the "prompt the model"
///    surface used by examples and the off-the-shelf-model experiments.
///
/// Generation is stochastic: Describe samples a Bernoulli per AU from the
/// describe head, Assess samples from the stress softmax, and Highlight
/// samples a ranking (Plackett-Luce) from the saliency head; `temperature`
/// scales all of them. Likelihood queries (`DescriptionLogProb`,
/// `AssessProbStressed`, `RationaleSetLogProbVar`) are exact under the
/// model, which is what makes Eq. 2-5 implementable as written.
///
/// The vision tower is trained during Describe instruction tuning and then
/// frozen, so per-video features can be cached with PrecomputeFeatures().
class FoundationModel : public nn::Module {
 public:
  /// Read-only batch of samples for the batched inference entry points.
  using SampleSpan = std::span<const data::VideoSample* const>;

  explicit FoundationModel(const FoundationModelConfig& config);

  const FoundationModelConfig& config() const { return config_; }
  const VisionTower& vision() const { return *vision_; }

  /// Deep copy (weights included); used for the frozen DPO reference.
  std::unique_ptr<FoundationModel> Clone() const;

  // ---- Features ----

  /// [2*vision_dim] embedding of the sample's frame pair; served from the
  /// feature cache when present.
  tensor::Tensor VideoFeature(const data::VideoSample& sample) const;

  /// [N, 2*vision_dim] embeddings of a batch of samples. Cache hits are
  /// copied; all misses are embedded in a single EmbedPairs forward (the
  /// cache is not mutated — this is the const inference path). Row i is
  /// bit-identical to `VideoFeature(*batch[i])`.
  tensor::Tensor VideoFeatureRows(SampleSpan batch) const;

  /// Fills the feature cache for every sample (call after the vision tower
  /// is frozen). Keyed by sample id. Embeds in chunks of
  /// `DefaultBatchSize()`; the cached features are bit-identical to
  /// per-sample embedding.
  void PrecomputeFeatures(const data::Dataset& dataset);
  void ClearFeatureCache();

  /// Drops every compiled trunk/head/encode graph so the next forward
  /// recompiles against the parameters' current dtypes. Call after
  /// mutating parameter storage in place (vlm/quantize.h); outstanding
  /// executor leases finish on their old graphs and are discarded on
  /// release.
  void InvalidateCompiledGraphs();

  // ---- Perception ----

  /// Perceives a batch: `VideoFeatureRows(batch)` (one EmbedPairs forward
  /// over the cache misses), then one trunk pass and one describe-head
  /// pass over all rows.
  Perception Perceive(SampleSpan batch) const;
  /// Perceives explicit [N, 2*vision_dim] feature rows, e.g. embeddings of
  /// perturbed frames that no sample id names.
  Perception Perceive(tensor::Tensor features) const;

  // ---- Differentiable internals (batched) ----

  /// Residual trunk: [N, 2*vision_dim] -> [N, hidden_dim + 2*vision_dim]
  /// (the GELU features concatenated with the raw video features, so no
  /// head is bottlenecked by the nonlinear projection).
  nn::Var TrunkForward(const nn::Var& video_features) const;
  /// Describe head: hidden -> [N, kNumAus] presence logits.
  nn::Var DescribeLogitsVar(const nn::Var& hidden) const;
  /// Assess head: trunk output + the model's own describe posterior
  /// (sigmoid of `describe_logits`, the describe head's output on
  /// `hidden`) + description mask rows [N,kNumAus] -> [N,2].
  nn::Var AssessLogitsVar(const nn::Var& hidden,
                          const nn::Var& describe_logits,
                          const nn::Var& description_rows) const;
  /// Highlight head: hidden + description + assessment one-hot -> [N,12].
  nn::Var HighlightLogitsVar(const nn::Var& hidden,
                             const nn::Var& description_rows,
                             const nn::Var& assess_onehot) const;

  /// log p(mask | logits) as a differentiable [N,1] column (independent
  /// Bernoulli per AU). Shared by Eq. 3 and Eq. 5.
  static nn::Var BernoulliSetLogProbVar(
      const nn::Var& logits, const std::vector<face::AuMask>& masks);

  // ---- Inference (single sample) ----

  /// Per-AU activation probabilities from the describe head.
  std::vector<double> DescribeProbs(const data::VideoSample& sample) const;

  /// Samples a description E ~ p_F(. | V, I1) at the given temperature.
  DescribeResult Describe(const data::VideoSample& sample,
                          double temperature, Rng* rng) const;

  /// Exact log p_F(E | V, I1) of a specific AU set.
  double DescriptionLogProb(const data::VideoSample& sample,
                            const face::AuMask& mask) const;

  /// Assesses stress given video + description (I2). `temperature` == 0
  /// means greedy argmax.
  AssessResult Assess(const data::VideoSample& sample,
                      const face::AuMask& description, double temperature,
                      Rng* rng) const;

  /// p_F(A = stressed | V, E, I2).
  double AssessProbStressed(const data::VideoSample& sample,
                            const face::AuMask& description) const;

  /// Like AssessProbStressed but for explicit (possibly perturbed) frames,
  /// bypassing the feature cache; used by the explainers and the rationale
  /// faithfulness checks, which query the model on masked/noised images.
  double AssessProbStressedWithFrames(const img::Image& expressive,
                                      const img::Image& neutral,
                                      const face::AuMask& description) const;

  /// Assess with an in-context example: the example's label shifts the
  /// stress logit proportionally to its similarity (Sec. IV-F).
  AssessResult AssessWithExample(const data::VideoSample& sample,
                                 const face::AuMask& description,
                                 int example_label, double similarity,
                                 double temperature, Rng* rng) const;
  /// AssessWithExample on a batch-of-1 perception.
  AssessResult AssessWithExample(const Perception& perception,
                                 const face::AuMask& description,
                                 int example_label, double similarity,
                                 double temperature, Rng* rng) const;

  /// Samples a rationale: ranks AUs by the saliency head via Plackett-Luce
  /// sampling restricted to the described set (falls back to all AUs when
  /// the description is empty), returning the top `top_m`.
  HighlightResult Highlight(const data::VideoSample& sample,
                            const face::AuMask& description, int assessment,
                            int top_m, double temperature, Rng* rng) const;

  /// Self-reflection on a description (Fig. 3). When `ground_truth_stress`
  /// is 0/1, the describe logits are tilted toward AUs whose presence the
  /// model's own assess head associates with the true label; with -1
  /// (test time, no label) the model merely resamples.
  DescribeResult ReflectDescribe(const data::VideoSample& sample,
                                 const face::AuMask& previous,
                                 int ground_truth_stress, double temperature,
                                 Rng* rng) const;

  /// Self-verification (Fig. 4): returns the index of the candidate video
  /// the description most plausibly describes (sampled at `temperature`).
  int SelectVideoForDescription(
      const std::vector<const data::VideoSample*>& candidates,
      const face::AuMask& description, double temperature, Rng* rng) const;

  // ---- Inference (batched) ----
  //
  // One perception per batch instead of per sample, and per chain rather
  // than per step: each head below has an overload that reads a
  // `Perception`, and the `SampleSpan` overload is `Perceive(batch)`
  // followed by it. Every op in the forward path computes output row i
  // from input row i alone, so entry i of each batched result is
  // bit-identical to the corresponding single-sample call — the
  // single-sample methods above are literally batch-of-1 delegations.
  // Sampling methods take one Rng per sample so the draw sequence per
  // sample matches the sequential path exactly.

  /// Per-AU activation probabilities for each sample.
  std::vector<std::vector<double>> DescribeProbsBatch(SampleSpan batch) const;
  std::vector<std::vector<double>> DescribeProbsBatch(
      const Perception& perception) const;

  /// Samples one description per sample from `rngs[i]` (all non-null).
  std::vector<DescribeResult> DescribeBatch(SampleSpan batch,
                                            double temperature,
                                            std::span<Rng* const> rngs) const;
  std::vector<DescribeResult> DescribeBatch(const Perception& perception,
                                            double temperature,
                                            std::span<Rng* const> rngs) const;

  /// Exact log p_F(E_i | V_i, I1) for each (sample, mask) pair.
  std::vector<double> DescriptionLogProbBatch(
      SampleSpan batch, std::span<const face::AuMask> masks) const;
  std::vector<double> DescriptionLogProbBatch(
      const Perception& perception,
      std::span<const face::AuMask> masks) const;

  /// Batched Assess. `rngs` is either empty (greedy for every sample, the
  /// `rng == nullptr` single-sample path) or one entry per sample. Entries
  /// may alias one stream: draws are made in index order, so K copies of
  /// one sample with K copies of one `rng` draw exactly what K sequential
  /// `Assess` calls would.
  std::vector<AssessResult> AssessBatch(
      SampleSpan batch, std::span<const face::AuMask> descriptions,
      double temperature, std::span<Rng* const> rngs) const;
  std::vector<AssessResult> AssessBatch(
      const Perception& perception,
      std::span<const face::AuMask> descriptions, double temperature,
      std::span<Rng* const> rngs) const;

  /// p_F(A_i = stressed | V_i, E_i, I2) for each sample.
  std::vector<double> AssessProbStressedBatch(
      SampleSpan batch, std::span<const face::AuMask> descriptions) const;
  std::vector<double> AssessProbStressedBatch(
      const Perception& perception,
      std::span<const face::AuMask> descriptions) const;

  /// Batched AssessProbStressedWithFrames over N explicit frame pairs.
  std::vector<double> AssessProbStressedWithFramesBatch(
      std::span<const img::Image* const> expressive,
      std::span<const img::Image* const> neutral,
      const face::AuMask& description) const;

  /// Batched AssessProbStressedWithFrames where all N expressive frames
  /// share one neutral frame (the explainer perturbation hot path): the
  /// neutral frame is encoded once for the whole batch.
  std::vector<double> AssessProbStressedWithFramesBatch(
      std::span<const img::Image* const> expressive,
      const img::Image& neutral, const face::AuMask& description) const;

  /// Batched Highlight: one highlight-head forward, then per-sample
  /// Plackett-Luce sampling from `rngs[i]` (empty = greedy for all).
  std::vector<HighlightResult> HighlightBatch(
      SampleSpan batch, std::span<const face::AuMask> descriptions,
      std::span<const int> assessments, int top_m, double temperature,
      std::span<Rng* const> rngs) const;
  std::vector<HighlightResult> HighlightBatch(
      const Perception& perception,
      std::span<const face::AuMask> descriptions,
      std::span<const int> assessments, int top_m, double temperature,
      std::span<Rng* const> rngs) const;

  // ---- Training losses ----

  /// Eq. 2: -E log p_F(E|V,I1) over a batch (BCE per AU). When
  /// `train_vision` the gradient flows through the vision tower; otherwise
  /// cached features are used.
  nn::Var DescribeLoss(const std::vector<const data::VideoSample*>& batch,
                       const std::vector<face::AuMask>& targets,
                       bool train_vision) const;

  /// Eq. 4: cross-entropy of the assess head given descriptions.
  nn::Var AssessLoss(const std::vector<const data::VideoSample*>& batch,
                     const std::vector<face::AuMask>& descriptions,
                     const std::vector<int>& labels) const;

  /// Supervised warmup of the highlight head: BCE toward target AU sets
  /// (e.g. described AUs whose assess-head sensitivity agrees with the
  /// assessment). The paper's Qwen-VL highlights sensibly out of the box;
  /// a randomly initialized head needs this warmup before Eq. 5 refines it.
  nn::Var HighlightLoss(const std::vector<const data::VideoSample*>& batch,
                        const std::vector<face::AuMask>& descriptions,
                        const std::vector<int>& assessments,
                        const std::vector<face::AuMask>& targets) const;

  /// Eq. 3: DPO on descriptions (winner = refined E, loser = original E_o)
  /// against the frozen `reference` model.
  nn::Var DpoDescribeLoss(
      const std::vector<const data::VideoSample*>& batch,
      const std::vector<face::AuMask>& winners,
      const std::vector<face::AuMask>& losers,
      const FoundationModel& reference, float beta) const;

  /// Eq. 5: DPO on rationales (winner/loser AU sets from the saliency
  /// head) against the frozen `reference` model.
  nn::Var DpoRationaleLoss(
      const std::vector<const data::VideoSample*>& batch,
      const std::vector<face::AuMask>& descriptions,
      const std::vector<int>& assessments,
      const std::vector<face::AuMask>& winners,
      const std::vector<face::AuMask>& losers,
      const FoundationModel& reference, float beta) const;

  // ---- Text interface ----

  /// Routes an instruction (I1/I2/I3, reflection, verification, direct
  /// assess) and returns the generated text. `context` carries prior chain
  /// outputs (description and/or assessment) where the instruction needs
  /// them; `videos` supplies one video (or the candidate list for
  /// verification).
  vsd::Result<std::string> Chat(
      const std::vector<const data::VideoSample*>& videos,
      const std::string& instruction, const std::string& context,
      double temperature, Rng* rng) const;

  // ---- Graph lowering ----
  //
  // The compiled forwards behind Perceive and the Perception-reading heads
  // are built from these (one graph per batch size `n`; each returns its
  // output node). The head graphs take trunk rows as input, so the trunk
  // runs once per perception, not once per head. Public so tests can
  // execute the model's own graphs directly.

  /// Lowers TrunkForward: features input -> trunk rows.
  int BuildTrunkGraph(nn::graph::GraphBuilder* builder, int n) const;
  /// Trunk-rows input -> describe logits.
  int BuildDescribeHeadGraph(nn::graph::GraphBuilder* builder, int n) const;
  /// Inputs: trunk rows, describe logits, description masks -> assess
  /// logits.
  int BuildAssessHeadGraph(nn::graph::GraphBuilder* builder, int n) const;
  /// Inputs: trunk rows, description masks, assessment one-hots ->
  /// highlight logits.
  int BuildHighlightHeadGraph(nn::graph::GraphBuilder* builder, int n) const;

  // ---- Parameters ----

  std::vector<nn::Var> Parameters() const override;
  /// Trunk + heads only (the stage-2 trainable set; vision frozen).
  std::vector<nn::Var> HeadParameters() const;
  std::vector<nn::Var> VisionParameters() const;

 private:
  static nn::Var MaskRows(const std::vector<face::AuMask>& masks);
  static nn::Var OneHotRows(const std::vector<int>& labels, int classes);

  // ---- Compiled forwards ----
  //
  // Perceive and the Perception-reading heads route through these
  // Tensor-returning helpers, which dispatch to a compiled graph when
  // `nn::graph::GraphExecEnabled()` and to the eager Var composition
  // otherwise. Both paths run the kernels in tensor/kernels.h, so the
  // results are bit-identical; training losses always stay eager (they
  // need gradients).

  /// [N,2] assess logits given per-sample description masks.
  tensor::Tensor AssessLogits(
      const Perception& perception,
      std::span<const face::AuMask> descriptions) const;
  /// [N,kNumAus] highlight logits given descriptions and assessments.
  tensor::Tensor HighlightLogits(const Perception& perception,
                                 std::span<const face::AuMask> descriptions,
                                 std::span<const int> assessments) const;

  FoundationModelConfig config_;
  std::shared_ptr<VisionTower> vision_;
  std::shared_ptr<nn::Linear> trunk_;
  std::shared_ptr<nn::Linear> describe_head_;
  std::shared_ptr<nn::Linear> au_embed_;
  std::shared_ptr<nn::Mlp> assess_head_;
  std::shared_ptr<nn::Mlp> highlight_head_;

  mutable std::unordered_map<int, tensor::Tensor> feature_cache_;

  /// Per-batch-size compiled graphs for the trunk and the three heads,
  /// with pooled executors for concurrent callers (explainer ThreadPool
  /// loops).
  mutable nn::graph::CompiledForward trunk_forward_;
  mutable nn::graph::CompiledForward describe_forward_;
  mutable nn::graph::CompiledForward assess_forward_;
  mutable nn::graph::CompiledForward highlight_forward_;
};

}  // namespace vsd::vlm

#endif  // VSD_VLM_FOUNDATION_MODEL_H_
