#include "vlm/foundation_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/batching.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "tensor/autograd.h"
#include "text/instructions.h"
#include "text/templates.h"

namespace vsd::vlm {

namespace ag = ::vsd::autograd;
using face::AuMask;
using face::kNumAus;
using nn::Var;
using tensor::Tensor;

namespace {

int TrunkWidth(const FoundationModelConfig& config) {
  return config.hidden_dim + 2 * config.vision_dim;
}

}  // namespace

FoundationModel::FoundationModel(const FoundationModelConfig& config)
    : config_(config),
      trunk_forward_([this](nn::graph::GraphBuilder* builder, int n) {
        return BuildTrunkGraph(builder, n);
      }),
      describe_forward_([this](nn::graph::GraphBuilder* builder, int n) {
        return BuildDescribeHeadGraph(builder, n);
      }),
      assess_forward_([this](nn::graph::GraphBuilder* builder, int n) {
        return BuildAssessHeadGraph(builder, n);
      }),
      highlight_forward_([this](nn::graph::GraphBuilder* builder, int n) {
        return BuildHighlightHeadGraph(builder, n);
      }) {
  Rng rng(config.seed);
  vision_ = std::make_shared<VisionTower>(config.vision_dim, &rng);
  trunk_ = std::make_shared<nn::Linear>(2 * config.vision_dim,
                                        config.hidden_dim, &rng);
  // The trunk is residual: heads see [GELU(W f), f], so the nonlinear
  // features never bottleneck the raw video representation.
  const int trunk_out = TrunkWidth(config);
  describe_head_ = std::make_shared<nn::Linear>(trunk_out, kNumAus, &rng);
  au_embed_ = std::make_shared<nn::Linear>(kNumAus, config.au_feature_dim,
                                           &rng);
  assess_head_ = std::make_shared<nn::Mlp>(
      std::vector<int>{trunk_out + kNumAus + config.au_feature_dim, 64, 2},
      nn::Activation::kGelu, &rng);
  highlight_head_ = std::make_shared<nn::Mlp>(
      std::vector<int>{trunk_out + config.au_feature_dim + 2, 48, kNumAus},
      nn::Activation::kGelu, &rng);
}

std::unique_ptr<FoundationModel> FoundationModel::Clone() const {
  auto copy = std::make_unique<FoundationModel>(config_);
  const bool ok = copy->LoadStateVector(StateVector());
  VSD_CHECK(ok) << "Clone state mismatch";
  copy->feature_cache_ = feature_cache_;
  return copy;
}

Tensor FoundationModel::VideoFeature(const data::VideoSample& sample) const {
  auto it = feature_cache_.find(sample.id);
  if (it != feature_cache_.end()) return it->second;
  return vision_->EmbedPair(sample.expressive_frame, sample.neutral_frame);
}

Tensor FoundationModel::VideoFeatureRows(SampleSpan batch) const {
  const int n = static_cast<int>(batch.size());
  const int dim = 2 * config_.vision_dim;
  Tensor rows({n, dim});
  std::vector<int> miss_rows;
  std::vector<const img::Image*> miss_expressive;
  std::vector<const img::Image*> miss_neutral;
  for (int i = 0; i < n; ++i) {
    auto it = feature_cache_.find(batch[i]->id);
    if (it != feature_cache_.end()) {
      for (int j = 0; j < dim; ++j) rows.at(i, j) = it->second.at(j);
    } else {
      miss_rows.push_back(i);
      miss_expressive.push_back(&batch[i]->expressive_frame);
      miss_neutral.push_back(&batch[i]->neutral_frame);
    }
  }
  if (!miss_rows.empty()) {
    Tensor embedded = vision_->EmbedPairs(miss_expressive, miss_neutral);
    for (size_t m = 0; m < miss_rows.size(); ++m) {
      for (int j = 0; j < dim; ++j) {
        rows.at(miss_rows[m], j) = embedded.at(static_cast<int>(m), j);
      }
    }
  }
  return rows;
}

void FoundationModel::PrecomputeFeatures(const data::Dataset& dataset) {
  const int64_t n = static_cast<int64_t>(dataset.samples.size());
  const int batch_size = DefaultBatchSize();
  for (int64_t b = 0; b < NumBatches(n, batch_size); ++b) {
    const auto [begin, end] = BatchBounds(n, batch_size, b);
    std::vector<const img::Image*> expressive;
    std::vector<const img::Image*> neutral;
    for (int64_t i = begin; i < end; ++i) {
      expressive.push_back(&dataset.samples[i].expressive_frame);
      neutral.push_back(&dataset.samples[i].neutral_frame);
    }
    Tensor rows = vision_->EmbedPairs(expressive, neutral);
    for (int64_t i = begin; i < end; ++i) {
      feature_cache_[dataset.samples[i].id] =
          rows.Row(static_cast<int>(i - begin));
    }
  }
}

void FoundationModel::ClearFeatureCache() { feature_cache_.clear(); }

void FoundationModel::InvalidateCompiledGraphs() {
  trunk_forward_.Clear();
  describe_forward_.Clear();
  assess_forward_.Clear();
  highlight_forward_.Clear();
  vision_->InvalidateCompiledGraphs();
}

Var FoundationModel::TrunkForward(const Var& video_features) const {
  return ag::Concat(ag::Gelu(trunk_->Forward(video_features)),
                    video_features);
}

Var FoundationModel::DescribeLogitsVar(const Var& hidden) const {
  return describe_head_->Forward(hidden);
}

Var FoundationModel::AssessLogitsVar(const Var& hidden,
                                     const Var& describe_logits,
                                     const Var& description_rows) const {
  Var au_feat = au_embed_->Forward(description_rows);
  // The assess step re-reads the model's own facial-action posterior (the
  // soft form of the Describe output) alongside the discrete description
  // text E — the structured analogue of a VLM attending to its generated
  // reasoning step.
  Var describe_posterior = ag::SigmoidV(describe_logits);
  return assess_head_->Forward(
      ag::Concat(ag::Concat(hidden, describe_posterior), au_feat));
}

Var FoundationModel::HighlightLogitsVar(const Var& hidden,
                                        const Var& description_rows,
                                        const Var& assess_onehot) const {
  Var au_feat = au_embed_->Forward(description_rows);
  return highlight_head_->Forward(
      ag::Concat(ag::Concat(hidden, au_feat), assess_onehot));
}

Var FoundationModel::BernoulliSetLogProbVar(
    const Var& logits, const std::vector<AuMask>& masks) {
  Var mask_rows = MaskRows(masks);
  // log p = sum_j [m log sigma(z) + (1-m) log sigma(-z)]
  //       = sum_j -(softplus(z) - z*m).
  Var nll = ag::Sub(ag::Softplus(logits), ag::Mul(logits, mask_rows));
  return ag::RowSum(ag::Neg(nll));
}

namespace {

// The fill helpers write EVERY slot: executor arenas are reused across
// executions, so any skipped slot would read a stale value from the
// previous batch. MaskRows and OneHotRows fill their tensors with them
// too.

void FillInput(const nn::graph::CompiledForward::Lease& lease, int index,
               const Tensor& rows) {
  std::memcpy(lease->InputData(index), rows.data(),
              static_cast<size_t>(rows.size()) * sizeof(float));
}

void FillMaskRows(std::span<const AuMask> masks, float* dst) {
  for (size_t i = 0; i < masks.size(); ++i) {
    for (int j = 0; j < kNumAus; ++j) {
      dst[i * kNumAus + j] = masks[i][j] ? 1.0f : 0.0f;
    }
  }
}

void FillOneHotRows(std::span<const int> labels, int classes, float* dst) {
  for (size_t i = 0; i < labels.size(); ++i) {
    for (int j = 0; j < classes; ++j) {
      dst[i * static_cast<size_t>(classes) + j] =
          labels[i] == j ? 1.0f : 0.0f;
    }
  }
}

/// Copies a lease's output into a fresh [n, cols] tensor.
Tensor CopyOutput(const nn::graph::CompiledForward::Lease& lease, int n,
                  int cols) {
  Tensor out({n, cols});
  std::memcpy(out.data(), lease->OutputData(),
              static_cast<size_t>(out.size()) * sizeof(float));
  return out;
}

}  // namespace

Var FoundationModel::MaskRows(const std::vector<AuMask>& masks) {
  Tensor rows({static_cast<int>(masks.size()), kNumAus});
  FillMaskRows(masks, rows.data());
  return Var(rows);
}

Var FoundationModel::OneHotRows(const std::vector<int>& labels,
                                int classes) {
  Tensor rows({static_cast<int>(labels.size()), classes});
  FillOneHotRows(labels, classes, rows.data());
  return Var(rows);
}

int FoundationModel::BuildTrunkGraph(nn::graph::GraphBuilder* builder,
                                     int n) const {
  const int features = builder->Input({n, 2 * config_.vision_dim});
  return builder->Concat(
      builder->Gelu(trunk_->BuildGraph(builder, features)), features);
}

int FoundationModel::BuildDescribeHeadGraph(nn::graph::GraphBuilder* builder,
                                            int n) const {
  return describe_head_->BuildGraph(
      builder, builder->Input({n, TrunkWidth(config_)}));
}

int FoundationModel::BuildAssessHeadGraph(nn::graph::GraphBuilder* builder,
                                          int n) const {
  const int hidden = builder->Input({n, TrunkWidth(config_)});
  const int describe_logits = builder->Input({n, kNumAus});
  const int masks = builder->Input({n, kNumAus});
  const int au_feat = au_embed_->BuildGraph(builder, masks);
  const int posterior = builder->Sigmoid(describe_logits);
  return assess_head_->BuildGraph(
      builder, builder->Concat(builder->Concat(hidden, posterior), au_feat));
}

int FoundationModel::BuildHighlightHeadGraph(
    nn::graph::GraphBuilder* builder, int n) const {
  const int hidden = builder->Input({n, TrunkWidth(config_)});
  const int masks = builder->Input({n, kNumAus});
  const int onehot = builder->Input({n, 2});
  const int au_feat = au_embed_->BuildGraph(builder, masks);
  return highlight_head_->BuildGraph(
      builder, builder->Concat(builder->Concat(hidden, au_feat), onehot));
}

Perception FoundationModel::Perceive(SampleSpan batch) const {
  return Perceive(VideoFeatureRows(batch));
}

Perception FoundationModel::Perceive(Tensor features) const {
  Perception perception;
  const int n = features.dim(0);
  if (n > 0 && nn::graph::GraphExecEnabled()) {
    {
      nn::graph::CompiledForward::Lease lease = trunk_forward_.Acquire(n);
      FillInput(lease, 0, features);
      lease->Execute();
      perception.hidden = CopyOutput(lease, n, TrunkWidth(config_));
    }
    nn::graph::CompiledForward::Lease lease = describe_forward_.Acquire(n);
    FillInput(lease, 0, perception.hidden);
    lease->Execute();
    perception.describe_logits = CopyOutput(lease, n, kNumAus);
  } else {
    const Var hidden = TrunkForward(Var(features));
    perception.hidden = hidden.value();
    perception.describe_logits = DescribeLogitsVar(hidden).value();
  }
  perception.features = std::move(features);
  return perception;
}

Tensor FoundationModel::AssessLogits(
    const Perception& perception,
    std::span<const AuMask> descriptions) const {
  const int n = perception.size();
  VSD_CHECK(static_cast<int>(descriptions.size()) == n)
      << "AssessLogits description mismatch";
  if (n > 0 && nn::graph::GraphExecEnabled()) {
    nn::graph::CompiledForward::Lease lease = assess_forward_.Acquire(n);
    FillInput(lease, 0, perception.hidden);
    FillInput(lease, 1, perception.describe_logits);
    FillMaskRows(descriptions, lease->InputData(2));
    lease->Execute();
    return CopyOutput(lease, n, 2);
  }
  return AssessLogitsVar(
             Var(perception.hidden), Var(perception.describe_logits),
             MaskRows({descriptions.begin(), descriptions.end()}))
      .value();
}

Tensor FoundationModel::HighlightLogits(
    const Perception& perception, std::span<const AuMask> descriptions,
    std::span<const int> assessments) const {
  const int n = perception.size();
  VSD_CHECK(static_cast<int>(descriptions.size()) == n &&
            static_cast<int>(assessments.size()) == n)
      << "HighlightLogits input mismatch";
  if (n > 0 && nn::graph::GraphExecEnabled()) {
    nn::graph::CompiledForward::Lease lease = highlight_forward_.Acquire(n);
    FillInput(lease, 0, perception.hidden);
    FillMaskRows(descriptions, lease->InputData(1));
    FillOneHotRows(assessments, 2, lease->InputData(2));
    lease->Execute();
    return CopyOutput(lease, n, kNumAus);
  }
  return HighlightLogitsVar(
             Var(perception.hidden),
             MaskRows({descriptions.begin(), descriptions.end()}),
             OneHotRows({assessments.begin(), assessments.end()}, 2))
      .value();
}

std::vector<double> FoundationModel::DescribeProbs(
    const data::VideoSample& sample) const {
  const data::VideoSample* one[] = {&sample};
  return DescribeProbsBatch(one).front();
}

std::vector<std::vector<double>> FoundationModel::DescribeProbsBatch(
    SampleSpan batch) const {
  return DescribeProbsBatch(Perceive(batch));
}

std::vector<std::vector<double>> FoundationModel::DescribeProbsBatch(
    const Perception& perception) const {
  const Tensor& logits = perception.describe_logits;
  const int n = perception.size();
  std::vector<std::vector<double>> probs(n, std::vector<double>(kNumAus));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < kNumAus; ++j) {
      probs[i][j] = vsd::Sigmoid(logits.at(i, j));
    }
  }
  return probs;
}

DescribeResult FoundationModel::Describe(const data::VideoSample& sample,
                                         double temperature,
                                         Rng* rng) const {
  const data::VideoSample* one[] = {&sample};
  Rng* rngs[] = {rng};
  return DescribeBatch(one, temperature, rngs).front();
}

std::vector<DescribeResult> FoundationModel::DescribeBatch(
    SampleSpan batch, double temperature, std::span<Rng* const> rngs) const {
  return DescribeBatch(Perceive(batch), temperature, rngs);
}

std::vector<DescribeResult> FoundationModel::DescribeBatch(
    const Perception& perception, double temperature,
    std::span<Rng* const> rngs) const {
  const int n = perception.size();
  VSD_CHECK(static_cast<int>(rngs.size()) == n)
      << "DescribeBatch rng mismatch";
  const Tensor& logits = perception.describe_logits;
  const double t = std::max(temperature, 1e-3);
  std::vector<DescribeResult> results(n);
  for (int i = 0; i < n; ++i) {
    DescribeResult& result = results[i];
    for (int j = 0; j < kNumAus; ++j) {
      const double z = logits.at(i, j);
      const bool active = rngs[i]->Bernoulli(vsd::Sigmoid(z / t));
      result.mask[j] = active;
      // Likelihood is reported at the model's native temperature (T=1).
      result.log_prob +=
          active ? std::log(std::max(vsd::Sigmoid(z), 1e-12))
                 : std::log(std::max(vsd::Sigmoid(-z), 1e-12));
    }
    result.text = text::RenderDescription(result.mask);
  }
  return results;
}

double FoundationModel::DescriptionLogProb(const data::VideoSample& sample,
                                           const AuMask& mask) const {
  const data::VideoSample* one[] = {&sample};
  const AuMask masks[] = {mask};
  return DescriptionLogProbBatch(one, masks).front();
}

std::vector<double> FoundationModel::DescriptionLogProbBatch(
    SampleSpan batch, std::span<const AuMask> masks) const {
  return DescriptionLogProbBatch(Perceive(batch), masks);
}

std::vector<double> FoundationModel::DescriptionLogProbBatch(
    const Perception& perception, std::span<const AuMask> masks) const {
  const int n = perception.size();
  VSD_CHECK(static_cast<int>(masks.size()) == n)
      << "DescriptionLogProbBatch mask mismatch";
  const Tensor& logits = perception.describe_logits;
  std::vector<double> log_probs(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < kNumAus; ++j) {
      const double z = logits.at(i, j);
      log_probs[i] += masks[i][j]
                          ? std::log(std::max(vsd::Sigmoid(z), 1e-12))
                          : std::log(std::max(vsd::Sigmoid(-z), 1e-12));
    }
  }
  return log_probs;
}

AssessResult FoundationModel::Assess(const data::VideoSample& sample,
                                     const AuMask& description,
                                     double temperature, Rng* rng) const {
  const data::VideoSample* one[] = {&sample};
  const AuMask descriptions[] = {description};
  Rng* rngs[] = {rng};
  return AssessBatch(one, descriptions, temperature, rngs).front();
}

std::vector<AssessResult> FoundationModel::AssessBatch(
    SampleSpan batch, std::span<const AuMask> descriptions,
    double temperature, std::span<Rng* const> rngs) const {
  return AssessBatch(Perceive(batch), descriptions, temperature, rngs);
}

std::vector<AssessResult> FoundationModel::AssessBatch(
    const Perception& perception, std::span<const AuMask> descriptions,
    double temperature, std::span<Rng* const> rngs) const {
  const int n = perception.size();
  VSD_CHECK(rngs.empty() || static_cast<int>(rngs.size()) == n)
      << "AssessBatch rng mismatch";
  const Tensor logits = AssessLogits(perception, descriptions);
  // Read as double so the margin is summed in double precision.
  const double bias = config_.assess_margin_bias;
  std::vector<AssessResult> results(n);
  for (int i = 0; i < n; ++i) {
    const double margin = logits.at(i, 1) - logits.at(i, 0) + bias;
    AssessResult& result = results[i];
    result.prob_stressed = vsd::Sigmoid(margin);
    Rng* rng = rngs.empty() ? nullptr : rngs[i];
    if (temperature <= 0.0 || rng == nullptr) {
      result.label = result.prob_stressed >= 0.5 ? 1 : 0;
    } else {
      result.label =
          rng->Bernoulli(vsd::Sigmoid(margin / temperature)) ? 1 : 0;
    }
    result.text = text::RenderAssessment(result.label);
  }
  return results;
}

double FoundationModel::AssessProbStressed(
    const data::VideoSample& sample, const AuMask& description) const {
  const data::VideoSample* one[] = {&sample};
  const AuMask descriptions[] = {description};
  return AssessProbStressedBatch(one, descriptions).front();
}

std::vector<double> FoundationModel::AssessProbStressedBatch(
    SampleSpan batch, std::span<const AuMask> descriptions) const {
  return AssessProbStressedBatch(Perceive(batch), descriptions);
}

std::vector<double> FoundationModel::AssessProbStressedBatch(
    const Perception& perception,
    std::span<const AuMask> descriptions) const {
  const int n = perception.size();
  const Tensor logits = AssessLogits(perception, descriptions);
  const double bias = config_.assess_margin_bias;
  std::vector<double> probs(n);
  for (int i = 0; i < n; ++i) {
    probs[i] = vsd::Sigmoid(logits.at(i, 1) - logits.at(i, 0) + bias);
  }
  return probs;
}

double FoundationModel::AssessProbStressedWithFrames(
    const img::Image& expressive, const img::Image& neutral,
    const AuMask& description) const {
  const img::Image* e[] = {&expressive};
  const img::Image* l[] = {&neutral};
  return AssessProbStressedWithFramesBatch(e, l, description).front();
}

std::vector<double> FoundationModel::AssessProbStressedWithFramesBatch(
    std::span<const img::Image* const> expressive,
    std::span<const img::Image* const> neutral,
    const AuMask& description) const {
  return AssessProbStressedBatch(
      Perceive(vision_->EmbedPairs(expressive, neutral)),
      std::vector<AuMask>(expressive.size(), description));
}

std::vector<double> FoundationModel::AssessProbStressedWithFramesBatch(
    std::span<const img::Image* const> expressive,
    const img::Image& neutral, const AuMask& description) const {
  const int n = static_cast<int>(expressive.size());
  // Encode the N expressive frames plus the shared neutral frame once, in
  // one packed forward. Embedding rows are input-row independent, so each
  // pair feature is bit-identical to EmbedPair(expressive[i], neutral).
  std::vector<const img::Image*> images(expressive.begin(),
                                        expressive.end());
  images.push_back(&neutral);
  Tensor encoded = vision_->EncodeBatch(images);
  const int dim = config_.vision_dim;
  Tensor rows({n, 2 * dim});
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < dim; ++j) {
      rows.at(i, j) = encoded.at(i, j);
      rows.at(i, dim + j) = encoded.at(n, j);
    }
  }
  return AssessProbStressedBatch(
      Perceive(std::move(rows)),
      std::vector<AuMask>(expressive.size(), description));
}

AssessResult FoundationModel::AssessWithExample(
    const data::VideoSample& sample, const AuMask& description,
    int example_label, double similarity, double temperature,
    Rng* rng) const {
  const data::VideoSample* one[] = {&sample};
  return AssessWithExample(Perceive(one), description, example_label,
                           similarity, temperature, rng);
}

AssessResult FoundationModel::AssessWithExample(
    const Perception& perception, const AuMask& description,
    int example_label, double similarity, double temperature,
    Rng* rng) const {
  VSD_CHECK(perception.size() == 1) << "AssessWithExample takes one video";
  const AuMask descriptions[] = {description};
  const Tensor logits = AssessLogits(perception, descriptions);
  const double bias = config_.assess_margin_bias;
  double margin = logits.at(0, 1) - logits.at(0, 0) + bias;
  // The in-context example shifts the decision toward its own label in
  // proportion to how similar it is to the query (Sec. IV-F): dissimilar
  // examples contribute near-zero shift (random retrieval ~ no example).
  constexpr double kIclWeight = 1.1;
  const double gate = std::max(0.0, similarity);
  margin += kIclWeight * gate * (example_label == 1 ? 1.0 : -1.0);
  AssessResult result;
  result.prob_stressed = vsd::Sigmoid(margin);
  if (temperature <= 0.0 || rng == nullptr) {
    result.label = result.prob_stressed >= 0.5 ? 1 : 0;
  } else {
    result.label =
        rng->Bernoulli(vsd::Sigmoid(margin / temperature)) ? 1 : 0;
  }
  result.text = text::RenderAssessment(result.label);
  return result;
}

namespace {

/// Plackett-Luce sampling without replacement over the described AU set
/// (all AUs when the description is empty), reading row `row` of the
/// batched highlight logits. rng == nullptr means greedy argmax.
HighlightResult SampleRationale(const Tensor& logits, int row,
                                const AuMask& description, int top_m,
                                double temperature, Rng* rng) {
  std::vector<int> candidates = face::AuMaskToIndices(description);
  if (candidates.empty()) {
    candidates.resize(kNumAus);
    for (int j = 0; j < kNumAus; ++j) candidates[j] = j;
  }
  const double t = std::max(temperature, 1e-3);
  HighlightResult result;
  std::vector<int> remaining = candidates;
  const int picks = std::min<int>(top_m, static_cast<int>(remaining.size()));
  for (int step = 0; step < picks; ++step) {
    std::vector<double> weights(remaining.size());
    double max_z = -1e30;
    for (int i : remaining) {
      max_z = std::max(max_z, (double)logits.at(row, i));
    }
    for (size_t i = 0; i < remaining.size(); ++i) {
      weights[i] = std::exp((logits.at(row, remaining[i]) - max_z) / t);
    }
    int pick;
    if (rng == nullptr) {
      pick = vsd::ArgMax(weights);
    } else {
      pick = rng->SampleIndex(weights);
    }
    if (pick < 0) pick = 0;
    result.ranked_aus.push_back(remaining[pick]);
    remaining.erase(remaining.begin() + pick);
  }
  result.text = text::RenderRationale(result.ranked_aus);
  return result;
}

}  // namespace

HighlightResult FoundationModel::Highlight(const data::VideoSample& sample,
                                           const AuMask& description,
                                           int assessment, int top_m,
                                           double temperature,
                                           Rng* rng) const {
  const data::VideoSample* one[] = {&sample};
  const AuMask descriptions[] = {description};
  const int assessments[] = {assessment};
  Rng* rngs[] = {rng};
  return HighlightBatch(one, descriptions, assessments, top_m, temperature,
                        rngs)
      .front();
}

std::vector<HighlightResult> FoundationModel::HighlightBatch(
    SampleSpan batch, std::span<const AuMask> descriptions,
    std::span<const int> assessments, int top_m, double temperature,
    std::span<Rng* const> rngs) const {
  return HighlightBatch(Perceive(batch), descriptions, assessments, top_m,
                        temperature, rngs);
}

std::vector<HighlightResult> FoundationModel::HighlightBatch(
    const Perception& perception, std::span<const AuMask> descriptions,
    std::span<const int> assessments, int top_m, double temperature,
    std::span<Rng* const> rngs) const {
  const int n = perception.size();
  VSD_CHECK(rngs.empty() || static_cast<int>(rngs.size()) == n)
      << "HighlightBatch rng mismatch";
  const Tensor logits = HighlightLogits(perception, descriptions, assessments);
  std::vector<HighlightResult> results;
  results.reserve(n);
  for (int i = 0; i < n; ++i) {
    results.push_back(SampleRationale(logits, i, descriptions[i], top_m,
                                      temperature,
                                      rngs.empty() ? nullptr : rngs[i]));
  }
  return results;
}

DescribeResult FoundationModel::ReflectDescribe(
    const data::VideoSample& sample, const AuMask& previous,
    int ground_truth_stress, double temperature, Rng* rng) const {
  const data::VideoSample* one[] = {&sample};
  const Perception perception = Perceive(one);
  const Tensor& logits = perception.describe_logits;

  // Sensitivity of the model's own stress belief to each AU: toggling AU j
  // in the previous description and reading the assess-head margin. With
  // the ground-truth outcome known (training time), the describe logits
  // are tilted toward AUs that support the true label — "could I refine my
  // descriptions to support better stress assessment?" (Fig. 3).
  std::array<double, kNumAus> tilt{};
  if (ground_truth_stress == 0 || ground_truth_stress == 1) {
    const double sign = ground_truth_stress == 1 ? 1.0 : -1.0;
    for (int j = 0; j < kNumAus; ++j) {
      AuMask on = previous;
      AuMask off = previous;
      on[j] = true;
      off[j] = false;
      const Tensor z_on = AssessLogits(perception, {&on, 1});
      const Tensor z_off = AssessLogits(perception, {&off, 1});
      const double margin_on = z_on.at(0, 1) - z_on.at(0, 0);
      const double margin_off = z_off.at(0, 1) - z_off.at(0, 0);
      tilt[j] = sign * (margin_on - margin_off);
    }
  }

  constexpr double kTiltStrength = 2.2;
  constexpr double kAnchorStrength = 0.5;
  const double t = std::max(temperature, 1e-3);
  DescribeResult result;
  for (int j = 0; j < kNumAus; ++j) {
    double z = logits.at(0, j);
    z += kAnchorStrength * (previous[j] ? 1.0 : -1.0);
    // Reflection reconsiders *uncertain* units: confident visual evidence
    // (large |z|) is not overridden by the outcome-driven tilt.
    const double uncertainty = 1.0 / (1.0 + std::abs(z));
    z += kTiltStrength * uncertainty * tilt[j];
    const bool active = rng->Bernoulli(vsd::Sigmoid(z / t));
    result.mask[j] = active;
    const double z_model = logits.at(0, j);
    result.log_prob +=
        active ? std::log(std::max(vsd::Sigmoid(z_model), 1e-12))
               : std::log(std::max(vsd::Sigmoid(-z_model), 1e-12));
  }
  result.text = text::RenderDescription(result.mask);
  return result;
}

int FoundationModel::SelectVideoForDescription(
    const std::vector<const data::VideoSample*>& candidates,
    const AuMask& description, double temperature, Rng* rng) const {
  VSD_CHECK(!candidates.empty()) << "no candidate videos";
  const std::vector<AuMask> masks(candidates.size(), description);
  const std::vector<double> log_probs =
      DescriptionLogProbBatch(candidates, masks);
  if (temperature <= 0.0 || rng == nullptr) {
    return vsd::ArgMax(log_probs);
  }
  std::vector<double> weights = log_probs;
  vsd::SoftmaxInPlace(&weights, temperature);
  const int pick = rng->SampleIndex(weights);
  return pick < 0 ? 0 : pick;
}

Var FoundationModel::DescribeLoss(
    const std::vector<const data::VideoSample*>& batch,
    const std::vector<AuMask>& targets, bool train_vision) const {
  VSD_CHECK(batch.size() == targets.size()) << "DescribeLoss batch mismatch";
  const int n = static_cast<int>(batch.size());
  Var features;
  if (train_vision) {
    std::vector<const img::Image*> images;
    images.reserve(2 * n);
    for (const auto* sample : batch) {
      images.push_back(&sample->expressive_frame);
      images.push_back(&sample->neutral_frame);
    }
    Var frame_embeds = vision_->Forward(Var(vision_->PackImages(images)));
    // Rows are (f_e, f_l) interleaved, so a reshape pairs them per sample.
    features = ag::Reshape(frame_embeds, {n, 2 * config_.vision_dim});
  } else {
    features = Var(VideoFeatureRows(batch));
  }
  Var logits = DescribeLogitsVar(TrunkForward(features));
  Var mask_rows = MaskRows(targets);
  // Mean BCE-with-logits: softplus(z) - z*m averaged over all entries.
  return ag::MeanAll(ag::Sub(ag::Softplus(logits),
                             ag::Mul(logits, mask_rows)));
}

Var FoundationModel::AssessLoss(
    const std::vector<const data::VideoSample*>& batch,
    const std::vector<AuMask>& descriptions,
    const std::vector<int>& labels) const {
  VSD_CHECK(batch.size() == descriptions.size() &&
            batch.size() == labels.size())
      << "AssessLoss batch mismatch";
  Var hidden = TrunkForward(Var(VideoFeatureRows(batch)));
  Var logits = AssessLogitsVar(hidden, DescribeLogitsVar(hidden),
                               MaskRows(descriptions));
  return ag::SoftmaxCrossEntropy(logits, labels);
}

Var FoundationModel::HighlightLoss(
    const std::vector<const data::VideoSample*>& batch,
    const std::vector<AuMask>& descriptions,
    const std::vector<int>& assessments,
    const std::vector<AuMask>& targets) const {
  VSD_CHECK(batch.size() == targets.size()) << "HighlightLoss batch mismatch";
  Var hidden = TrunkForward(Var(VideoFeatureRows(batch)));
  Var logits = HighlightLogitsVar(hidden, MaskRows(descriptions),
                                  OneHotRows(assessments, 2));
  Var mask_rows = MaskRows(targets);
  return ag::MeanAll(ag::Sub(ag::Softplus(logits),
                             ag::Mul(logits, mask_rows)));
}

Var FoundationModel::DpoDescribeLoss(
    const std::vector<const data::VideoSample*>& batch,
    const std::vector<AuMask>& winners, const std::vector<AuMask>& losers,
    const FoundationModel& reference, float beta) const {
  VSD_CHECK(batch.size() == winners.size() && batch.size() == losers.size())
      << "DpoDescribeLoss batch mismatch";
  Var logits = DescribeLogitsVar(TrunkForward(Var(VideoFeatureRows(batch))));
  Var lw = BernoulliSetLogProbVar(logits, winners);
  Var ll = BernoulliSetLogProbVar(logits, losers);

  // Reference log-probs are constants (frozen model).
  Var ref_logits = reference.DescribeLogitsVar(
      reference.TrunkForward(Var(reference.VideoFeatureRows(batch))));
  Var ref_lw = BernoulliSetLogProbVar(ref_logits, winners);
  Var ref_ll = BernoulliSetLogProbVar(ref_logits, losers);
  Var ref_delta = Var(tensor::Sub(ref_lw.value(), ref_ll.value()));

  Var delta = ag::Sub(ag::Sub(lw, ll), ref_delta);
  // -log sigmoid(beta * delta) = softplus(-beta * delta).
  return ag::MeanAll(ag::Softplus(ag::Scale(delta, -beta)));
}

Var FoundationModel::DpoRationaleLoss(
    const std::vector<const data::VideoSample*>& batch,
    const std::vector<AuMask>& descriptions,
    const std::vector<int>& assessments, const std::vector<AuMask>& winners,
    const std::vector<AuMask>& losers, const FoundationModel& reference,
    float beta) const {
  VSD_CHECK(batch.size() == winners.size() && batch.size() == losers.size())
      << "DpoRationaleLoss batch mismatch";
  Var hidden = TrunkForward(Var(VideoFeatureRows(batch)));
  Var logits = HighlightLogitsVar(hidden, MaskRows(descriptions),
                                  OneHotRows(assessments, 2));
  Var lw = BernoulliSetLogProbVar(logits, winners);
  Var ll = BernoulliSetLogProbVar(logits, losers);

  Var ref_hidden =
      reference.TrunkForward(Var(reference.VideoFeatureRows(batch)));
  Var ref_logits = reference.HighlightLogitsVar(
      ref_hidden, MaskRows(descriptions), OneHotRows(assessments, 2));
  Var ref_lw = BernoulliSetLogProbVar(ref_logits, winners);
  Var ref_ll = BernoulliSetLogProbVar(ref_logits, losers);
  Var ref_delta = Var(tensor::Sub(ref_lw.value(), ref_ll.value()));

  Var delta = ag::Sub(ag::Sub(lw, ll), ref_delta);
  return ag::MeanAll(ag::Softplus(ag::Scale(delta, -beta)));
}

vsd::Result<std::string> FoundationModel::Chat(
    const std::vector<const data::VideoSample*>& videos,
    const std::string& instruction, const std::string& context,
    double temperature, Rng* rng) const {
  if (videos.empty()) {
    return vsd::Status::InvalidArgument("Chat requires at least one video");
  }
  VSD_ASSIGN_OR_RETURN(text::InstructionKind kind,
                       text::ClassifyInstruction(instruction));
  const data::VideoSample& video = *videos[0];
  switch (kind) {
    case text::InstructionKind::kDescribe:
      return Describe(video, temperature, rng).text;
    case text::InstructionKind::kAssess: {
      const AuMask description = text::ParseDescription(context);
      return Assess(video, description, temperature, rng).text;
    }
    case text::InstructionKind::kHighlight: {
      const AuMask description = text::ParseDescription(context);
      auto assessment = text::ParseAssessment(context);
      const int label = assessment.ok()
                            ? assessment.value()
                            : Assess(video, description, 0.0, nullptr).label;
      return Highlight(video, description, label, /*top_m=*/3, temperature,
                       rng)
          .text;
    }
    case text::InstructionKind::kReflectDescribe: {
      const AuMask previous = text::ParseDescription(instruction);
      int ground_truth = -1;
      if (vsd::ContainsIgnoreCase(instruction, "actually not stressed")) {
        ground_truth = 0;
      } else if (vsd::ContainsIgnoreCase(instruction, "actually stressed")) {
        ground_truth = 1;
      }
      return ReflectDescribe(video, previous, ground_truth, temperature, rng)
          .text;
    }
    case text::InstructionKind::kReflectRationale: {
      const AuMask description = text::ParseDescription(context);
      auto assessment = text::ParseAssessment(context);
      const int label = assessment.ok()
                            ? assessment.value()
                            : Assess(video, description, 0.0, nullptr).label;
      // Reflection explores alternatives: a hotter re-ranking.
      return Highlight(video, description, label, /*top_m=*/3,
                       std::max(1.0, temperature * 2.0), rng)
          .text;
    }
    case text::InstructionKind::kVerifyDescribe: {
      const AuMask description = text::ParseDescription(instruction);
      const int pick =
          SelectVideoForDescription(videos, description, temperature, rng);
      return "Video " + std::to_string(pick + 1);
    }
    case text::InstructionKind::kDirectAssess: {
      AssessResult result = Assess(video, AuMask{}, temperature, rng);
      return std::string(result.label == 1 ? "Yes. " : "No. ") + result.text;
    }
  }
  return vsd::Status::Internal("unhandled instruction kind");
}

std::vector<Var> FoundationModel::Parameters() const {
  std::vector<Var> params = VisionParameters();
  for (const auto& p : HeadParameters()) params.push_back(p);
  return params;
}

std::vector<Var> FoundationModel::HeadParameters() const {
  std::vector<Var> params;
  auto append = [&params](const std::vector<Var>& more) {
    params.insert(params.end(), more.begin(), more.end());
  };
  append(trunk_->Parameters());
  append(describe_head_->Parameters());
  append(au_embed_->Parameters());
  append(assess_head_->Parameters());
  append(highlight_head_->Parameters());
  return params;
}

std::vector<Var> FoundationModel::VisionParameters() const {
  return vision_->Parameters();
}

}  // namespace vsd::vlm
