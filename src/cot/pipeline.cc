#include "cot/pipeline.h"

#include <cmath>

#include "common/faults.h"
#include "common/logging.h"
#include "cot/refinement.h"
#include "text/templates.h"
#include "vlm/vision.h"

namespace vsd::cot {

using face::AuMask;

namespace {

/// Highlight on a batch-of-1 perception; a null `rng` is greedy.
vlm::HighlightResult HighlightOne(const vlm::FoundationModel& model,
                                  const vlm::Perception& perception,
                                  const AuMask& description, int assessment,
                                  int top_m, double temperature, Rng* rng) {
  return model
      .HighlightBatch(perception, {&description, 1}, {&assessment, 1}, top_m,
                      temperature, {&rng, 1})
      .front();
}

}  // namespace

std::string ChainOutput::Transcript() const {
  return describe.text + "\n" + assess.text + "\n" + highlight.text;
}

ChainPipeline::ChainPipeline(const vlm::FoundationModel* model,
                             const ChainConfig& config)
    : model_(model), config_(config) {
  VSD_CHECK(model_ != nullptr) << "null model";
}

std::vector<AuMask> ChainPipeline::GreedyDescriptions(
    const vlm::Perception& perception) const {
  std::vector<AuMask> masks(perception.size());
  if (!config_.use_chain) return masks;
  const auto probs = model_->DescribeProbsBatch(perception);
  for (size_t i = 0; i < masks.size(); ++i) {
    for (int j = 0; j < face::kNumAus; ++j) masks[i][j] = probs[i][j] > 0.5;
  }
  return masks;
}

ChainOutput ChainPipeline::Run(const data::VideoSample& sample,
                               Rng* rng) const {
  const data::VideoSample* one[] = {&sample};
  Rng* rngs[] = {rng};
  return RunBatch(one, std::span<Rng* const>(rngs)).front();
}

std::vector<ChainOutput> ChainPipeline::RunBatch(
    vlm::FoundationModel::SampleSpan batch,
    std::span<Rng* const> rngs) const {
  VSD_CHECK(rngs.empty() || rngs.size() == batch.size())
      << "RunBatch rng mismatch";
  const vlm::Perception perception = model_->Perceive(batch);
  const std::vector<AuMask> descriptions = GreedyDescriptions(perception);
  const std::vector<double> log_probs =
      model_->DescriptionLogProbBatch(perception, descriptions);
  const std::vector<vlm::AssessResult> assessments = model_->AssessBatch(
      perception, descriptions, /*temperature=*/0.0, {});
  std::vector<int> labels(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) labels[i] = assessments[i].label;
  // A null per-sample stream makes Highlight greedy (argmax) regardless of
  // temperature, so passing the sampling temperature alongside null
  // streams reproduces the single-sample `rng == nullptr ? 0.0 : ...`
  // selection exactly.
  const std::vector<vlm::HighlightResult> highlights = model_->HighlightBatch(
      perception, descriptions, labels, config_.rationale_length,
      rngs.empty() ? 0.0 : config_.highlight_temperature, rngs);
  std::vector<ChainOutput> outs(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    outs[i].describe.mask = descriptions[i];
    outs[i].describe.text = text::RenderDescription(descriptions[i]);
    outs[i].describe.log_prob = log_probs[i];
    outs[i].assess = assessments[i];
    outs[i].highlight = highlights[i];
  }
  return outs;
}

std::vector<ChainOutput> ChainPipeline::RunBatch(
    vlm::FoundationModel::SampleSpan batch, Rng* rng) const {
  if (rng == nullptr) return RunBatch(batch, std::span<Rng* const>());
  std::vector<Rng> streams;
  streams.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) streams.push_back(rng->Fork());
  std::vector<Rng*> stream_ptrs(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) stream_ptrs[i] = &streams[i];
  return RunBatch(batch, stream_ptrs);
}

int ChainPipeline::PredictLabel(const data::VideoSample& sample) const {
  const data::VideoSample* one[] = {&sample};
  return PredictLabelBatch(one).front();
}

double ChainPipeline::PredictProbStressed(
    const data::VideoSample& sample) const {
  const data::VideoSample* one[] = {&sample};
  return PredictBatch(one).front();
}

std::vector<double> ChainPipeline::PredictBatch(
    vlm::FoundationModel::SampleSpan batch) const {
  const vlm::Perception perception = model_->Perceive(batch);
  return model_->AssessProbStressedBatch(perception,
                                         GreedyDescriptions(perception));
}

std::vector<vsd::Result<double>> ChainPipeline::TryPredictBatch(
    vlm::FoundationModel::SampleSpan batch) const {
  std::vector<vsd::Result<double>> out;
  out.reserve(batch.size());
  FaultInjector& injector = FaultInjector::Global();
  // Per-sample gate: validation, per-frame injected faults (keyed by frame
  // content), and a per-sample pipeline transient (keyed by sample id).
  std::vector<int> valid;
  valid.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const data::VideoSample* sample = batch[i];
    if (sample == nullptr) {
      out.push_back(Status::InvalidArgument("sample is null"));
      continue;
    }
    Status st = data::ValidateSample(*sample);
    if (st.ok()) st = vlm::VisionTower::ProbeFrameFaults(sample->expressive_frame);
    if (st.ok()) st = vlm::VisionTower::ProbeFrameFaults(sample->neutral_frame);
    if (st.ok() && injector.enabled() &&
        injector.ShouldInject(FaultKind::kTransient, "cot.pipeline",
                              static_cast<uint64_t>(sample->id))) {
      st = Status::Internal("injected transient fault at cot.pipeline");
    }
    if (!st.ok()) {
      out.push_back(std::move(st));
      continue;
    }
    out.push_back(0.0);  // Placeholder; filled from the forward below.
    valid.push_back(static_cast<int>(i));
  }
  if (valid.empty()) return out;
  // One forward over the valid subset. When every sample is valid this is
  // the untouched span, so the values are bit-identical to PredictBatch.
  std::vector<const data::VideoSample*> run;
  run.reserve(valid.size());
  for (int i : valid) run.push_back(batch[i]);
  const std::vector<double> probs = PredictBatch(run);
  for (size_t k = 0; k < valid.size(); ++k) {
    if (std::isfinite(probs[k])) {
      out[valid[k]] = probs[k];
    } else {
      out[valid[k]] =
          Status::Internal("non-finite stress probability for sample " +
                           std::to_string(batch[valid[k]]->id));
    }
  }
  return out;
}

vsd::Result<double> ChainPipeline::TryPredictProbStressed(
    const data::VideoSample& sample) const {
  const data::VideoSample* one[] = {&sample};
  return TryPredictBatch(one).front();
}

std::vector<int> ChainPipeline::PredictLabelBatch(
    vlm::FoundationModel::SampleSpan batch) const {
  const vlm::Perception perception = model_->Perceive(batch);
  const std::vector<vlm::AssessResult> assessments = model_->AssessBatch(
      perception, GreedyDescriptions(perception), /*temperature=*/0.0, {});
  std::vector<int> labels(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) labels[i] = assessments[i].label;
  return labels;
}

ChainOutput ChainPipeline::RunWithExample(const data::VideoSample& sample,
                                          int example_label,
                                          double similarity,
                                          Rng* rng) const {
  const data::VideoSample* one[] = {&sample};
  const vlm::Perception perception = model_->Perceive(one);
  ChainOutput out;
  const AuMask description = GreedyDescriptions(perception).front();
  out.describe.mask = description;
  out.describe.text = text::RenderDescription(description);
  out.assess = model_->AssessWithExample(perception, description,
                                         example_label, similarity,
                                         /*temperature=*/0.0, nullptr);
  out.highlight = HighlightOne(
      *model_, perception, description, out.assess.label,
      config_.rationale_length,
      rng != nullptr ? config_.highlight_temperature : 0.0, rng);
  return out;
}

ChainOutput ChainPipeline::RunWithTestTimeRefinement(
    const data::VideoSample& sample, const data::Dataset& pool,
    Rng* rng) const {
  SelfRefinement refinement(model_, config_, &pool);
  const data::VideoSample* one[] = {&sample};
  const vlm::Perception perception = model_->Perceive(one);
  AuMask description = GreedyDescriptions(perception).front();
  // No ground truth at test time: only the faithfulness gate applies.
  const auto outcome =
      refinement.RefineDescription(sample, description, /*true_label=*/-1,
                                   rng);
  description = outcome.final_mask;

  ChainOutput out;
  out.describe.mask = description;
  out.describe.text = text::RenderDescription(description);
  out.assess = model_
                   ->AssessBatch(perception, {&description, 1},
                                 /*temperature=*/0.0, {})
                   .front();
  out.highlight = HighlightOne(*model_, perception, description,
                               out.assess.label, config_.rationale_length,
                               config_.highlight_temperature, rng);
  return out;
}

}  // namespace vsd::cot
