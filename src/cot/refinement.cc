#include "cot/refinement.h"

#include <algorithm>

#include "common/logging.h"
#include "face/renderer.h"
#include "img/image.h"

namespace vsd::cot {

using face::AuMask;

SelfRefinement::SelfRefinement(const vlm::FoundationModel* model,
                               const ChainConfig& config,
                               const data::Dataset* pool)
    : model_(model), config_(config), pool_(pool) {
  VSD_CHECK(model_ != nullptr) << "null model";
  VSD_CHECK(pool_ != nullptr && pool_->size() > 0) << "empty pool";
}

double SelfRefinement::Helpfulness(const data::VideoSample& sample,
                                   const AuMask& description, int true_label,
                                   Rng* rng) const {
  // One forward over K copies; AssessBatch draws from the shared `rng` in
  // index order, exactly as K sequential Assess calls would.
  const std::vector<const data::VideoSample*> copies(config_.k_repeats,
                                                     &sample);
  const std::vector<AuMask> descriptions(config_.k_repeats, description);
  const std::vector<Rng*> rngs(config_.k_repeats, rng);
  int correct = 0;
  for (const auto& result :
       model_->AssessBatch(copies, descriptions,
                           config_.assess_sample_temperature, rngs)) {
    correct += (result.label == true_label);
  }
  return static_cast<double>(correct) / config_.k_repeats;
}

std::vector<const data::VideoSample*> SelfRefinement::DrawNegatives(
    const data::VideoSample& sample, Rng* rng) const {
  std::vector<const data::VideoSample*> negatives;
  const int wanted = config_.num_verification_choices - 1;
  int guard = 0;
  while (static_cast<int>(negatives.size()) < wanted &&
         guard < 100 * wanted) {
    ++guard;
    const auto& candidate = pool_->samples[rng->UniformInt(pool_->size())];
    if (candidate.subject_id == sample.subject_id) continue;
    negatives.push_back(&candidate);
  }
  // Degenerate pools (single subject) fall back to any other sample.
  while (static_cast<int>(negatives.size()) < wanted) {
    const auto& candidate = pool_->samples[rng->UniformInt(pool_->size())];
    if (candidate.id == sample.id) continue;
    negatives.push_back(&candidate);
  }
  return negatives;
}

double SelfRefinement::Faithfulness(const data::VideoSample& sample,
                                    const AuMask& description,
                                    Rng* rng) const {
  int correct = 0;
  for (int k = 0; k < config_.k_repeats; ++k) {
    auto candidates = DrawNegatives(sample, rng);
    // Insert the true video at a random position (a fresh "dialogue", so
    // the model cannot rely on history).
    const int true_pos =
        rng->UniformInt(static_cast<int>(candidates.size()) + 1);
    candidates.insert(candidates.begin() + true_pos, &sample);
    const int picked = model_->SelectVideoForDescription(
        candidates, description, config_.verify_temperature, rng);
    correct += (picked == true_pos);
  }
  return static_cast<double>(correct) / config_.k_repeats;
}

SelfRefinement::RefineOutcome SelfRefinement::RefineDescription(
    const data::VideoSample& sample, const AuMask& initial, int true_label,
    Rng* rng) const {
  RefineOutcome outcome;
  outcome.original_mask = initial;
  outcome.final_mask = initial;

  const bool score_helpfulness = (true_label == 0 || true_label == 1);
  double h = score_helpfulness
                 ? Helpfulness(sample, initial, true_label, rng)
                 : 0.0;
  double f = Faithfulness(sample, initial, rng);

  for (int round = 0; round < config_.max_refine_rounds; ++round) {
    outcome.rounds = round + 1;
    AuMask candidate;
    if (config_.use_reflection) {
      candidate = model_
                      ->ReflectDescribe(sample, outcome.final_mask,
                                        true_label,
                                        config_.describe_temperature, rng)
                      .mask;
    } else {
      // "w/o Reflection": plain re-sampling from I1.
      candidate =
          model_->Describe(sample, config_.describe_temperature, rng).mask;
    }
    if (candidate == outcome.final_mask) break;

    const double h_new = score_helpfulness
                             ? Helpfulness(sample, candidate, true_label,
                                           rng)
                             : 0.0;
    const double f_new = Faithfulness(sample, candidate, rng);
    // Training time (Algorithm 1, line 6): accept when the candidate is
    // no worse on either axis (ties accepted; the uncertainty-gated
    // reflection keeps tied candidates anchored to the visual evidence).
    // Test time (Sec. IV-G): no helpfulness signal exists and the paper
    // replaces only when the new description is *more* faithful — a
    // strict gate, otherwise tie-acceptance degenerates to a random walk.
    const bool accept = score_helpfulness
                            ? (h_new >= h && f_new >= f)
                            : (f_new > f);
    if (accept) {
      outcome.final_mask = candidate;
      outcome.replaced = true;
      h = h_new;
      f = f_new;
    } else {
      break;  // do-while exit: candidate is worse on some axis
    }
  }
  return outcome;
}

int SelfRefinement::RationaleFlipScore(const data::VideoSample& sample,
                                       const AuMask& description,
                                       int assessment,
                                       const std::vector<int>& rationale)
    const {
  img::Image perturbed = sample.expressive_frame;
  int removed = 0;
  for (int au : rationale) {
    const auto mask = face::RegionMask(face::GetAu(au).region);
    img::MosaicMaskedRegion(&perturbed, mask, /*block=*/8);
    ++removed;
    const double p = model_->AssessProbStressedWithFrames(
        perturbed, sample.neutral_frame, description);
    const int decision = p >= 0.5 ? 1 : 0;
    if (decision != assessment) return removed;
  }
  return static_cast<int>(rationale.size()) + 1;
}

}  // namespace vsd::cot
