#include "cot/trainer.h"

#include <algorithm>

#include "common/logging.h"
#include "cot/refinement.h"
#include "data/generator.h"
#include "nn/optimizer.h"
#include "tensor/autograd.h"
#include "tensor/tensor.h"

namespace vsd::cot {

namespace ag = ::vsd::autograd;
using face::AuMask;
using face::kNumAus;

namespace {

/// Iterates mini-batches of indices.
template <typename Fn>
void ForEachBatch(int n, int batch_size, Rng* rng, Fn&& fn) {
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng->Shuffle(&order);
  for (int start = 0; start < n; start += batch_size) {
    const int end = std::min(start + batch_size, n);
    fn(std::vector<int>(order.begin() + start, order.begin() + end));
  }
}

}  // namespace

void ChainTrainer::TuneDescribe(vlm::FoundationModel* model,
                                const data::Dataset& raw_au_data,
                                Rng* rng) const {
  // Sample additional annotated frames from each AU-dataset clip.
  const data::Dataset au_data =
      config_.describe_augment_copies > 0
          ? data::AugmentFrames(raw_au_data, config_.describe_augment_copies,
                                rng->Next())
          : raw_au_data;
  nn::Adam opt(model->Parameters(), config_.describe_lr);
  // Every step makes the same tens of MB of vision-tower tensors: reuse
  // their buffers rather than fault fresh pages in each step.
  tensor::StorageReuse reuse;
  for (int epoch = 0; epoch < config_.describe_epochs; ++epoch) {
    ForEachBatch(au_data.size(), config_.batch_size, rng,
                 [&](const std::vector<int>& idx) {
                   std::vector<const data::VideoSample*> batch;
                   std::vector<AuMask> targets;
                   for (int i : idx) {
                     batch.push_back(&au_data.samples[i]);
                     targets.push_back(au_data.samples[i].au_label);
                   }
                   nn::Var loss = model->DescribeLoss(batch, targets,
                                                      /*train_vision=*/true);
                   opt.ZeroGrad();
                   ag::Backward(loss);
                   opt.Step();
                 });
  }
}

double ChainTrainer::TrainAssess(
    vlm::FoundationModel* model, const data::Dataset& train,
    const std::vector<AuMask>& descriptions, Rng* rng) const {
  nn::Adam opt(model->HeadParameters(), config_.assess_lr);
  double last_loss = 0.0;
  for (int epoch = 0; epoch < config_.assess_epochs; ++epoch) {
    double epoch_loss = 0.0;
    int batches = 0;
    ForEachBatch(train.size(), config_.batch_size, rng,
                 [&](const std::vector<int>& idx) {
                   std::vector<const data::VideoSample*> batch;
                   std::vector<AuMask> masks;
                   std::vector<int> labels;
                   for (int i : idx) {
                     batch.push_back(&train.samples[i]);
                     masks.push_back(descriptions[i]);
                     labels.push_back(train.samples[i].stress_label);
                   }
                   nn::Var loss = model->AssessLoss(batch, masks, labels);
                   opt.ZeroGrad();
                   ag::Backward(loss);
                   opt.Step();
                   epoch_loss += loss.value().at(0);
                   ++batches;
                 });
    last_loss = batches > 0 ? epoch_loss / batches : 0.0;
  }
  return last_loss;
}

void ChainTrainer::WarmupHighlight(
    vlm::FoundationModel* model, const data::Dataset& train,
    const std::vector<AuMask>& descriptions, Rng* rng) const {
  // Self-explanation targets: the described AUs whose assess-head
  // sensitivity agrees with the sample's label direction.
  std::vector<AuMask> targets(train.size());
  std::vector<int> assessments(train.size());
  for (int i = 0; i < train.size(); ++i) {
    const auto& sample = train.samples[i];
    const AuMask& description = descriptions[i];
    assessments[i] = sample.stress_label;
    AuMask target{};
    for (int j = 0; j < kNumAus; ++j) {
      if (!description[j]) continue;
      AuMask on = description;
      AuMask off = description;
      on[j] = true;
      off[j] = false;
      const double margin_on = model->AssessProbStressed(sample, on);
      const double margin_off = model->AssessProbStressed(sample, off);
      const double sensitivity = margin_on - margin_off;
      if ((sample.stress_label == 1 && sensitivity > 0) ||
          (sample.stress_label == 0 && sensitivity < 0)) {
        target[j] = true;
      }
    }
    targets[i] = target;
  }
  nn::Adam opt(model->HeadParameters(), config_.highlight_lr);
  for (int epoch = 0; epoch < config_.highlight_warmup_epochs; ++epoch) {
    ForEachBatch(train.size(), config_.batch_size, rng,
                 [&](const std::vector<int>& idx) {
                   std::vector<const data::VideoSample*> batch;
                   std::vector<AuMask> masks;
                   std::vector<int> labels;
                   std::vector<AuMask> batch_targets;
                   for (int i : idx) {
                     batch.push_back(&train.samples[i]);
                     masks.push_back(descriptions[i]);
                     labels.push_back(assessments[i]);
                     batch_targets.push_back(targets[i]);
                   }
                   nn::Var loss = model->HighlightLoss(batch, masks, labels,
                                                       batch_targets);
                   opt.ZeroGrad();
                   ag::Backward(loss);
                   opt.Step();
                 });
  }
}

TrainReport ChainTrainer::Train(vlm::FoundationModel* model,
                                const data::Dataset& au_data,
                                const data::Dataset& stress_train,
                                Rng* rng) const {
  TrainReport report;
  const int n = stress_train.size();
  VSD_CHECK(n > 0) << "empty training set";

  // ---- Stage 1: Describe instruction tuning (Eq. 2). ----
  if (config_.use_chain && config_.learn_describe && au_data.size() > 0) {
    TuneDescribe(model, au_data, rng);
  }

  // ---- Stage 2: freeze vision, cache features. ----
  model->ClearFeatureCache();
  model->PrecomputeFeatures(stress_train);

  // ---- Stage 3: initial descriptions + initial assess training. ----
  std::vector<AuMask> descriptions(n);
  if (config_.use_chain) {
    for (int i = 0; i < n; ++i) {
      descriptions[i] =
          model
              ->Describe(stress_train.samples[i],
                         config_.describe_temperature, rng)
              .mask;
    }
  }
  TrainAssess(model, stress_train, descriptions, rng);

  // ---- Stage 4: description self-refinement + DPO (Eq. 3). ----
  if (config_.use_chain && config_.use_refinement) {
    SelfRefinement refinement(model, config_, &stress_train);
    std::vector<int> pair_index;
    std::vector<AuMask> winners;
    std::vector<AuMask> losers;
    for (int i = 0; i < n; ++i) {
      const auto& sample = stress_train.samples[i];
      const auto outcome = refinement.RefineDescription(
          sample, descriptions[i], sample.stress_label, rng);
      if (outcome.replaced) {
        ++report.refined_descriptions;
        pair_index.push_back(i);
        winners.push_back(outcome.final_mask);
        losers.push_back(outcome.original_mask);
        descriptions[i] = outcome.final_mask;
      }
    }
    report.describe_dpo_pairs = static_cast<int>(winners.size());

    if (!winners.empty()) {
      auto reference = model->Clone();
      nn::Adam opt(model->HeadParameters(), config_.dpo_lr);
      const int pairs = static_cast<int>(winners.size());
      for (int epoch = 0; epoch < config_.dpo_epochs; ++epoch) {
        ForEachBatch(pairs, config_.batch_size, rng,
                     [&](const std::vector<int>& idx) {
                       std::vector<const data::VideoSample*> batch;
                       std::vector<AuMask> w;
                       std::vector<AuMask> l;
                       for (int i : idx) {
                         batch.push_back(
                             &stress_train.samples[pair_index[i]]);
                         w.push_back(winners[i]);
                         l.push_back(losers[i]);
                       }
                       nn::Var loss = model->DpoDescribeLoss(
                           batch, w, l, *reference, config_.dpo_beta);
                       opt.ZeroGrad();
                       ag::Backward(loss);
                       opt.Step();
                     });
      }
    }
  }

  // ---- Stage 5: assess (re-)training on final descriptions (Eq. 4). ----
  report.final_assess_loss =
      TrainAssess(model, stress_train, descriptions, rng);

  // ---- Stage 6: highlight warmup + rationale DPO (Eq. 5). ----
  if (config_.use_chain) {
    WarmupHighlight(model, stress_train, descriptions, rng);
  }
  if (config_.use_chain && config_.use_refinement) {
    SelfRefinement refinement(model, config_, &stress_train);
    const int budget = std::min(n, config_.rationale_dpo_samples);
    const std::vector<int> chosen =
        rng->SampleWithoutReplacement(n, budget);
    std::vector<int> pair_index;
    std::vector<AuMask> winners;
    std::vector<AuMask> losers;
    for (int i : chosen) {
      const auto& sample = stress_train.samples[i];
      const int assessment =
          model->Assess(sample, descriptions[i], 0.0, nullptr).label;
      // Base rationale + n reflected candidates.
      std::vector<std::vector<int>> candidates;
      candidates.push_back(model
                               ->Highlight(sample, descriptions[i],
                                           assessment,
                                           config_.rationale_length,
                                           config_.highlight_temperature,
                                           rng)
                               .ranked_aus);
      for (int c = 0; c < config_.n_rationales; ++c) {
        // Reflection explores alternative rankings (hotter sampling);
        // without reflection this is the same temperature (re-sampling).
        const double temperature =
            config_.use_reflection ? config_.highlight_temperature * 2.0
                                   : config_.highlight_temperature;
        candidates.push_back(model
                                 ->Highlight(sample, descriptions[i],
                                             assessment,
                                             config_.rationale_length,
                                             temperature, rng)
                                 .ranked_aus);
      }
      int best = 0;
      int worst = 0;
      int best_score = 1 << 20;
      int worst_score = -1;
      for (size_t c = 0; c < candidates.size(); ++c) {
        const int score = refinement.RationaleFlipScore(
            sample, descriptions[i], assessment, candidates[c]);
        if (score < best_score) {
          best_score = score;
          best = static_cast<int>(c);
        }
        if (score > worst_score) {
          worst_score = score;
          worst = static_cast<int>(c);
        }
      }
      if (best_score < worst_score) {
        pair_index.push_back(i);
        winners.push_back(face::AuMaskFromIndices(candidates[best]));
        losers.push_back(face::AuMaskFromIndices(candidates[worst]));
      }
    }
    report.rationale_dpo_pairs = static_cast<int>(winners.size());

    if (!winners.empty()) {
      auto reference = model->Clone();
      nn::Adam opt(model->HeadParameters(), config_.dpo_lr);
      const int pairs = static_cast<int>(winners.size());
      std::vector<AuMask> pair_descriptions(pairs);
      std::vector<int> pair_assessments(pairs);
      for (int p = 0; p < pairs; ++p) {
        pair_descriptions[p] = descriptions[pair_index[p]];
        pair_assessments[p] =
            model
                ->Assess(stress_train.samples[pair_index[p]],
                         pair_descriptions[p], 0.0, nullptr)
                .label;
      }
      for (int epoch = 0; epoch < config_.dpo_epochs; ++epoch) {
        ForEachBatch(pairs, config_.batch_size, rng,
                     [&](const std::vector<int>& idx) {
                       std::vector<const data::VideoSample*> batch;
                       std::vector<AuMask> desc;
                       std::vector<int> assess;
                       std::vector<AuMask> w;
                       std::vector<AuMask> l;
                       for (int i : idx) {
                         batch.push_back(
                             &stress_train.samples[pair_index[i]]);
                         desc.push_back(pair_descriptions[i]);
                         assess.push_back(pair_assessments[i]);
                         w.push_back(winners[i]);
                         l.push_back(losers[i]);
                       }
                       nn::Var loss = model->DpoRationaleLoss(
                           batch, desc, assess, w, l, *reference,
                           config_.dpo_beta);
                       opt.ZeroGrad();
                       ag::Backward(loss);
                       opt.Step();
                     });
      }
    }
  }
  return report;
}

}  // namespace vsd::cot
