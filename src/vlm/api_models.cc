#include "vlm/api_models.h"

#include "common/logging.h"
#include "data/generator.h"
#include "nn/optimizer.h"
#include "tensor/autograd.h"
#include "tensor/tensor.h"
#include "vlm/quantize.h"

namespace vsd::vlm {

namespace ag = ::vsd::autograd;
using face::AuMask;
using face::kNumAus;

const char* ApiModelName(ApiModelKind kind) {
  switch (kind) {
    case ApiModelKind::kGpt4o:
      return "GPT-4o (sim)";
    case ApiModelKind::kClaude35:
      return "Claude-3.5 (sim)";
    case ApiModelKind::kGemini15:
      return "Gemini-1.5 (sim)";
  }
  return "unknown";
}

ApiModelSpec GetApiModelSpec(ApiModelKind kind) {
  ApiModelSpec spec;
  switch (kind) {
    case ApiModelKind::kGpt4o:
      spec.config = {48, 96, 24, /*seed=*/1001, /*bias=*/0.85f};
      spec.label_corruption = 0.18;
      spec.pretrain_epochs = 8;
      spec.corpus_size = 700;
      break;
    case ApiModelKind::kClaude35:
      spec.config = {40, 80, 24, /*seed=*/1002, /*bias=*/1.15f};
      spec.label_corruption = 0.15;
      spec.pretrain_epochs = 7;
      spec.corpus_size = 550;
      break;
    case ApiModelKind::kGemini15:
      spec.config = {40, 72, 24, /*seed=*/1003, /*bias=*/1.1f};
      spec.label_corruption = 0.26;
      spec.pretrain_epochs = 6;
      spec.corpus_size = 550;
      break;
  }
  return spec;
}

ApiModelSpec BackboneInitSpec() {
  ApiModelSpec spec;
  spec.config = {48, 96, 24, /*seed=*/1000, /*bias=*/0.0f};
  spec.label_corruption = 0.06;
  spec.pretrain_epochs = 10;
  spec.corpus_size = 800;
  return spec;
}

int NegativityProxyLabel(const AuMask& au_label) {
  // Prototypical *basic negative emotion* units: AU9 (disgust), AU15
  // (sadness), AU20 (fear), AU4 together with AU5 (anger) — catalog
  // indices 5, 7, 9, and (2 & 3). Enjoyment: AU6/AU12 (indices 4, 6).
  //
  // Deliberately NOT the stress signature: stress in the wild also loads
  // on AU1/AU4-alone/AU17, which generic emotion pretraining does not
  // treat as negative. This proxy mismatch is what caps the zero-shot
  // API models at the paper's 60-76% band.
  int negative = au_label[5] + au_label[7] + au_label[9] +
                 (au_label[2] && au_label[3] ? 1 : 0);
  int enjoyment = au_label[4] + au_label[6];
  return negative > enjoyment ? 1 : 0;
}

void PretrainGeneralist(FoundationModel* model, const ApiModelSpec& spec,
                        uint64_t seed) {
  Rng rng(seed);
  data::Dataset corpus =
      data::MakeWebEmotionCorpus(seed ^ 0xABCDEF, spec.corpus_size);

  // Corrupted AU annotations (annotation fidelity differs per service).
  std::vector<AuMask> noisy_labels(corpus.size());
  for (int i = 0; i < corpus.size(); ++i) {
    noisy_labels[i] = corpus.samples[i].au_label;
    for (int j = 0; j < kNumAus; ++j) {
      if (rng.Bernoulli(spec.label_corruption)) {
        noisy_labels[i][j] = !noisy_labels[i][j];
      }
    }
  }

  // Stage 1: describe instruction tuning, vision tower unfrozen. Its steps
  // reuse one another's large tensor buffers instead of faulting in fresh
  // pages each step.
  {
    nn::Adam opt(model->Parameters(), /*lr=*/2e-3f);
    tensor::StorageReuse reuse;
    const int batch_size = 32;
    std::vector<int> order(corpus.size());
    for (int i = 0; i < corpus.size(); ++i) order[i] = i;
    for (int epoch = 0; epoch < spec.pretrain_epochs; ++epoch) {
      rng.Shuffle(&order);
      for (int start = 0; start < corpus.size(); start += batch_size) {
        std::vector<const data::VideoSample*> batch;
        std::vector<AuMask> targets;
        for (int i = start;
             i < std::min(start + batch_size, corpus.size()); ++i) {
          batch.push_back(&corpus.samples[order[i]]);
          targets.push_back(noisy_labels[order[i]]);
        }
        nn::Var loss = model->DescribeLoss(batch, targets,
                                           /*train_vision=*/true);
        opt.ZeroGrad();
        ag::Backward(loss);
        opt.Step();
      }
    }
  }

  // Stage 2: assess head on the negativity proxy, vision frozen. The
  // description channel is trained on the model's OWN describe outputs
  // (self-consistency): at inference the chain conditions on generated
  // descriptions, so the assess head must be calibrated to them, not to
  // gold annotations it will never see again.
  model->PrecomputeFeatures(corpus);
  std::vector<AuMask> own_descriptions(corpus.size());
  for (int i = 0; i < corpus.size(); ++i) {
    const auto probs = model->DescribeProbs(corpus.samples[i]);
    for (int j = 0; j < kNumAus; ++j) {
      own_descriptions[i][j] = probs[j] > 0.5;
    }
  }
  {
    nn::Adam opt(model->HeadParameters(), /*lr=*/2e-3f);
    const int batch_size = 32;
    std::vector<int> order(corpus.size());
    for (int i = 0; i < corpus.size(); ++i) order[i] = i;
    for (int epoch = 0; epoch < spec.pretrain_epochs; ++epoch) {
      rng.Shuffle(&order);
      for (int start = 0; start < corpus.size(); start += batch_size) {
        std::vector<const data::VideoSample*> batch;
        std::vector<AuMask> descriptions;
        std::vector<int> labels;
        std::vector<AuMask> highlight_targets;
        std::vector<int> assessments;
        for (int i = start;
             i < std::min(start + batch_size, corpus.size()); ++i) {
          const auto& sample = corpus.samples[order[i]];
          batch.push_back(&sample);
          // Generalist pretraining overwhelmingly teaches "reason over
          // stated evidence" rather than snap affect judgments from raw
          // video, so the description-conditioned path sees ~70% of the
          // examples and the direct (empty-description) path only ~30% —
          // which is why the chain lifts these models at test time
          // (Table VIII) while their direct zero-shot verdicts lag.
          descriptions.push_back(rng.Bernoulli(0.7)
                                     ? own_descriptions[order[i]]
                                     : AuMask{});
          labels.push_back(NegativityProxyLabel(sample.au_label));
          // Highlight warmup: emphasize the described tension/enjoyment
          // AUs that determine the proxy label.
          AuMask target{};
          for (int j = 0; j < kNumAus; ++j) {
            if (noisy_labels[order[i]][j]) target[j] = true;
          }
          highlight_targets.push_back(target);
          assessments.push_back(labels.back());
        }
        nn::Var loss = ag::Add(
            model->AssessLoss(batch, descriptions, labels),
            ag::Scale(model->HighlightLoss(batch, descriptions, assessments,
                                           highlight_targets),
                      0.5f));
        opt.ZeroGrad();
        ag::Backward(loss);
        opt.Step();
      }
    }
  }
  model->ClearFeatureCache();  // corpus features are not needed downstream
}

std::unique_ptr<FoundationModel> MakePretrainedApiModel(ApiModelKind kind,
                                                        uint64_t seed) {
  ApiModelSpec spec = GetApiModelSpec(kind);
  spec.config.seed ^= seed;
  auto model = std::make_unique<FoundationModel>(spec.config);
  PretrainGeneralist(model.get(), spec, seed * 7919 + 13);
  // The API simulations are frozen after pretraining (they are never
  // fine-tuned), so they are eligible for int8 weight storage.
  if (QuantEnabled()) QuantizeFrozenModel(model.get());
  return model;
}

}  // namespace vsd::vlm
