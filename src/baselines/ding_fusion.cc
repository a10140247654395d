#include "baselines/ding_fusion.h"

#include "common/logging.h"
#include "common/math_util.h"
#include "nn/optimizer.h"
#include "tensor/autograd.h"

namespace vsd::baselines {

namespace ag = ::vsd::autograd;
using nn::Var;
using tensor::Tensor;

DingFusion::DingFusion(const vlm::FoundationModel* vlm, int epochs)
    : vlm_(vlm), epochs_(epochs) {
  VSD_CHECK(vlm_ != nullptr) << "null foundation model";
  feature_dim_ = 2 * vlm_->config().vision_dim + face::kNumAus;
}

std::vector<float> DingFusion::Features(
    const data::VideoSample& sample) const {
  const data::VideoSample* one[] = {&sample};
  return FeatureRows(one).ToVector();
}

tensor::Tensor DingFusion::FeatureRows(
    std::span<const data::VideoSample* const> batch) const {
  const int n = static_cast<int>(batch.size());
  const int vdim = 2 * vlm_->config().vision_dim;
  Tensor rows({n, feature_dim_});
  const vlm::Perception perception = vlm_->Perceive(batch);
  // World-knowledge channel: the frozen VLM's facial-action description
  // probabilities.
  const auto probs = vlm_->DescribeProbsBatch(perception);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < vdim; ++j) {
      rows.at(i, j) = perception.features.at(i, j);
    }
    for (int k = 0; k < face::kNumAus; ++k) {
      rows.at(i, vdim + k) = static_cast<float>(probs[i][k]);
    }
  }
  return rows;
}

void DingFusion::Fit(const data::Dataset& train, Rng* rng) {
  fusion_ = std::make_unique<nn::Mlp>(
      std::vector<int>{feature_dim_, 48, 2}, nn::Activation::kGelu, rng);
  nn::Adam opt(fusion_->Parameters(), 2e-3f);
  const int n = train.size();
  const int batch_size = 32;

  // Cache features once (the VLM is frozen).
  std::vector<std::vector<float>> features(n);
  for (int i = 0; i < n; ++i) features[i] = Features(train.samples[i]);

  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  for (int epoch = 0; epoch < epochs_; ++epoch) {
    rng->Shuffle(&order);
    for (int start = 0; start < n; start += batch_size) {
      const int end = std::min(start + batch_size, n);
      Tensor xs({end - start, feature_dim_});
      std::vector<int> labels(end - start);
      for (int i = start; i < end; ++i) {
        for (int j = 0; j < feature_dim_; ++j) {
          xs.at(i - start, j) = features[order[i]][j];
        }
        labels[i - start] = train.samples[order[i]].stress_label;
      }
      Var loss =
          ag::SoftmaxCrossEntropy(fusion_->Forward(Var(xs)), labels);
      opt.ZeroGrad();
      ag::Backward(loss);
      opt.Step();
    }
  }
}

double DingFusion::PredictProbStressed(
    const data::VideoSample& sample) const {
  const data::VideoSample* one[] = {&sample};
  return PredictProbStressedBatch(one).front();
}

std::vector<double> DingFusion::PredictProbStressedBatch(
    std::span<const data::VideoSample* const> batch) const {
  Var logits = fusion_->Forward(Var(FeatureRows(batch)));
  std::vector<double> probs(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const int row = static_cast<int>(i);
    probs[i] = vsd::Sigmoid(logits.value().at(row, 1) -
                            logits.value().at(row, 0));
  }
  return probs;
}

}  // namespace vsd::baselines
