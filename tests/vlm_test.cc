#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "common/rng.h"
#include "data/generator.h"
#include "nn/optimizer.h"
#include "tensor/autograd.h"
#include "tensor/tensor.h"
#include "text/instructions.h"
#include "text/templates.h"
#include "vlm/api_models.h"
#include "vlm/foundation_model.h"
#include "vlm/vision.h"

namespace vsd::vlm {
namespace {

namespace ag = ::vsd::autograd;
using face::AuMask;

FoundationModelConfig SmallConfig(uint64_t seed = 1) {
  FoundationModelConfig config;
  config.vision_dim = 16;
  config.hidden_dim = 32;
  config.au_feature_dim = 12;
  config.seed = seed;
  return config;
}

class VlmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = data::MakeUvsdSimSmall(40, 21);
    model_ = std::make_unique<FoundationModel>(SmallConfig());
    model_->PrecomputeFeatures(dataset_);
  }
  data::Dataset dataset_;
  std::unique_ptr<FoundationModel> model_;
};

TEST_F(VlmTest, VisionTowerShapes) {
  Rng rng(2);
  VisionTower tower(24, &rng);
  auto embed = tower.Embed(dataset_.samples[0].expressive_frame);
  EXPECT_EQ(embed.size(), 24);
  auto pair = tower.EmbedPair(dataset_.samples[0].expressive_frame,
                              dataset_.samples[0].neutral_frame);
  EXPECT_EQ(pair.size(), 48);
}

TEST_F(VlmTest, FeatureCacheMatchesDirectComputation) {
  FoundationModel fresh(SmallConfig());
  const auto& sample = dataset_.samples[0];
  auto direct = fresh.VideoFeature(sample);  // no cache
  fresh.PrecomputeFeatures(dataset_);
  auto cached = fresh.VideoFeature(sample);
  for (int i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct.at(i), cached.at(i));
  }
}

// Every training loss stacks its features through VideoFeatureRows, which
// copies cache hits and embeds all misses in one packed forward; each row
// must still be bit-identical to the per-sample VideoFeature.
TEST_F(VlmTest, VideoFeatureRowsMatchVideoFeatureBitForBit) {
  FoundationModel model(SmallConfig());
  data::Dataset half;
  half.samples.assign(dataset_.samples.begin(),
                      dataset_.samples.begin() + dataset_.size() / 2);
  model.PrecomputeFeatures(half);
  // Cached (< 20) and uncached (>= 20) samples interleaved, with a cached
  // and an uncached sample each repeated.
  const std::vector<int> picks = {0, 25, 3, 31, 3, 39, 19, 20, 25};
  std::vector<const data::VideoSample*> batch;
  for (int i : picks) batch.push_back(&dataset_.samples[i]);
  const tensor::Tensor rows = model.VideoFeatureRows(batch);
  ASSERT_EQ(rows.dim(0), static_cast<int>(picks.size()));
  for (size_t r = 0; r < batch.size(); ++r) {
    const tensor::Tensor expected = model.VideoFeature(*batch[r]);
    ASSERT_EQ(rows.dim(1), expected.size());
    EXPECT_EQ(std::memcmp(rows.data() + r * rows.dim(1), expected.data(),
                          sizeof(float) * expected.size()),
              0)
        << "row " << r << " (sample " << picks[r] << ")";
  }
}

TEST_F(VlmTest, DescribeProbsAreProbabilities) {
  const auto probs = model_->DescribeProbs(dataset_.samples[0]);
  ASSERT_EQ(probs.size(), static_cast<size_t>(face::kNumAus));
  for (double p : probs) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST_F(VlmTest, DescribeLogProbConsistent) {
  Rng rng(3);
  const auto& sample = dataset_.samples[1];
  const auto result = model_->Describe(sample, 1.0, &rng);
  EXPECT_NEAR(result.log_prob,
              model_->DescriptionLogProb(sample, result.mask), 1e-9);
  EXPECT_LE(result.log_prob, 0.0);
}

TEST_F(VlmTest, DescribeTemperatureZeroIsNearGreedy) {
  Rng rng(4);
  const auto& sample = dataset_.samples[2];
  const auto probs = model_->DescribeProbs(sample);
  const auto result = model_->Describe(sample, 1e-6, &rng);
  for (int j = 0; j < face::kNumAus; ++j) {
    EXPECT_EQ(result.mask[j], probs[j] > 0.5);
  }
}

TEST_F(VlmTest, AssessGreedyMatchesProbability) {
  const auto& sample = dataset_.samples[3];
  AuMask description{};
  description[0] = true;
  const auto result = model_->Assess(sample, description, 0.0, nullptr);
  const double p = model_->AssessProbStressed(sample, description);
  EXPECT_EQ(result.label, p >= 0.5 ? 1 : 0);
  EXPECT_NEAR(result.prob_stressed, p, 1e-9);
}

TEST_F(VlmTest, AssessBatchDrawsAliasedStreamInIndexOrder) {
  // Self-refinement scores helpfulness with one AssessBatch over K copies
  // of a sample that share one stream; it must draw exactly what K
  // sequential Assess calls draw.
  const auto& sample = dataset_.samples[4];
  AuMask description{};
  description[2] = true;
  constexpr int kRepeats = 5;
  Rng batched_rng(17);
  const std::vector<const data::VideoSample*> copies(kRepeats, &sample);
  const std::vector<AuMask> descriptions(kRepeats, description);
  const std::vector<Rng*> rngs(kRepeats, &batched_rng);
  const auto batched = model_->AssessBatch(copies, descriptions, 1.0, rngs);
  Rng sequential_rng(17);
  for (int k = 0; k < kRepeats; ++k) {
    const auto single =
        model_->Assess(sample, description, 1.0, &sequential_rng);
    EXPECT_EQ(batched[k].label, single.label) << "repeat " << k;
    EXPECT_EQ(batched[k].prob_stressed, single.prob_stressed)
        << "repeat " << k;
  }
  EXPECT_EQ(batched_rng.Next(), sequential_rng.Next());
}

TEST_F(VlmTest, AssessWithFramesMatchesCachedForCleanFrames) {
  const auto& sample = dataset_.samples[4];
  AuMask description{};
  const double cached = model_->AssessProbStressed(sample, description);
  const double direct = model_->AssessProbStressedWithFrames(
      sample.expressive_frame, sample.neutral_frame, description);
  EXPECT_NEAR(cached, direct, 1e-6);
}

TEST_F(VlmTest, InContextExampleShiftsDecision) {
  const auto& sample = dataset_.samples[5];
  AuMask description{};
  const auto base = model_->Assess(sample, description, 0.0, nullptr);
  const auto pushed_up = model_->AssessWithExample(
      sample, description, /*example_label=*/1, /*similarity=*/1.0, 0.0,
      nullptr);
  const auto pushed_down = model_->AssessWithExample(
      sample, description, /*example_label=*/0, /*similarity=*/1.0, 0.0,
      nullptr);
  EXPECT_GT(pushed_up.prob_stressed, base.prob_stressed);
  EXPECT_LT(pushed_down.prob_stressed, base.prob_stressed);
  // Zero similarity = no shift.
  const auto neutral = model_->AssessWithExample(sample, description, 1,
                                                 0.0, 0.0, nullptr);
  EXPECT_NEAR(neutral.prob_stressed, base.prob_stressed, 1e-6);
}

TEST_F(VlmTest, HighlightRestrictedToDescription) {
  Rng rng(6);
  AuMask description{};
  description[2] = description[7] = description[9] = true;
  const auto result = model_->Highlight(dataset_.samples[6], description, 1,
                                        /*top_m=*/2, 0.7, &rng);
  EXPECT_EQ(result.ranked_aus.size(), 2u);
  for (int au : result.ranked_aus) EXPECT_TRUE(description[au]);
  // No duplicates.
  EXPECT_NE(result.ranked_aus[0], result.ranked_aus[1]);
}

TEST_F(VlmTest, HighlightEmptyDescriptionUsesAllAus) {
  Rng rng(7);
  const auto result = model_->Highlight(dataset_.samples[7], AuMask{}, 0,
                                        /*top_m=*/3, 0.7, &rng);
  EXPECT_EQ(result.ranked_aus.size(), 3u);
}

TEST_F(VlmTest, SelectVideoGreedyPicksHighestLikelihood) {
  std::vector<const data::VideoSample*> candidates;
  for (int i = 0; i < 4; ++i) candidates.push_back(&dataset_.samples[i]);
  AuMask description{};
  description[0] = description[4] = true;
  const int pick =
      model_->SelectVideoForDescription(candidates, description, 0.0,
                                        nullptr);
  double best = -1e30;
  int expected = -1;
  for (int i = 0; i < 4; ++i) {
    const double lp =
        model_->DescriptionLogProb(*candidates[i], description);
    if (lp > best) {
      best = lp;
      expected = i;
    }
  }
  EXPECT_EQ(pick, expected);
}

TEST_F(VlmTest, CloneProducesIdenticalBehaviour) {
  auto clone = model_->Clone();
  const auto& sample = dataset_.samples[8];
  EXPECT_EQ(model_->DescriptionLogProb(sample, AuMask{}),
            clone->DescriptionLogProb(sample, AuMask{}));
  // Diverges after training the clone.
  nn::Adam opt(clone->HeadParameters(), 0.05f);
  std::vector<const data::VideoSample*> batch = {&sample};
  nn::Var loss = clone->AssessLoss(batch, {AuMask{}}, {1});
  opt.ZeroGrad();
  ag::Backward(loss);
  opt.Step();
  EXPECT_NE(model_->AssessProbStressed(sample, AuMask{}),
            clone->AssessProbStressed(sample, AuMask{}));
}

TEST_F(VlmTest, DescribeLossDecreasesWithTraining) {
  FoundationModel model(SmallConfig(9));
  data::Dataset au_data = data::MakeDisfaSim(5, 60);
  std::vector<const data::VideoSample*> batch;
  std::vector<AuMask> targets;
  for (const auto& sample : au_data.samples) {
    batch.push_back(&sample);
    targets.push_back(sample.au_label);
  }
  nn::Adam opt(model.Parameters(), 2e-3f);
  const float initial =
      model.DescribeLoss(batch, targets, true).value().at(0);
  for (int step = 0; step < 30; ++step) {
    nn::Var loss = model.DescribeLoss(batch, targets, true);
    opt.ZeroGrad();
    ag::Backward(loss);
    opt.Step();
  }
  const float trained =
      model.DescribeLoss(batch, targets, true).value().at(0);
  EXPECT_LT(trained, initial * 0.7f);
}

/// The model's weights after three describe steps at batch 32 with the
/// vision tower unfrozen, as ChainTrainer::TuneDescribe takes them, with or
/// without a StorageReuse scope around the steps.
std::vector<float> WeightsAfterThreeDescribeSteps(bool reuse_storage) {
  FoundationModel model(SmallConfig(13));
  const data::Dataset au_data = data::MakeDisfaSim(6, 32);
  std::vector<const data::VideoSample*> batch;
  std::vector<AuMask> targets;
  for (const auto& sample : au_data.samples) {
    batch.push_back(&sample);
    targets.push_back(sample.au_label);
  }
  nn::Adam opt(model.Parameters(), 2e-3f);
  std::unique_ptr<tensor::StorageReuse> scope;
  if (reuse_storage) scope = std::make_unique<tensor::StorageReuse>();
  for (int step = 0; step < 3; ++step) {
    nn::Var loss = model.DescribeLoss(batch, targets, /*train_vision=*/true);
    opt.ZeroGrad();
    ag::Backward(loss);
    opt.Step();
  }
  if (reuse_storage) {
    EXPECT_GT(scope->cached(), 0u);
  }
  return model.StateVector();
}

TEST(StorageReuseTrainingTest, DescribeStepsInAScopeMatchBitForBit) {
  const std::vector<float> plain = WeightsAfterThreeDescribeSteps(false);
  const std::vector<float> reused = WeightsAfterThreeDescribeSteps(true);
  ASSERT_EQ(plain.size(), reused.size());
  EXPECT_EQ(std::memcmp(plain.data(), reused.data(),
                        plain.size() * sizeof(float)),
            0);
}

TEST_F(VlmTest, DpoDescribeLossMovesPolicyTowardWinners) {
  // After DPO steps, winner log-prob should grow relative to loser.
  auto reference = model_->Clone();
  std::vector<const data::VideoSample*> batch;
  std::vector<AuMask> winners;
  std::vector<AuMask> losers;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(&dataset_.samples[i]);
    AuMask winner{};
    winner[2] = winner[7] = true;
    AuMask loser{};
    loser[4] = loser[6] = true;
    winners.push_back(winner);
    losers.push_back(loser);
  }
  auto margin = [&](const FoundationModel& m) {
    double total = 0.0;
    for (int i = 0; i < 10; ++i) {
      total += m.DescriptionLogProb(*batch[i], winners[i]) -
               m.DescriptionLogProb(*batch[i], losers[i]);
    }
    return total;
  };
  const double before = margin(*model_);
  nn::Adam opt(model_->HeadParameters(), 5e-3f);
  for (int step = 0; step < 20; ++step) {
    nn::Var loss =
        model_->DpoDescribeLoss(batch, winners, losers, *reference, 0.1f);
    opt.ZeroGrad();
    ag::Backward(loss);
    opt.Step();
  }
  EXPECT_GT(margin(*model_), before);
}

TEST_F(VlmTest, BernoulliSetLogProbMatchesScalarPath) {
  const auto& sample = dataset_.samples[9];
  AuMask mask{};
  mask[1] = mask[5] = mask[10] = true;
  tensor::Tensor feature = model_->VideoFeature(sample);
  nn::Var logits = model_->DescribeLogitsVar(model_->TrunkForward(
      nn::Var(feature.Reshape({1, feature.size()}))));
  nn::Var lp = FoundationModel::BernoulliSetLogProbVar(logits, {mask});
  EXPECT_NEAR(lp.value().at(0), model_->DescriptionLogProb(sample, mask),
              1e-4);
}

TEST_F(VlmTest, ChatRoutesDescribe) {
  Rng rng(10);
  auto reply = model_->Chat({&dataset_.samples[0]},
                            text::DescribeInstruction(), "", 0.5, &rng);
  ASSERT_TRUE(reply.ok());
  EXPECT_NE(reply.value().find("facial expressions"), std::string::npos);
}

TEST_F(VlmTest, ChatRoutesAssessWithContext) {
  Rng rng(11);
  AuMask description{};
  description[2] = true;
  auto reply = model_->Chat({&dataset_.samples[0]},
                            text::AssessInstruction(),
                            text::RenderDescription(description), 0.0,
                            nullptr);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(text::ParseAssessment(reply.value()).ok());
}

TEST_F(VlmTest, ChatRoutesVerification) {
  Rng rng(12);
  AuMask description{};
  description[0] = true;
  std::vector<const data::VideoSample*> videos;
  for (int i = 0; i < 4; ++i) videos.push_back(&dataset_.samples[i]);
  auto reply = model_->Chat(
      videos, text::VerifyDescribeInstruction(
                  text::RenderDescription(description), 4),
      "", 0.0, nullptr);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().rfind("Video ", 0), 0u);
}

TEST_F(VlmTest, ChatRejectsEmptyVideosAndUnknownInstruction) {
  EXPECT_FALSE(model_->Chat({}, text::DescribeInstruction(), "", 0.5,
                            nullptr)
                   .ok());
  EXPECT_FALSE(model_->Chat({&dataset_.samples[0]}, "gibberish", "", 0.5,
                            nullptr)
                   .ok());
}

TEST(ApiModelTest, NegativityProxyLabel) {
  AuMask sad{};
  sad[7] = true;  // AU15 (sadness)
  EXPECT_EQ(NegativityProxyLabel(sad), 1);
  AuMask anger{};
  anger[2] = anger[3] = true;  // AU4 + AU5
  EXPECT_EQ(NegativityProxyLabel(anger), 1);
  AuMask joy{};
  joy[4] = joy[6] = true;  // AU6 + AU12
  EXPECT_EQ(NegativityProxyLabel(joy), 0);
  // Stress-typical but not basic-negative-emotion units: the proxy
  // deliberately misses these (see api_models.cc).
  AuMask stress_only{};
  stress_only[0] = stress_only[8] = true;  // AU1 + AU17
  EXPECT_EQ(NegativityProxyLabel(stress_only), 0);
  EXPECT_EQ(NegativityProxyLabel(AuMask{}), 0);
}

TEST(ApiModelTest, SpecsOrderedByFidelity) {
  const auto gpt = GetApiModelSpec(ApiModelKind::kGpt4o);
  const auto claude = GetApiModelSpec(ApiModelKind::kClaude35);
  const auto gemini = GetApiModelSpec(ApiModelKind::kGemini15);
  // GPT-4o-sim: biggest capacity, least miscalibrated verdicts.
  EXPECT_GE(gpt.config.hidden_dim, claude.config.hidden_dim);
  EXPECT_GE(claude.config.hidden_dim, gemini.config.hidden_dim);
  EXPECT_LT(gpt.config.assess_margin_bias,
            claude.config.assess_margin_bias);
  EXPECT_LT(gpt.config.assess_margin_bias,
            gemini.config.assess_margin_bias);
  // The backbone init is a cleaner generalist than any API sim.
  EXPECT_LT(BackboneInitSpec().label_corruption, gpt.label_corruption);
  EXPECT_EQ(BackboneInitSpec().config.assess_margin_bias, 0.0f);
}

TEST(ApiModelTest, NamesDistinct) {
  EXPECT_STRNE(ApiModelName(ApiModelKind::kGpt4o),
               ApiModelName(ApiModelKind::kClaude35));
  EXPECT_STRNE(ApiModelName(ApiModelKind::kClaude35),
               ApiModelName(ApiModelKind::kGemini15));
}

}  // namespace
}  // namespace vsd::vlm
