// Reproduces Table I: stress-detection performance of off-the-shelf large
// foundation models, supervised baselines, and Ours on UVSD-sim and
// RSL-sim (Acc / Prec / Rec / F1, macro-averaged, k-fold CV).
//
// Usage: bench_table1 [--quick] [--folds N] [--seed S] [--threads N]
//                     [--batch N]
#include <cstdio>
#include <memory>

#include "baselines/ding_fusion.h"
#include "baselines/fdassnn.h"
#include "baselines/gao_svm.h"
#include "baselines/jeon_attention.h"
#include "baselines/marlin.h"
#include "baselines/singh_resnet.h"
#include "baselines/tsdnet.h"
#include "baselines/zero_shot_lfm.h"
#include "baselines/zhang_emotion.h"
#include "bench/harness.h"
#include "common/table.h"
#include "core/evaluation.h"
#include "cot/pipeline.h"

namespace vsd::bench {
namespace {

using baselines::StressClassifier;
using core::Metrics;

/// Factory for a fresh instance of one supervised baseline.
using BaselineFactory = std::function<std::unique_ptr<StressClassifier>()>;

Metrics EvaluateSupervised(const BaselineFactory& factory,
                           const data::Dataset& dataset,
                           const BenchOptions& options) {
  return CrossValidate(
      dataset, options,
      [&](const data::Dataset& train, const data::Dataset& test,
          uint64_t fold_seed) {
        auto classifier = factory();
        Rng rng(fold_seed);
        classifier->Fit(train, &rng);
        return core::EvaluateClassifier(*classifier, test);
      });
}

Metrics EvaluateOurs(const data::Dataset& dataset,
                     const data::Dataset& au_data,
                     const BenchOptions& options) {
  const cot::ChainConfig chain = OursChainConfig(options);
  return CrossValidate(
      dataset, options,
      [&](const data::Dataset& train, const data::Dataset& test,
          uint64_t fold_seed) {
        auto model =
            TrainOurs(chain, au_data, train, test, options, fold_seed);
        cot::ChainPipeline pipeline(model.get(), chain);
        return core::EvaluatePipeline(pipeline, test);
      });
}

void AppendRow(Table* table, const std::string& name, const Metrics& uvsd,
               const Metrics& rsl) {
  const auto u = uvsd.ToRow();
  const auto r = rsl.ToRow();
  table->AddRow({name, u[0], u[1], u[2], u[3], r[0], r[1], r[2], r[3]});
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchArgs(argc, argv);
  std::printf("=== Table I: stress detection performance (%s, %d-fold) ===\n",
              options.quick ? "quick" : "full", options.folds);
  BenchData data = MakeBenchData(options);

  Table table({"Method", "UVSD Acc.", "UVSD Prec.", "UVSD Rec.", "UVSD F1.",
               "RSL Acc.", "RSL Prec.", "RSL Rec.", "RSL F1."});

  // ---- Off-the-shelf large foundation models (zero-shot). ----
  for (auto kind : {vlm::ApiModelKind::kGpt4o, vlm::ApiModelKind::kClaude35,
                    vlm::ApiModelKind::kGemini15}) {
    const auto& model = ApiModel(kind, options);
    baselines::ZeroShotLfm lfm(&model, vlm::ApiModelName(kind));
    const Metrics uvsd = core::EvaluateClassifier(lfm, data.uvsd);
    const Metrics rsl = core::EvaluateClassifier(lfm, data.rsl);
    AppendRow(&table, lfm.name(), uvsd, rsl);
    std::printf("  done: %s\n", lfm.name().c_str());
  }
  table.AddSeparator();

  // ---- Supervised baselines. ----
  const auto& emotion_model = ApiModel(vlm::ApiModelKind::kGemini15, options);
  const auto& ding_vlm = ApiModel(vlm::ApiModelKind::kGpt4o, options);
  const std::vector<std::pair<std::string, BaselineFactory>> supervised = {
      {"FDASSNN",
       [] { return std::make_unique<baselines::Fdassnn>(); }},
      {"Gao et al.",
       [] { return std::make_unique<baselines::GaoSvm>(); }},
      {"Zhang et al.",
       [&] {
         return std::make_unique<baselines::ZhangEmotionRule>(
             &emotion_model);
       }},
      {"Jeon et al.",
       [] { return std::make_unique<baselines::JeonAttention>(); }},
      {"TSDNet", [] { return std::make_unique<baselines::Tsdnet>(); }},
      {"MARLIN", [] { return std::make_unique<baselines::Marlin>(); }},
      {"Singh et al.",
       [] { return std::make_unique<baselines::SinghResnet>(); }},
      {"Ding et al.",
       [&] { return std::make_unique<baselines::DingFusion>(&ding_vlm); }},
  };
  for (const auto& [name, factory] : supervised) {
    const Metrics uvsd = EvaluateSupervised(factory, data.uvsd, options);
    const Metrics rsl = EvaluateSupervised(factory, data.rsl, options);
    AppendRow(&table, name, uvsd, rsl);
    std::printf("  done: %s\n", name.c_str());
  }
  table.AddSeparator();

  // ---- Ours. ----
  const Metrics ours_uvsd = EvaluateOurs(data.uvsd, data.disfa, options);
  const Metrics ours_rsl = EvaluateOurs(data.rsl, data.disfa, options);
  AppendRow(&table, "Ours", ours_uvsd, ours_rsl);

  std::printf("\n%s\n", table.ToString().c_str());
  (void)table.WriteCsv("table1.csv");
  return 0;
}

}  // namespace
}  // namespace vsd::bench

int main(int argc, char** argv) { return vsd::bench::Main(argc, argv); }
