// Reproduces Table VIII: applying the chain-reasoning scheme with
// test-time self-refinement to the frozen off-the-shelf foundation models
// (Sec. IV-G): describe with I1, reflect and keep the new description only
// when self-verification finds it more faithful, then assess with I2.
//
// Usage: bench_table8 [--quick] [--seed S] [--threads N] [--batch N]
#include <cstdio>

#include "bench/harness.h"
#include "common/table.h"
#include "core/evaluation.h"
#include "cot/pipeline.h"
#include "data/folds.h"

namespace vsd::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchArgs(argc, argv);
  std::printf("=== Table VIII: off-the-shelf LFMs + our test-time scheme"
              " (%s) ===\n",
              options.quick ? "quick" : "full");
  BenchData data = MakeBenchData(options);

  Table table(
      {"Dataset", "Model", "Variant", "Acc.", "Prec.", "Rec.", "F1."});
  cot::ChainConfig chain = OursChainConfig(options);
  chain.max_refine_rounds = 1;  // test-time budget

  for (const auto* dataset : {&data.uvsd, &data.rsl}) {
    // Subsample large test pools for the refined pass (quick mode only).
    for (auto kind : {vlm::ApiModelKind::kGpt4o,
                      vlm::ApiModelKind::kClaude35,
                      vlm::ApiModelKind::kGemini15}) {
      auto model = ApiModel(kind, options).Clone();
      model->PrecomputeFeatures(*dataset);
      cot::ChainPipeline pipeline(model.get(), chain);

      // "Original": the zero-shot direct prompt (Table I protocol).
      const core::Metrics original = core::EvaluatePredictor(
          [&](const data::VideoSample& sample) {
            return model->Assess(sample, face::AuMask{}, 0.0, nullptr)
                .label;
          },
          *dataset);
      const auto orow = original.ToRow();
      table.AddRow({dataset->name, vlm::ApiModelName(kind), "Original",
                    orow[0], orow[1], orow[2], orow[3]});

      // "New": describe -> (reflect + verify) -> assess at test time.
      Rng rng(options.seed ^ (0x8888 + static_cast<int>(kind)));
      const core::Metrics refined = core::EvaluatePredictor(
          [&](const data::VideoSample& sample) {
            return pipeline
                .RunWithTestTimeRefinement(sample, *dataset, &rng)
                .assess.label;
          },
          *dataset);
      const auto rrow = refined.ToRow();
      table.AddRow({dataset->name, vlm::ApiModelName(kind), "New", rrow[0],
                    rrow[1], rrow[2], rrow[3]});
      std::printf("  done: %s / %s\n", dataset->name.c_str(),
                  vlm::ApiModelName(kind));
    }
    table.AddSeparator();
  }
  std::printf("\n%s\n", table.ToString().c_str());
  (void)table.WriteCsv("table8.csv");
  return 0;
}

}  // namespace
}  // namespace vsd::bench

int main(int argc, char** argv) { return vsd::bench::Main(argc, argv); }
