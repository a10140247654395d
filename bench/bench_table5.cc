// Reproduces Table V: detection-performance ablation of the self-refine
// learning scheme — "w/o Refine" (no self-refinement at all) and "w/o
// Reflection" (refinement gates kept, but candidates come from plain
// re-sampling instead of reflection) vs Ours.
//
// Usage: bench_table5 [--quick] [--folds N] [--seed S] [--threads N]
//                     [--batch N]
#include <cstdio>

#include "bench/harness.h"
#include "common/table.h"
#include "core/evaluation.h"
#include "cot/pipeline.h"

namespace vsd::bench {
namespace {

core::Metrics EvaluateVariant(const cot::ChainConfig& chain,
                              const data::Dataset& dataset,
                              const data::Dataset& au_data,
                              const BenchOptions& options) {
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

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchArgs(argc, argv);
  std::printf("=== Table V: self-refine ablation (%s, %d-fold) ===\n",
              options.quick ? "quick" : "full", options.folds);
  BenchData data = MakeBenchData(options);

  cot::ChainConfig ours = OursChainConfig(options);
  cot::ChainConfig no_refine = ours;
  no_refine.use_refinement = false;
  cot::ChainConfig no_reflection = ours;
  no_reflection.use_reflection = false;

  Table table({"Dataset", "Method", "Acc.", "Prec.", "Rec.", "F1."});
  const std::vector<std::pair<std::string, const cot::ChainConfig*>>
      variants = {{"w/o Refine", &no_refine},
                  {"w/o Reflection", &no_reflection},
                  {"Ours", &ours}};
  for (const auto* dataset : {&data.uvsd, &data.rsl}) {
    for (const auto& [name, chain] : variants) {
      const core::Metrics metrics =
          EvaluateVariant(*chain, *dataset, data.disfa, options);
      const auto row = metrics.ToRow();
      table.AddRow({dataset->name, name, row[0], row[1], row[2], row[3]});
      std::printf("  done: %s / %s\n", dataset->name.c_str(), name.c_str());
    }
    table.AddSeparator();
  }
  std::printf("\n%s\n", table.ToString().c_str());
  (void)table.WriteCsv("table5.csv");
  return 0;
}

}  // namespace
}  // namespace vsd::bench

int main(int argc, char** argv) { return vsd::bench::Main(argc, argv); }
