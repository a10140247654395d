// Reproduces Table III: detection-performance ablation of the reasoning
// chain — "w/o Chain" (direct video->stress prompt) and "w/o learn des."
// (chain without the Eq. 2 facial-action instruction tuning) vs Ours.
//
// Usage: bench_table3 [--quick] [--folds N] [--seed S] [--threads N]
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
  std::printf("=== Table III: chain-reasoning ablation (%s, %d-fold) ===\n",
              options.quick ? "quick" : "full", options.folds);
  BenchData data = MakeBenchData(options);

  cot::ChainConfig ours = OursChainConfig(options);
  cot::ChainConfig no_chain = ours;
  no_chain.use_chain = false;
  cot::ChainConfig no_learn_des = ours;
  no_learn_des.learn_describe = false;

  Table table({"Dataset", "Method", "Acc.", "Prec.", "Rec.", "F1."});
  const std::vector<std::pair<std::string, const cot::ChainConfig*>>
      variants = {{"w/o Chain", &no_chain},
                  {"w/o learn des.", &no_learn_des},
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
  (void)table.WriteCsv("table3.csv");
  return 0;
}

}  // namespace
}  // namespace vsd::bench

int main(int argc, char** argv) { return vsd::bench::Main(argc, argv); }
