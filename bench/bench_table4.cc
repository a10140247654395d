// Reproduces Table IV: interpretability ablation of the reasoning chain —
// Top-1/2/3 accuracy drops of the self-explained rationale for "w/o
// Chain", "w/o learn des." and Ours.
//
// Usage: bench_table4 [--quick] [--seed S] [--threads N] [--batch N]
#include <cstdio>

#include "bench/harness.h"
#include "common/string_util.h"
#include "common/table.h"
#include "data/folds.h"

namespace vsd::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchArgs(argc, argv);
  std::printf("=== Table IV: rationale ablation on chain reasoning (%s)"
              " ===\n",
              options.quick ? "quick" : "full");
  BenchData data = MakeBenchData(options);
  const int eval_samples = options.quick ? 30 : 60;

  cot::ChainConfig ours = OursChainConfig(options);
  cot::ChainConfig no_chain = ours;
  no_chain.use_chain = false;
  cot::ChainConfig no_learn_des = ours;
  no_learn_des.learn_describe = false;
  const std::vector<std::pair<std::string, const cot::ChainConfig*>>
      variants = {{"w/o Chain", &no_chain},
                  {"w/o learn des.", &no_learn_des},
                  {"Ours", &ours}};

  Table table({"Method", "UVSD Top-1", "UVSD Top-2", "UVSD Top-3",
               "RSL Top-1", "RSL Top-2", "RSL Top-3"});
  std::vector<std::vector<double>> uvsd_drops;
  std::vector<std::vector<double>> rsl_drops;
  for (const auto* dataset : {&data.uvsd, &data.rsl}) {
    Rng rng(options.seed ^ 0x4A11);
    const auto split = data::StratifiedHoldout(*dataset, 0.2, &rng);
    const data::Dataset train = dataset->Subset(split.train);
    const data::Dataset test = dataset->Subset(split.test);
    std::vector<const data::VideoSample*> samples;
    for (int i = 0; i < test.size() && i < eval_samples; ++i) {
      samples.push_back(&test.samples[i]);
    }
    for (const auto& [name, chain] : variants) {
      auto model = TrainOurs(*chain, data.disfa, train, test, options,
                             options.seed + 303);
      auto drops = RationaleDrops(*model, *chain, samples, options);
      (dataset == &data.uvsd ? uvsd_drops : rsl_drops).push_back(drops);
      std::printf("  done: %s / %s\n", dataset->name.c_str(), name.c_str());
    }
  }
  for (size_t v = 0; v < variants.size(); ++v) {
    table.AddRow({variants[v].first, FormatPercent(uvsd_drops[v][0]),
                  FormatPercent(uvsd_drops[v][1]),
                  FormatPercent(uvsd_drops[v][2]),
                  FormatPercent(rsl_drops[v][0]),
                  FormatPercent(rsl_drops[v][1]),
                  FormatPercent(rsl_drops[v][2])});
  }
  std::printf("\n%s\n", table.ToString().c_str());
  (void)table.WriteCsv("table4.csv");
  return 0;
}

}  // namespace
}  // namespace vsd::bench

int main(int argc, char** argv) { return vsd::bench::Main(argc, argv); }
