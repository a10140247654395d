// Reproduces Figure 8: effect of the training-pool size available for
// in-context example retrieval (RSL), sweeping the pool fraction for each
// retrieval method. The paper's claim: similarity retrieval benefits from
// larger pools while random does not.
//
// Usage: bench_fig8 [--quick] [--seed S] [--threads N] [--batch N]
#include <cstdio>

#include "bench/harness.h"
#include "common/string_util.h"
#include "common/table.h"
#include "core/evaluation.h"
#include "cot/icl.h"
#include "cot/pipeline.h"
#include "data/folds.h"

namespace vsd::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchArgs(argc, argv);
  std::printf("=== Figure 8: retrieval pool size sweep on RSL (%s) ===\n",
              options.quick ? "quick" : "full");
  BenchData data = MakeBenchData(options);

  Rng rng(options.seed ^ 0xF18);
  const auto split = data::StratifiedHoldout(data.rsl, 0.2, &rng);
  const data::Dataset train = data.rsl.Subset(split.train);
  const data::Dataset test = data.rsl.Subset(split.test);
  const cot::ChainConfig chain = OursChainConfig(options);
  auto model = TrainOurs(chain, data.disfa, train, test, options,
                         options.seed + 707);
  cot::ChainPipeline pipeline(model.get(), chain);
  const auto& generic = ApiModel(vlm::ApiModelKind::kClaude35, options);

  const std::vector<double> fractions = {0.2, 0.4, 0.6, 0.8, 1.0};
  const std::vector<cot::RetrievalMethod> methods = {
      cot::RetrievalMethod::kRandom, cot::RetrievalMethod::kByVision,
      cot::RetrievalMethod::kByDescription};

  Table table({"Pool fraction", "Random", "Retrieve-by-vision",
               "Retrieve-by-description"});
  for (double fraction : fractions) {
    std::vector<std::string> row = {FormatDouble(fraction, 1)};
    for (auto method : methods) {
      Rng store_rng(options.seed + static_cast<uint64_t>(100 * fraction));
      cot::ExampleStore store(train, &generic.vision(), model.get(),
                              &store_rng);
      store.SubsampleTo(fraction, &store_rng);
      Rng eval_rng(options.seed ^ 0xE7A1);
      const core::Metrics metrics = core::EvaluatePredictor(
          [&](const data::VideoSample& sample) {
            const auto base = pipeline.Run(sample, nullptr);
            const auto retrieved =
                store.Retrieve(method, sample, base.describe.mask,
                               &eval_rng);
            return pipeline
                .RunWithExample(sample, retrieved.label,
                                retrieved.normalized_similarity, nullptr)
                .assess.label;
          },
          test);
      row.push_back(FormatPercent(metrics.accuracy));
    }
    table.AddRow(row);
    std::printf("  done: fraction %.1f\n", fraction);
  }
  std::printf("\n%s\n", table.ToString().c_str());
  (void)table.WriteCsv("fig8.csv");
  return 0;
}

}  // namespace
}  // namespace vsd::bench

int main(int argc, char** argv) { return vsd::bench::Main(argc, argv); }
