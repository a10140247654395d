// Reproduces Figure 7: how well similarity separates "Helpful" training
// examples (whose use as an in-context example yields a correct
// prediction) from "Unhelpful" ones, comparing visual-representation
// similarity (Videoformer stand-in) against description-text similarity
// (BERT stand-in). The paper's claim: description similarity separates
// the two groups better.
//
// Usage: bench_fig7 [--quick] [--seed S] [--threads N] [--batch N]
#include <cmath>
#include <cstdio>

#include "bench/harness.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "common/table.h"
#include "cot/icl.h"
#include "cot/pipeline.h"
#include "data/folds.h"

namespace vsd::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchArgs(argc, argv);
  std::printf("=== Figure 7: similarity separation of helpful vs unhelpful"
              " examples (%s) ===\n",
              options.quick ? "quick" : "full");
  BenchData data = MakeBenchData(options);

  Rng rng(options.seed ^ 0xF17);
  const auto split = data::StratifiedHoldout(data.uvsd, 0.2, &rng);
  const data::Dataset train = data.uvsd.Subset(split.train);
  const data::Dataset test = data.uvsd.Subset(split.test);
  const cot::ChainConfig chain = OursChainConfig(options);
  auto model = TrainOurs(chain, data.disfa, train, test, options,
                         options.seed + 606);
  cot::ChainPipeline pipeline(model.get(), chain);
  const auto& generic = ApiModel(vlm::ApiModelKind::kClaude35, options);
  cot::ExampleStore store(train, &generic.vision(), model.get(), &rng);

  // For each test query, probe random training examples: an example is
  // Helpful when conditioning on it yields the correct label.
  const int num_queries = options.quick ? 15 : 40;
  const int probes_per_query = options.quick ? 10 : 25;
  std::vector<double> helpful_vision, unhelpful_vision;
  std::vector<double> helpful_description, unhelpful_description;
  const auto query_ids =
      rng.SampleWithoutReplacement(test.size(),
                                   std::min(num_queries, test.size()));
  for (int q : query_ids) {
    const auto& query = test.samples[q];
    const auto base = pipeline.Run(query, nullptr);
    for (int p = 0; p < probes_per_query; ++p) {
      const int idx = rng.UniformInt(store.size());
      const double vision_sim = store.VisionSimilarity(query, idx);
      const double description_sim =
          store.DescriptionSimilarity(base.describe.mask, idx);
      // A training example is Helpful when conditioning on it steers the
      // assessment toward the correct verdict: it must carry the query's
      // true label AND flipping fully toward it must not break a correct
      // base prediction.
      const int steered =
          pipeline.RunWithExample(query, store.label(idx), 1.0, nullptr)
              .assess.label;
      const bool helpful = store.label(idx) == query.stress_label &&
                           steered == query.stress_label;
      (helpful ? helpful_vision : unhelpful_vision).push_back(vision_sim);
      (helpful ? helpful_description : unhelpful_description)
          .push_back(description_sim);
    }
  }

  auto separation = [](const std::vector<double>& a,
                       const std::vector<double>& b) {
    // Effect size (Cohen's d): how far apart the two groups sit.
    const double pooled =
        std::sqrt(0.5 * (vsd::StdDev(a) * vsd::StdDev(a) +
                         vsd::StdDev(b) * vsd::StdDev(b)));
    if (pooled < 1e-12) return 0.0;
    return (vsd::Mean(a) - vsd::Mean(b)) / pooled;
  };

  Table table({"Embedding", "Helpful mean sim", "Unhelpful mean sim",
               "Separation (Cohen's d)"});
  table.AddRow({"Visual (retrieve-by-vision)",
                FormatDouble(vsd::Mean(helpful_vision), 4),
                FormatDouble(vsd::Mean(unhelpful_vision), 4),
                FormatDouble(separation(helpful_vision, unhelpful_vision),
                             3)});
  table.AddRow(
      {"Description (retrieve-by-description)",
       FormatDouble(vsd::Mean(helpful_description), 4),
       FormatDouble(vsd::Mean(unhelpful_description), 4),
       FormatDouble(separation(helpful_description, unhelpful_description),
                    3)});
  std::printf("\n%s\n", table.ToString().c_str());
  std::printf("helpful=%zu unhelpful=%zu probes\n", helpful_vision.size(),
              unhelpful_vision.size());
  (void)table.WriteCsv("fig7.csv");
  return 0;
}

}  // namespace
}  // namespace vsd::bench

int main(int argc, char** argv) { return vsd::bench::Main(argc, argv); }
