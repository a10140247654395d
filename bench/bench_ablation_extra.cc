// Extension ablations beyond the paper's own tables (DESIGN.md Sec. 4):
//   (a) DPO beta sweep (the paper fixes beta = 0.1),
//   (b) sensitivity to K (self-verification repeats) and the number of
//       reflection rounds,
//   (c) number of SLIC segments in the faithfulness protocol.
//
// Usage: bench_ablation_extra [--quick] [--seed S] [--threads N]
//                             [--batch N]
#include <cstdio>

#include "bench/harness.h"
#include "common/string_util.h"
#include "common/table.h"
#include "core/evaluation.h"
#include "cot/pipeline.h"
#include "data/folds.h"
#include "explain/faithfulness.h"
#include "img/slic.h"

namespace vsd::bench {
namespace {

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchArgs(argc, argv);
  std::printf("=== Extension ablations (%s) ===\n",
              options.quick ? "quick" : "full");
  // These sweeps use the smaller RSL-sim to keep the grid affordable.
  BenchData data = MakeBenchData(options);
  Rng rng(options.seed ^ 0xAB1A);
  const auto split = data::StratifiedHoldout(data.rsl, 0.2, &rng);
  const data::Dataset train = data.rsl.Subset(split.train);
  const data::Dataset test = data.rsl.Subset(split.test);

  // ---- (a) DPO beta sweep. ----
  {
    Table table({"DPO beta", "Acc.", "F1."});
    for (float beta : {0.02f, 0.1f, 0.5f}) {
      cot::ChainConfig chain = OursChainConfig(options);
      chain.dpo_beta = beta;
      auto model = TrainOurs(chain, data.disfa, train, test, options,
                             options.seed + 808);
      cot::ChainPipeline pipeline(model.get(), chain);
      const core::Metrics metrics = core::EvaluatePipeline(pipeline, test);
      table.AddRow({FormatDouble(beta, 2), FormatPercent(metrics.accuracy),
                    FormatPercent(metrics.f1)});
      std::printf("  done: beta=%.2f\n", beta);
    }
    std::printf("\n(a) DPO beta sweep (paper fixes 0.1):\n%s\n",
                table.ToString().c_str());
    (void)table.WriteCsv("ablation_dpo_beta.csv");
  }

  // ---- (b) K and reflection-round sensitivity. ----
  {
    Table table({"K", "Refine rounds", "Acc.", "F1."});
    const std::vector<std::pair<int, int>> grid = {{1, 1}, {3, 1}, {3, 2}};
    for (const auto& [k, rounds] : grid) {
      cot::ChainConfig chain = OursChainConfig(options);
      chain.k_repeats = k;
      chain.max_refine_rounds = rounds;
      auto model = TrainOurs(chain, data.disfa, train, test, options,
                             options.seed + 909);
      cot::ChainPipeline pipeline(model.get(), chain);
      const core::Metrics metrics = core::EvaluatePipeline(pipeline, test);
      table.AddRow({std::to_string(k), std::to_string(rounds),
                    FormatPercent(metrics.accuracy),
                    FormatPercent(metrics.f1)});
      std::printf("  done: K=%d rounds=%d\n", k, rounds);
    }
    std::printf("\n(b) Self-verification K / refinement rounds:\n%s\n",
                table.ToString().c_str());
    (void)table.WriteCsv("ablation_reflect.csv");
  }

  // ---- (c) SLIC segment count in the faithfulness protocol. ----
  {
    cot::ChainConfig chain = OursChainConfig(options);
    auto model = TrainOurs(chain, data.disfa, train, test, options,
                           options.seed + 1010);
    cot::ChainPipeline pipeline(model.get(), chain);
    std::vector<const data::VideoSample*> samples;
    const int eval_samples = options.quick ? 20 : 40;
    for (int i = 0; i < test.size() && i < eval_samples; ++i) {
      samples.push_back(&test.samples[i]);
    }
    Table table({"SLIC segments", "Top-1 drop", "Top-3 drop"});
    for (int segments : {16, 64, 144}) {
      std::vector<explain::ExplainedSample> explained;
      std::vector<img::Segmentation> segmentations;
      segmentations.reserve(samples.size());
      for (const auto* sample : samples) {
        segmentations.push_back(
            img::Slic(sample->expressive_frame, segments));
      }
      for (size_t i = 0; i < samples.size(); ++i) {
        Rng run_rng(options.seed + 7 * i);
        const auto output = pipeline.Run(*samples[i], &run_rng);
        explain::ExplainedSample e;
        e.image = &samples[i]->expressive_frame;
        e.segmentation = &segmentations[i];
        e.classifier = ModelClassifier(*model, *samples[i], true);
        e.true_label = samples[i]->stress_label;
        e.ranked_segments = RationaleToSegments(output.highlight.ranked_aus,
                                                segmentations[i]);
        explained.push_back(std::move(e));
      }
      Rng drop_rng(options.seed ^ 0x5E65);
      const auto drops = explain::TopKAccuracyDrop(explained, {1, 3},
                                                   kDisturbNoise, &drop_rng);
      table.AddRow({std::to_string(segments), FormatPercent(drops[0]),
                    FormatPercent(drops[1])});
      std::printf("  done: segments=%d\n", segments);
    }
    std::printf("\n(c) SLIC segment-count sensitivity:\n%s\n",
                table.ToString().c_str());
    (void)table.WriteCsv("ablation_segments.csv");
  }
  return 0;
}

}  // namespace
}  // namespace vsd::bench

int main(int argc, char** argv) { return vsd::bench::Main(argc, argv); }
