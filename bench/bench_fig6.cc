// Reproduces Figure 6: wall-clock cost of explaining a single test sample
// with each method. Our chain explains itself in three generations, while
// the post-hoc explainers need hundreds to thousands of black-box
// evaluations — the paper reports 3.4 s vs 216.3+ s on its stack; the
// *ratios* are the reproducible quantity here.
//
// Usage: bench_fig6 [--quick] [--seed S] [--threads N] [--batch N]
#include <chrono>
#include <cstdio>

#include "bench/harness.h"
#include "common/string_util.h"
#include "common/table.h"
#include "cot/pipeline.h"
#include "data/folds.h"
#include "explain/kernel_shap.h"
#include "explain/lime.h"
#include "explain/sobol.h"

namespace vsd::bench {
namespace {

double SecondsSince(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchArgs(argc, argv);
  std::printf(
      "=== Figure 6: per-sample explanation cost (%s) ===\n",
      options.quick ? "quick" : "full");
  BenchData data = MakeBenchData(options);

  // Train the model once on UVSD.
  Rng rng(options.seed ^ 0xF16);
  const auto split = data::StratifiedHoldout(data.uvsd, 0.2, &rng);
  const data::Dataset train = data.uvsd.Subset(split.train);
  const data::Dataset test = data.uvsd.Subset(split.test);
  const cot::ChainConfig chain = OursChainConfig(options);
  auto model =
      TrainOurs(chain, data.disfa, train, test, options, options.seed + 5);

  const int num_samples = options.quick ? 3 : 8;
  std::vector<const data::VideoSample*> samples;
  for (int i = 0; i < num_samples && i < test.size(); ++i) {
    samples.push_back(&test.samples[i]);
  }
  InterpContext context = BuildInterpContext(samples);

  const int evals = options.quick ? 200 : 1000;
  explain::LimeExplainer lime(evals);
  explain::KernelShapExplainer shap(evals);
  explain::SobolExplainer sobol(options.quick ? 4 : 15);

  // Ours runs on one clone whose feature cache is empty, so every timed Run
  // encodes its frames like any other per-sample cost (Run never fills the
  // cache). One untimed Run on its own Rng first compiles the clone's
  // batch-1 graphs and allocates their arenas, so the timed calls measure
  // the explanation rather than that set-up, and explain_rng's draws are
  // unchanged.
  auto fresh = model->Clone();
  fresh->ClearFeatureCache();
  cot::ChainPipeline fresh_pipeline(fresh.get(), chain);
  if (!samples.empty()) {
    Rng warm_rng(options.seed ^ 0x3A7);
    (void)fresh_pipeline.Run(*samples.front(), &warm_rng);
  }

  double ours_seconds = 0.0;
  double lime_seconds = 0.0;
  double shap_seconds = 0.0;
  double sobol_seconds = 0.0;
  int64_t lime_evals = 0;
  int64_t shap_evals = 0;
  int64_t sobol_evals = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const auto* sample = samples[i];
    const auto& segmentation = context.segmentations[i];
    // Batched classifier: the post-hoc explainers score perturbations in
    // batch-sized forwards, which is exactly what Figure 6 times.
    const auto classifier = ModelBatchClassifier(*model, *sample, true);
    Rng explain_rng(options.seed + i);

    // Ours: describe + assess + highlight on uncached frames.
    {
      const auto start = std::chrono::steady_clock::now();
      (void)fresh_pipeline.Run(*sample, &explain_rng);
      ours_seconds += SecondsSince(start);
    }
    {
      const auto start = std::chrono::steady_clock::now();
      lime_evals += lime.Explain(classifier, sample->expressive_frame,
                                 segmentation, &explain_rng)
                        .model_evaluations;
      lime_seconds += SecondsSince(start);
    }
    {
      const auto start = std::chrono::steady_clock::now();
      shap_evals += shap.Explain(classifier, sample->expressive_frame,
                                 segmentation, &explain_rng)
                        .model_evaluations;
      shap_seconds += SecondsSince(start);
    }
    {
      const auto start = std::chrono::steady_clock::now();
      sobol_evals += sobol.Explain(classifier, sample->expressive_frame,
                                   segmentation, &explain_rng)
                         .model_evaluations;
      sobol_seconds += SecondsSince(start);
    }
  }

  const double n = static_cast<double>(samples.size());
  Table table({"Method", "Seconds/sample", "Model evals/sample",
               "Slowdown vs Ours"});
  auto row = [&](const std::string& name, double seconds, double evals_per) {
    table.AddRow({name, FormatDouble(seconds / n, 4),
                  FormatDouble(evals_per, 0),
                  FormatDouble(seconds / std::max(ours_seconds, 1e-9), 1) +
                      "x"});
  };
  row("Ours (self-explained)", ours_seconds, 3.0);
  row("LIME", lime_seconds, lime_evals / n);
  row("SHAP", shap_seconds, shap_evals / n);
  row("SOBOL", sobol_seconds, sobol_evals / n);
  std::printf("\n%s\n", table.ToString().c_str());
  (void)table.WriteCsv("fig6.csv");
  return 0;
}

}  // namespace
}  // namespace vsd::bench

int main(int argc, char** argv) { return vsd::bench::Main(argc, argv); }
