// Reproduces Table II: accuracy drop after disturbing the Top-1/2/3
// scoring segments found by SHAP, LIME, SOBOL, and our self-explained
// rationale, on both datasets. Also exercises the protocol of Sec. IV-H:
// SLIC with 64 segments, Gaussian noise on the top segments, 1000
// evaluations for LIME/SHAP.
//
// Usage: bench_table2 [--quick] [--seed S] [--threads N] [--batch N]
#include <cstdio>
#include <memory>

#include "bench/harness.h"
#include "common/string_util.h"
#include "common/table.h"
#include "cot/pipeline.h"
#include "data/folds.h"
#include "explain/faithfulness.h"
#include "explain/kernel_shap.h"
#include "explain/lime.h"
#include "explain/sobol.h"

namespace vsd::bench {
namespace {

struct DatasetDrops {
  std::vector<double> shap;
  std::vector<double> lime;
  std::vector<double> sobol;
  std::vector<double> ours;
};

DatasetDrops RunDataset(const data::Dataset& dataset,
                        const data::Dataset& au_data,
                        const BenchOptions& options, int eval_samples) {
  // Single stratified holdout (the interpretability protocol does not
  // need CV; the paper evaluates on test samples of the trained model).
  Rng rng(options.seed ^ 0xBEEF);
  const auto split = data::StratifiedHoldout(dataset, 0.2, &rng);
  const data::Dataset train = dataset.Subset(split.train);
  const data::Dataset test = dataset.Subset(split.test);
  const cot::ChainConfig chain = OursChainConfig(options);
  auto model =
      TrainOurs(chain, au_data, train, test, options, options.seed + 77);
  cot::ChainPipeline pipeline(model.get(), chain);

  // Evaluation subset.
  std::vector<const data::VideoSample*> samples;
  for (int i = 0; i < test.size() && i < eval_samples; ++i) {
    samples.push_back(&test.samples[i]);
  }
  InterpContext context = BuildInterpContext(samples);

  const int evals = options.quick ? 200 : 1000;  // paper: 1000
  explain::KernelShapExplainer shap(evals);
  explain::LimeExplainer lime(evals);
  explain::SobolExplainer sobol(options.quick ? 4 : 15);

  std::vector<explain::ExplainedSample> shap_samples;
  std::vector<explain::ExplainedSample> lime_samples;
  std::vector<explain::ExplainedSample> sobol_samples;
  std::vector<explain::ExplainedSample> ours_samples;
  for (size_t i = 0; i < samples.size(); ++i) {
    const auto* sample = samples[i];
    const auto& segmentation = context.segmentations[i];
    // The post-hoc explainers evaluate perturbations through the batched
    // classifier (one shared-neutral forward per batch); the accuracy-drop
    // scoring below keeps the per-frame closure. Both are bit-identical.
    const explain::BatchClassifierFn classifier =
        ModelBatchClassifier(*model, *sample, /*use_chain=*/true);

    explain::ExplainedSample base;
    base.image = &sample->expressive_frame;
    base.segmentation = &segmentation;
    base.classifier = ModelClassifier(*model, *sample, /*use_chain=*/true);
    base.true_label = sample->stress_label;

    auto add = [&](std::vector<explain::ExplainedSample>* out,
                   std::vector<int> ranked) {
      explain::ExplainedSample e = base;
      e.ranked_segments = std::move(ranked);
      out->push_back(std::move(e));
    };

    Rng explain_rng(options.seed + 31 * i);
    add(&shap_samples,
        shap.Explain(classifier, *base.image, segmentation, &explain_rng)
            .RankedSegments());
    add(&lime_samples,
        lime.Explain(classifier, *base.image, segmentation, &explain_rng)
            .RankedSegments());
    add(&sobol_samples,
        sobol.Explain(classifier, *base.image, segmentation, &explain_rng)
            .RankedSegments());
    // Ours: chain rationale -> facial-region segments.
    const auto output = pipeline.Run(*sample, &explain_rng);
    add(&ours_samples,
        RationaleToSegments(output.highlight.ranked_aus, segmentation));
    if ((i + 1) % 10 == 0) {
      std::fprintf(stderr, "  explained %zu/%zu samples\n", i + 1,
                   samples.size());
    }
  }

  DatasetDrops drops;
  const std::vector<int> ks = {1, 2, 3};
  Rng drop_rng(options.seed ^ 0xD150);
  drops.shap = TopKAccuracyDrop(shap_samples, ks, kDisturbNoise, &drop_rng);
  drops.lime = TopKAccuracyDrop(lime_samples, ks, kDisturbNoise, &drop_rng);
  drops.sobol =
      TopKAccuracyDrop(sobol_samples, ks, kDisturbNoise, &drop_rng);
  drops.ours = TopKAccuracyDrop(ours_samples, ks, kDisturbNoise, &drop_rng);
  return drops;
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchArgs(argc, argv);
  std::printf("=== Table II: accuracy drop after disturbing Top-k segments"
              " (%s) ===\n",
              options.quick ? "quick" : "full");
  BenchData data = MakeBenchData(options);
  const int eval_samples = options.quick ? 30 : 100;

  const DatasetDrops uvsd =
      RunDataset(data.uvsd, data.disfa, options, eval_samples);
  std::printf("  UVSD done\n");
  const DatasetDrops rsl =
      RunDataset(data.rsl, data.disfa, options, eval_samples);
  std::printf("  RSL done\n");

  Table table({"Method", "UVSD Top-1", "UVSD Top-2", "UVSD Top-3",
               "RSL Top-1", "RSL Top-2", "RSL Top-3"});
  auto row = [&](const std::string& name, const std::vector<double>& u,
                 const std::vector<double>& r) {
    table.AddRow({name, FormatPercent(u[0]), FormatPercent(u[1]),
                  FormatPercent(u[2]), FormatPercent(r[0]),
                  FormatPercent(r[1]), FormatPercent(r[2])});
  };
  row("SHAP", uvsd.shap, rsl.shap);
  row("LIME", uvsd.lime, rsl.lime);
  row("SOBOL", uvsd.sobol, rsl.sobol);
  row("Ours", uvsd.ours, rsl.ours);
  std::printf("\n%s\n", table.ToString().c_str());
  (void)table.WriteCsv("table2.csv");
  return 0;
}

}  // namespace
}  // namespace vsd::bench

int main(int argc, char** argv) { return vsd::bench::Main(argc, argv); }
