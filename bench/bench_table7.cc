// Reproduces Table VII: impact of in-context example retrieval — no
// example, random example, retrieve-by-vision (generic video encoder),
// and retrieve-by-description (text embedding of the model's own
// descriptions).
//
// Usage: bench_table7 [--quick] [--seed S] [--threads N] [--batch N]
#include <cstdio>

#include "bench/harness.h"
#include "common/table.h"
#include "core/evaluation.h"
#include "cot/icl.h"
#include "cot/pipeline.h"
#include "data/folds.h"

namespace vsd::bench {
namespace {

core::Metrics EvaluateWithRetrieval(const cot::ChainPipeline& pipeline,
                                    const cot::ExampleStore& store,
                                    cot::RetrievalMethod method,
                                    const data::Dataset& test,
                                    const BenchOptions& options) {
  Rng rng(options.seed ^ 0x1C1);
  return core::EvaluatePredictor(
      [&](const data::VideoSample& sample) {
        if (method == cot::RetrievalMethod::kNone) {
          // Retrieval shares one rng stream across samples, so this
          // evaluation is inherently per-sample.
          // vsd-lint: allow(per-sample-predict)
          return pipeline.PredictLabel(sample);
        }
        // Generate the query description, retrieve, and condition the
        // assessment on the retrieved example.
        const auto base = pipeline.Run(sample, nullptr);
        const auto retrieved =
            store.Retrieve(method, sample, base.describe.mask, &rng);
        return pipeline
            .RunWithExample(sample, retrieved.label,
                            retrieved.normalized_similarity, nullptr)
            .assess.label;
      },
      test);
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchArgs(argc, argv);
  std::printf("=== Table VII: in-context example retrieval (%s) ===\n",
              options.quick ? "quick" : "full");
  BenchData data = MakeBenchData(options);

  Table table({"Dataset", "Method", "Acc.", "Prec.", "Rec.", "F1."});
  const cot::ChainConfig chain = OursChainConfig(options);
  // The generic "Videoformer" stand-in: a generalist tower not tuned on
  // the stress task.
  const auto& generic = ApiModel(vlm::ApiModelKind::kClaude35, options);

  for (const auto* dataset : {&data.uvsd, &data.rsl}) {
    Rng rng(options.seed ^ 0x7AB7);
    const auto split = data::StratifiedHoldout(*dataset, 0.2, &rng);
    const data::Dataset train = dataset->Subset(split.train);
    const data::Dataset test = dataset->Subset(split.test);
    auto model = TrainOurs(chain, data.disfa, train, test, options,
                           options.seed + 505);
    cot::ChainPipeline pipeline(model.get(), chain);
    cot::ExampleStore store(train, &generic.vision(), model.get(), &rng);

    for (auto method : {cot::RetrievalMethod::kNone,
                        cot::RetrievalMethod::kRandom,
                        cot::RetrievalMethod::kByVision,
                        cot::RetrievalMethod::kByDescription}) {
      const core::Metrics metrics =
          EvaluateWithRetrieval(pipeline, store, method, test, options);
      const auto row = metrics.ToRow();
      table.AddRow({dataset->name, cot::RetrievalMethodName(method), row[0],
                    row[1], row[2], row[3]});
      std::printf("  done: %s / %s\n", dataset->name.c_str(),
                  cot::RetrievalMethodName(method));
    }
    table.AddSeparator();
  }
  std::printf("\n%s\n", table.ToString().c_str());
  (void)table.WriteCsv("table7.csv");
  return 0;
}

}  // namespace
}  // namespace vsd::bench

int main(int argc, char** argv) { return vsd::bench::Main(argc, argv); }
