// Microbenchmarks (google-benchmark) for the substrate hot paths: tensor
// matmul, conv im2col forward/backward, face rendering, SLIC segmentation,
// one full chain inference, and the explainer perturbation loop with the
// graph executor off/on. These bound the per-sample costs reported in
// Figure 6. Besides the google-benchmark report, the binary writes a
// `BENCH_micro.json` sidecar with the compiled-vs-eager wall times of the
// perturbation loop, so CI can track the graph executor's speedup without
// parsing benchmark output. Kernel timings at the model's own shapes are
// the repository benchmark's `tensor.*` probes (benchmark/README.md).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>

#include "bench/harness.h"
#include "common/rng.h"
#include "cot/pipeline.h"
#include "data/generator.h"
#include "explain/occlusion.h"
#include "face/renderer.h"
#include "img/slic.h"
#include "nn/graph.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "vlm/foundation_model.h"

namespace {

namespace ag = ::vsd::autograd;
using ::vsd::Rng;
using ::vsd::tensor::Tensor;

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vsd::tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t{n} * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_ConvForwardBackward(benchmark::State& state) {
  Rng rng(2);
  vsd::nn::Conv2d conv(1, 8, 5, 2, 2, &rng);
  Tensor images = Tensor::Randn({8, 48, 48, 1}, &rng);
  for (auto _ : state) {
    vsd::nn::Var x(images, /*requires_grad=*/true);
    vsd::nn::Var loss = ag::MeanAll(conv.Forward(x));
    ag::Backward(loss);
    benchmark::DoNotOptimize(loss.value().at(0));
  }
}
BENCHMARK(BM_ConvForwardBackward);

void BM_RenderFace(benchmark::State& state) {
  Rng rng(3);
  vsd::face::FaceParams params;
  params.identity = vsd::face::Identity::Sample(&rng);
  params.au_intensity[2] = 0.8f;
  params.au_intensity[6] = 0.6f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vsd::face::RenderFace(params, &rng));
  }
}
BENCHMARK(BM_RenderFace);

void BM_Slic64(benchmark::State& state) {
  Rng rng(4);
  vsd::face::FaceParams params;
  params.identity = vsd::face::Identity::Sample(&rng);
  vsd::img::Image face = vsd::face::RenderFace(params, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vsd::img::Slic(face, 64));
  }
}
BENCHMARK(BM_Slic64);

void BM_ChainInference(benchmark::State& state) {
  // Full Describe -> Assess -> Highlight on uncached frames.
  vsd::data::Dataset dataset = vsd::data::MakeUvsdSimSmall(4, 5);
  vsd::vlm::FoundationModelConfig config;
  vsd::vlm::FoundationModel model(config);
  vsd::cot::ChainConfig chain;
  vsd::cot::ChainPipeline pipeline(&model, chain);
  Rng rng(6);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pipeline.Run(dataset.samples[i++ % dataset.size()], &rng));
  }
}
BENCHMARK(BM_ChainInference);

void BM_VisionEmbedPair(benchmark::State& state) {
  vsd::data::Dataset dataset = vsd::data::MakeUvsdSimSmall(2, 7);
  vsd::vlm::FoundationModelConfig config;
  vsd::vlm::FoundationModel model(config);
  const auto& sample = dataset.samples[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.vision().EmbedPair(
        sample.expressive_frame, sample.neutral_frame));
  }
}
BENCHMARK(BM_VisionEmbedPair);

// The explainer perturbation loop is the graph executor's flagship
// consumer: one OcclusionExplainer pass drives num_segments + 1 model
// forwards through the batched chain classifier. Arg(0) runs eager,
// Arg(1) compiled; both produce bit-identical attributions (pinned by
// tests/graph_exec_test.cc), so the delta is pure executor overhead.
void BM_ExplainerPerturbations(benchmark::State& state) {
  namespace graph = ::vsd::nn::graph;
  const bool previous = graph::GraphExecEnabled();
  graph::SetGraphExecEnabled(state.range(0) == 1);
  vsd::data::Dataset dataset = vsd::data::MakeUvsdSimSmall(2, 9);
  vsd::vlm::FoundationModelConfig config;
  vsd::vlm::FoundationModel model(config);
  const vsd::data::VideoSample& sample = dataset.samples[0];
  const vsd::img::Segmentation segmentation =
      vsd::img::Slic(sample.expressive_frame, vsd::bench::kNumSlicSegments);
  const vsd::explain::BatchClassifierFn classifier =
      vsd::bench::ModelBatchClassifier(model, sample, /*use_chain=*/true);
  const vsd::explain::OcclusionExplainer occlusion;
  Rng rng(77);
  for (auto _ : state) {
    benchmark::DoNotOptimize(occlusion.Explain(
        classifier, sample.expressive_frame, segmentation, &rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          (segmentation.num_segments + 1));
  graph::SetGraphExecEnabled(previous);
}
BENCHMARK(BM_ExplainerPerturbations)->Arg(0)->Arg(1);

/// Times the occlusion perturbation loop in both executor modes and writes
/// the `BENCH_micro.json` sidecar through bench::WriteSidecarFile. Runs
/// after the registered benchmarks so a `--benchmark_filter` run still
/// refreshes the sidecar.
void WriteGraphExecSidecar() {
  namespace graph = ::vsd::nn::graph;
  vsd::data::Dataset dataset = vsd::data::MakeUvsdSimSmall(2, 9);
  vsd::vlm::FoundationModelConfig config;
  vsd::vlm::FoundationModel model(config);
  const vsd::data::VideoSample& sample = dataset.samples[0];
  const vsd::img::Segmentation segmentation =
      vsd::img::Slic(sample.expressive_frame, vsd::bench::kNumSlicSegments);
  const vsd::explain::BatchClassifierFn classifier =
      vsd::bench::ModelBatchClassifier(model, sample, /*use_chain=*/true);
  const vsd::explain::OcclusionExplainer occlusion;
  constexpr int kRepeats = 3;
  const bool previous = graph::GraphExecEnabled();
  auto time_mode = [&](bool compiled) {
    graph::SetGraphExecEnabled(compiled);
    // Warm-up: pays one-time graph compilation and arena growth.
    vsd::Rng warm_rng(77);
    occlusion.Explain(classifier, sample.expressive_frame, segmentation,
                      &warm_rng);
    vsd::bench::PerfTimer timer;
    for (int r = 0; r < kRepeats; ++r) {
      vsd::Rng rng(100 + r);
      benchmark::DoNotOptimize(occlusion.Explain(
          classifier, sample.expressive_frame, segmentation, &rng));
    }
    return timer.Seconds();
  };
  const double eager_s = time_mode(false);
  const double compiled_s = time_mode(true);
  graph::SetGraphExecEnabled(previous);
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"bench\": \"micro\",\n"
                "  \"graph_exec_compare\": {\n"
                "    \"loop\": \"occlusion perturbations, chain classifier\",\n"
                "    \"segments\": %d,\n"
                "    \"forwards_per_pass\": %d,\n"
                "    \"repeats\": %d,\n"
                "    \"eager_wall_s\": %.6f,\n"
                "    \"compiled_wall_s\": %.6f,\n"
                "    \"compiled_speedup\": %.3f\n"
                "  },\n"
                "  \"simd_compiled\": %s\n"
                "}\n",
                segmentation.num_segments, segmentation.num_segments + 1,
                kRepeats, eager_s, compiled_s,
                compiled_s > 0.0 ? eager_s / compiled_s : 0.0,
                vsd::tensor::kernels::SimdCompiled() ? "true" : "false");
  if (!vsd::bench::WriteSidecarFile("BENCH_micro.json", buf)) return;
  std::fprintf(stderr,
               "[bench] graph exec: eager %.3fs compiled %.3fs (x%.2f) -> "
               "BENCH_micro.json\n",
               eager_s, compiled_s,
               compiled_s > 0.0 ? eager_s / compiled_s : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteGraphExecSidecar();
  return 0;
}
