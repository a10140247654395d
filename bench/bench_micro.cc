// Microbenchmarks (google-benchmark) for the substrate hot paths: tensor
// matmul, conv im2col forward/backward, face rendering, SLIC segmentation,
// one full chain inference, and the explainer perturbation loop with the
// graph executor off/on. These bound the per-sample costs reported in
// Figure 6. Besides the google-benchmark report, the binary writes a
// `BENCH_micro.json` sidecar with the compiled-vs-eager wall times of the
// perturbation loop plus a per-kernel roofline section (elements/s and
// bytes moved per op, scalar vs SIMD vs int8), so CI can track both the
// graph executor's speedup and the kernel backends without parsing
// benchmark output.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

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

// ---- Per-kernel roofline: scalar vs SIMD vs int8 ----

/// Times `fn` (after one warm-up call) until ~40ms of wall clock has
/// accumulated, in batches of 8 so timer overhead stays negligible.
/// Returns {iters, seconds}.
template <typename Fn>
std::pair<int64_t, double> TimeKernelLoop(Fn&& fn) {
  fn();
  vsd::bench::PerfTimer timer;
  int64_t iters = 0;
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 8; ++i) fn();
    iters += 8;
    elapsed = timer.Seconds();
  } while (elapsed < 0.04);
  return {iters, elapsed};
}

/// One roofline row: times `fn` under `backend` and appends a JSON object
/// to `rows`. `elems` is output elements per call; `bytes` is the minimum
/// bytes moved per call (each operand read once + output written once),
/// so gb_per_s is the achieved lower-bound bandwidth of the op.
template <typename Fn>
void RooflineRow(std::string* rows, const char* op, const char* dtype,
                 vsd::tensor::kernels::Backend backend, const char* shape,
                 int64_t elems, int64_t bytes, Fn&& fn) {
  namespace k = ::vsd::tensor::kernels;
  k::SetBackend(backend);
  const auto [iters, secs] = TimeKernelLoop(fn);
  k::ClearBackendOverride();
  const double elems_per_s =
      secs > 0.0 ? static_cast<double>(elems) * static_cast<double>(iters) / secs : 0.0;
  const double gb_per_s =
      secs > 0.0
          ? static_cast<double>(bytes) * static_cast<double>(iters) / secs / 1e9
          : 0.0;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"op\": \"%s\", \"dtype\": \"%s\", \"backend\": \"%s\","
                " \"shape\": \"%s\", \"iters\": %lld, \"wall_s\": %.6f,"
                " \"gelems_per_s\": %.4f, \"bytes_per_call\": %lld,"
                " \"gb_per_s\": %.4f}",
                op, dtype, k::BackendName(backend), shape,
                static_cast<long long>(iters), secs, elems_per_s / 1e9,
                static_cast<long long>(bytes), gb_per_s);
  if (!rows->empty()) *rows += ",\n";
  *rows += buf;
  std::fprintf(stderr, "[bench] roofline %-10s %-4s %-6s %.3f Gelem/s %.2f GB/s\n",
               op, dtype, k::BackendName(backend), elems_per_s / 1e9,
               gb_per_s);
}

/// Benchmarks every vector kernel under each compiled backend and
/// returns the JSON rows of the sidecar's "roofline" array. Shapes are
/// fixed mid-size workloads; bytes assume each operand is touched once.
std::string RooflineJson() {
  namespace k = ::vsd::tensor::kernels;
  Rng rng(11);
  constexpr int kM = 64, kK = 256, kN = 256;
  Tensor a = Tensor::Randn({kM, kK}, &rng);
  Tensor b = Tensor::Randn({kK, kN}, &rng);
  const Tensor bq = b.QuantizeInt8();
  std::vector<float> out(static_cast<size_t>(kM) * kN);
  constexpr int kRows = 256, kCols = 256;
  Tensor rows_in = Tensor::Randn({kRows, kCols}, &rng);
  Tensor bias = Tensor::Randn({kCols}, &rng);
  std::vector<float> rows_out(static_cast<size_t>(kRows) * kCols);
  constexpr int kMapN = 1 << 16;
  Tensor map_in = Tensor::Randn({kMapN}, &rng);
  std::vector<float> map_out(kMapN);
  constexpr int kDa = 128, kDb = 128;
  Tensor ca = Tensor::Randn({kRows, kDa}, &rng);
  Tensor cb = Tensor::Randn({kRows, kDb}, &rng);
  std::vector<float> cat_out(static_cast<size_t>(kRows) * (kDa + kDb));

  std::vector<k::Backend> backends = {k::Backend::kScalar};
  if (k::SimdCompiled()) backends.push_back(k::Backend::kSimd);

  std::string rows;
  for (k::Backend be : backends) {
    RooflineRow(&rows, "MatMul", "f32", be, "64x256x256",
                int64_t{kM} * kN,
                int64_t{4} * (kM * kK + kK * kN + kM * kN), [&] {
                  k::MatMulInto(a.data(), b.data(), out.data(), kM, kK, kN);
                  benchmark::DoNotOptimize(out.data());
                });
    RooflineRow(&rows, "MatMul", "i8", be, "64x256x256",
                int64_t{kM} * kN,
                // fp32 a + int8 b + per-row scale/zero + fp32 out.
                int64_t{4} * kM * kK + int64_t{kK} * kN + int64_t{8} * kK +
                    int64_t{4} * kM * kN,
                [&] {
                  k::MatMulI8Into(a.data(), bq.qdata(), bq.qscale(),
                                  bq.qzero(), out.data(), kM, kK, kN);
                  benchmark::DoNotOptimize(out.data());
                });
    RooflineRow(&rows, "AddRows", "f32", be, "256x256",
                int64_t{kRows} * kCols,
                int64_t{4} * (2 * kRows * kCols + kCols), [&] {
                  k::AddRowsInto(rows_in.data(), bias.data(), rows_out.data(),
                                 kRows, kCols);
                  benchmark::DoNotOptimize(rows_out.data());
                });
    RooflineRow(&rows, "Relu", "f32", be, "65536", int64_t{kMapN},
                int64_t{4} * 2 * kMapN, [&] {
                  k::ReluInto(map_in.data(), map_out.data(), kMapN);
                  benchmark::DoNotOptimize(map_out.data());
                });
    RooflineRow(&rows, "Gelu", "f32", be, "65536", int64_t{kMapN},
                int64_t{4} * 2 * kMapN, [&] {
                  k::GeluInto(map_in.data(), map_out.data(), kMapN);
                  benchmark::DoNotOptimize(map_out.data());
                });
    RooflineRow(&rows, "ConcatRows", "f32", be, "256x(128+128)",
                int64_t{kRows} * (kDa + kDb),
                int64_t{4} * 2 * kRows * (kDa + kDb), [&] {
                  k::ConcatRowsInto(ca.data(), cb.data(), cat_out.data(),
                                    kRows, kDa, kDb);
                  benchmark::DoNotOptimize(cat_out.data());
                });
  }
  return rows;
}

/// Times the occlusion perturbation loop in both executor modes, runs the
/// per-kernel roofline, and writes the `BENCH_micro.json` sidecar through
/// bench::WriteSidecarFile. Runs after the registered benchmarks so a
/// `--benchmark_filter` run still refreshes the sidecar.
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
  const std::string roofline = RooflineJson();
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
                "  \"simd_compiled\": %s,\n"
                "  \"roofline\": [\n",
                segmentation.num_segments, segmentation.num_segments + 1,
                kRepeats, eager_s, compiled_s,
                compiled_s > 0.0 ? eager_s / compiled_s : 0.0,
                vsd::tensor::kernels::SimdCompiled() ? "true" : "false");
  const std::string json = std::string(buf) + roofline + "\n  ]\n}\n";
  if (!vsd::bench::WriteSidecarFile("BENCH_micro.json", json)) return;
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
