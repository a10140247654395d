// The layer-probe pass behind every per-layer metric. Each probe times
// calls into one layer's public functions from outside, on a probe set
// drawn from the workload seed, so the same numbers come out of every
// workload's traced run. Which end-to-end metric each should move is in
// README.md.

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "cot/pipeline.h"
#include "data/generator.h"
#include "explain/explainer.h"
#include "explain_timing.h"
#include "load_generator.h"
#include "nn/optimizer.h"
#include "stats.h"
#include "tensor/autograd.h"
#include "tensor/kernels.h"
#include "workload.h"

namespace vsd::benchmark {
namespace {

constexpr int kProbeClips = 256;
/// Minimum wall time per probe; each reports the median call.
constexpr double kProbeSeconds = 0.15;

using Samples = std::span<const data::VideoSample* const>;

/// Median per-call microseconds of `fn`, called at least `min_calls`
/// times and for at least `min_seconds`.
template <typename Fn>
double MedianCallUs(Fn&& fn, int min_calls, double min_seconds) {
  std::vector<double> calls;
  const int64_t start = NowNs();
  while (static_cast<int>(calls.size()) < min_calls ||
         SecondsSince(start) < min_seconds) {
    const int64_t t0 = NowNs();
    fn();
    calls.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Median(std::move(calls));
}

double MatMulGflops(int m, int k, int n, Rng* rng) {
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(k) * n);
  std::vector<float> c(static_cast<size_t>(m) * n);
  for (float& x : a) x = static_cast<float>(rng->Normal());
  for (float& x : b) x = static_cast<float>(rng->Normal());
  const double us = MedianCallUs(
      [&] {
        tensor::kernels::MatMulInto(a.data(), b.data(), c.data(), m, k, n);
      },
      50, kProbeSeconds);
  return 2.0 * m * k * n / (us * 1e3);
}

void ProbeServe(const cot::ChainPipeline& pipeline,
                const data::Dataset& probe_set, uint64_t seed, Metrics* m) {
  std::vector<data::VideoSample> clips = probe_set.samples;
  // Labels of the per-layer keys; the phases carry a "probe_" prefix so
  // their spans stay apart from serve_open's own phases.
  const char* labels[3] = {"r500", "r1500", "peak"};
  PhaseStats phases[3];
  phases[0].name = "probe_r500";
  phases[0].rate = 500.0;
  phases[1].name = "probe_r1500";
  phases[1].rate = 1500.0;
  phases[2].name = "probe_peak";
  {
    LoadGenerator load(&pipeline, &clips, nullptr);
    load.RunOpen(1.0, DeriveSeed(seed, 40), &phases[0]);
    load.RunOpen(1.0, DeriveSeed(seed, 41), &phases[1]);
    load.RunClosed(32, 0.5, &phases[2]);
  }
  std::vector<double> submit_us;
  // Replica shares over both open-loop phases.
  PhaseStats open;
  open.per_replica.assign(kReplicas, 0);
  for (int p = 0; p < 3; ++p) {
    const PhaseStats& phase = phases[p];
    submit_us.insert(submit_us.end(), phase.submit_us.begin(),
                     phase.submit_us.end());
    (*m)[std::string("serve.batch_fill.") + labels[p]] = {
        phase.MeanBatchFill(), "req/batch"};
    (*m)[std::string("serve.batches_cut.") + labels[p]] = {
        static_cast<double>(phase.batches_cut), "count"};
  }
  (*m)["serve.submit_us_p50"] = {NearestRank(submit_us, 0.5).value, "us"};
  double late = 0.0;
  for (int p = 0; p < 2; ++p) {
    const PhaseStats& phase = phases[p];
    for (int r = 0; r < kReplicas; ++r) {
      open.per_replica[r] += phase.per_replica[r];
    }
    late = std::max(late, phase.outcome.gen_late_us_p99);
    // Queue wait: latency beyond one TryPredictBatch at the phase's fill.
    const int fill = std::clamp(
        static_cast<int>(std::lround(phase.MeanBatchFill())), 1, 8);
    std::vector<const data::VideoSample*> batch;
    for (int i = 0; i < fill; ++i) batch.push_back(&clips[static_cast<size_t>(i)]);
    const double predict_ms =
        MedianCallUs([&] { (void)pipeline.TryPredictBatch(batch); }, 20,
                     kProbeSeconds) /
        1e3;
    (*m)[std::string("serve.wait_ms_p50.") + labels[p]] = {
        NearestRank(phase.outcome.latency_ms, 0.5).value - predict_ms, "ms"};
  }
  (*m)["serve.replica_share_max"] = {open.ReplicaShareMax(), "ratio"};
  (*m)["serve.gen_late_us_p99"] = {late, "us"};
}

void ProbeExplain(const vlm::FoundationModel& model,
                  const data::VideoSample& clip, uint64_t seed, Metrics* m) {
  const img::Segmentation segmentation =
      img::Slic(clip.expressive_frame, kSlicSegments);
  const face::AuMask description = GreedyDescription(model, clip);
  for (const NamedExplainer& named : Fig6Explainers()) {
    Rng rng(DeriveSeed(seed, 42));
    const ExplainTiming t =
        TimeExplain(named, model, clip, description, segmentation, &rng);
    (*m)["explain.evals." + named.name] = {
        static_cast<double>(t.attribution.model_evaluations), "count"};
    (*m)["explain.classifier_share." + named.name] = {t.classifier_ms / t.ms,
                                                      "ratio"};
  }
  Rng rng(DeriveSeed(seed, 43));
  std::vector<float> keep(static_cast<size_t>(segmentation.num_segments));
  for (float& k : keep) k = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  (*m)["explain.mask_us"] = {
      MedianCallUs(
          [&] {
            (void)explain::ApplySegmentMask(clip.expressive_frame,
                                            segmentation, keep);
          },
          50, kProbeSeconds),
      "us"};
}

}  // namespace

Metrics RunProbes(const vlm::FoundationModel& backbone, uint64_t seed) {
  Metrics m;
  ScopedSpan root("bench.probes");

  int64_t t0 = NowNs();
  data::Dataset probe_set;
  {
    ScopedSpan span("data.probe");
    probe_set = data::MakeUvsdSimSmall(kProbeClips, DeriveSeed(seed, 30));
  }
  m["data.generate_ms_per_clip"] = {SecondsSince(t0) * 1e3 / kProbeClips,
                                    "ms"};
  std::vector<const data::VideoSample*> clips;
  std::vector<const img::Image*> expressive;
  std::vector<const img::Image*> neutral;
  for (const data::VideoSample& s : probe_set.samples) {
    clips.push_back(&s);
    expressive.push_back(&s.expressive_frame);
    neutral.push_back(&s.neutral_frame);
  }
  const auto first = [&clips](int n) { return Samples(clips.data(), n); };

  // A private copy with an empty feature cache: every probe below that
  // says "uncached" runs the vision tower.
  auto model = backbone.Clone();
  model->ClearFeatureCache();
  const cot::ChainConfig chain = QuickChainConfig();
  const cot::ChainPipeline pipeline(model.get(), chain);
  const vlm::VisionTower& vision = model->vision();

  std::map<int, double> encode_call_us;  // Batch size -> us per call.
  {
    ScopedSpan span("vlm.probe.encode");
    for (int b : {1, 8, 32}) {
      encode_call_us[b] = MedianCallUs(
          [&] {
            (void)vision.EmbedPairs(
                std::span<const img::Image* const>(expressive.data(), b),
                std::span<const img::Image* const>(neutral.data(), b));
          },
          10, kProbeSeconds);
      m["vlm.encode_us.b" + std::to_string(b)] = {encode_call_us[b] / b, "us"};
    }
  }
  {
    ScopedSpan span("cot.probe.uncached");
    const double try1 = MedianCallUs(
        [&] { (void)pipeline.TryPredictBatch(first(1)); }, 10, kProbeSeconds);
    std::vector<face::AuMask> masks8(8);
    const auto probs8 = model->DescribeProbsBatch(first(8));
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < face::kNumAus; ++j) masks8[i][j] = probs8[i][j] > 0.5;
    }
    // The chain's own time is a small difference of large calls, so the
    // three calls are timed back to back and the difference taken per round.
    std::vector<double> try8_us;
    std::vector<double> self8_us;
    const int64_t start = NowNs();
    while (try8_us.size() < 10 || SecondsSince(start) < kProbeSeconds) {
      const int64_t t0 = NowNs();
      (void)pipeline.TryPredictBatch(first(8));
      const int64_t t1 = NowNs();
      (void)model->DescribeProbsBatch(first(8));
      const int64_t t2 = NowNs();
      (void)model->AssessProbStressedBatch(first(8), masks8);
      const int64_t t3 = NowNs();
      try8_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      self8_us.push_back(static_cast<double>((t1 - t0) - (t2 - t1) - (t3 - t2)) /
                         1e3);
    }
    const double try8 = Median(std::move(try8_us));
    m["cot.try_predict_us.b1"] = {try1, "us"};
    m["cot.try_predict_us.b8"] = {try8 / 8, "us"};
    m["cot.self_us.b8"] = {Median(std::move(self8_us)), "us"};
    m["vlm.encode_share.predict_b8"] = {encode_call_us[8] / try8, "ratio"};
    Rng rng(DeriveSeed(seed, 31));
    Rng* one_rng[] = {&rng};
    const double run1 = MedianCallUs(
        [&] { (void)pipeline.RunBatch(first(1), one_rng); }, 10,
        kProbeSeconds);
    m["cot.run_batch_ms.uncached_b1"] = {run1 / 1e3, "ms"};
    m["vlm.encode_share.chain_b1"] = {encode_call_us[1] / run1, "ratio"};

    const face::AuMask description = GreedyDescription(*model, *clips[0]);
    const double shared = MedianCallUs(
        [&] {
          (void)model->AssessProbStressedWithFramesBatch(
              std::span<const img::Image* const>(expressive.data(), 32),
              clips[0]->neutral_frame, description);
        },
        10, kProbeSeconds);
    m["vlm.encode_shared_neutral_us.b32"] = {shared / 32, "us"};
  }

  {
    ScopedSpan span("serve.probe");
    ProbeServe(pipeline, probe_set, seed, &m);
  }
  {
    ScopedSpan span("explain.probe");
    ProbeExplain(*model, probe_set.samples[0], seed, &m);
  }
  {
    ScopedSpan span("img.probe.slic");
    size_t next = 0;
    m["img.slic_ms_per_frame"] = {
        MedianCallUs(
            [&] {
              (void)img::Slic(clips[next++ % clips.size()]->expressive_frame,
                              kSlicSegments);
            },
            8, kProbeSeconds) /
            1e3,
        "ms"};
  }

  {
    ScopedSpan span("vlm.probe.precompute");
    m["vlm.precompute_us_per_clip"] = {
        MedianCallUs(
            [&] {
              model->ClearFeatureCache();
              model->PrecomputeFeatures(probe_set);
            },
            3, 0.0) /
            kProbeClips,
        "us"};
  }

  // Features are now cached for the probe set.
  std::vector<Rng> rngs;
  std::vector<Rng*> rng_ptrs;
  for (int i = 0; i < 32; ++i) rngs.emplace_back(DeriveSeed(seed, 32) + i);
  for (Rng& r : rngs) rng_ptrs.push_back(&r);
  std::vector<face::AuMask> masks32(32);
  std::vector<int> labels32(32);
  {
    ScopedSpan span("cot.probe.cached");
    m["cot.run_batch_us.cached_b32"] = {
        MedianCallUs([&] { (void)pipeline.RunBatch(first(32), rng_ptrs); },
                     20, kProbeSeconds),
        "us"};
    const auto probs32 = model->DescribeProbsBatch(first(32));
    for (int i = 0; i < 32; ++i) {
      for (int j = 0; j < face::kNumAus; ++j) {
        masks32[i][j] = probs32[i][j] > 0.5;
      }
    }
    const auto assessed = model->AssessBatch(first(32), masks32, 0.0, {});
    for (int i = 0; i < 32; ++i) labels32[i] = assessed[i].label;
    m["vlm.describe_us.cached_b32"] = {
        MedianCallUs(
            [&] {
              (void)model->DescribeBatch(first(32), chain.describe_temperature,
                                         rng_ptrs);
            },
            20, kProbeSeconds),
        "us"};
    m["vlm.logprob_us.cached_b32"] = {
        MedianCallUs(
            [&] { (void)model->DescriptionLogProbBatch(first(32), masks32); },
            20, kProbeSeconds),
        "us"};
    m["vlm.assess_us.cached_b32"] = {
        MedianCallUs(
            [&] { (void)model->AssessBatch(first(32), masks32, 0.0, {}); }, 20,
            kProbeSeconds),
        "us"};
    m["vlm.highlight_us.cached_b32"] = {
        MedianCallUs(
            [&] {
              (void)model->HighlightBatch(first(32), masks32, labels32,
                                          chain.rationale_length,
                                          chain.highlight_temperature,
                                          rng_ptrs);
            },
            20, kProbeSeconds),
        "us"};
  }

  {
    // Kernels at the model's own shapes: the b8 pair encode's projection
    // and second convolution, and the assess head's first layer at b32.
    ScopedSpan span("tensor.probe");
    const vlm::FoundationModelConfig& config = model->config();
    const int spatial = vision.input_size() / 4;
    const int trunk_out = config.hidden_dim + 2 * config.vision_dim;
    Rng rng(DeriveSeed(seed, 33));
    m["tensor.matmul_gflops.encode_proj"] = {
        MatMulGflops(16, spatial * spatial * 16, config.vision_dim, &rng),
        "GFLOP/s"};
    m["tensor.matmul_gflops.conv2"] = {
        MatMulGflops(16 * spatial * spatial, 3 * 3 * 8, 16, &rng), "GFLOP/s"};
    m["tensor.matmul_gflops.assess_head"] = {
        MatMulGflops(32, trunk_out + face::kNumAus + config.au_feature_dim, 64,
                     &rng),
        "GFLOP/s"};
    const int rows = 32;
    std::vector<float> x(static_cast<size_t>(rows) * config.hidden_dim);
    std::vector<float> y(x.size());
    std::vector<float> bias(64);
    for (float& v : x) v = static_cast<float>(rng.Normal());
    for (float& v : bias) v = static_cast<float>(rng.Normal());
    const int n = static_cast<int>(x.size());
    const double gelu_us = MedianCallUs(
        [&] { tensor::kernels::GeluInto(x.data(), y.data(), n); }, 200,
        kProbeSeconds);
    m["tensor.gelu_gbps"] = {2.0 * n * sizeof(float) / (gelu_us * 1e3),
                             "GB/s"};
    const double addrows_us = MedianCallUs(
        [&] {
          tensor::kernels::AddRowsInto(x.data(), bias.data(), y.data(), rows,
                                       64);
        },
        200, kProbeSeconds);
    m["tensor.addrows_gbps"] = {
        (2.0 * rows * 64 + 64) * sizeof(float) / (addrows_us * 1e3), "GB/s"};
  }

  {
    // Training-side probes last: the optimizer step rewrites the weights.
    ScopedSpan span("tensor.probe.autograd");
    const std::vector<const data::VideoSample*> batch(clips.begin(),
                                                      clips.begin() + 32);
    std::vector<face::AuMask> targets;
    std::vector<int> stress;
    for (const data::VideoSample* s : batch) {
      targets.push_back(s->au_label);
      stress.push_back(s->stress_label);
    }
    m["tensor.autograd.describe_loss_fwd_bwd_ms.b32"] = {
        MedianCallUs(
            [&] {
              autograd::Backward(model->DescribeLoss(batch, targets, false));
              model->ZeroGrad();
            },
            10, kProbeSeconds) /
            1e3,
        "ms"};
    m["tensor.autograd.assess_loss_fwd_bwd_ms.b32"] = {
        MedianCallUs(
            [&] {
              autograd::Backward(model->AssessLoss(batch, masks32, stress));
              model->ZeroGrad();
            },
            10, kProbeSeconds) /
            1e3,
        "ms"};
    // Leaves gradients in place for the optimizer probe.
    autograd::Backward(model->AssessLoss(batch, masks32, stress));
  }
  {
    ScopedSpan span("nn.probe.adam");
    nn::Adam adam(model->HeadParameters(), 1e-6f);
    m["nn.adam_step_ms"] = {
        MedianCallUs([&] { adam.Step(); }, 20, kProbeSeconds) / 1e3, "ms"};
  }
  return m;
}

}  // namespace vsd::benchmark
