// Equivalence + allocation harness for the graph-compiled executor
// (nn/graph.h). Three contracts are pinned here:
//
//  1. Bit-identity: with graph execution on, every wired inference surface
//     (pipeline predictions, model heads, explainer attributions, the
//     fallible Try* paths) produces results bit-identical to the eager
//     reference, across a (batch size, thread count) sweep.
//  2. Zero allocations: GraphExecutor::Execute performs no heap
//     allocations after warm-up, enforced with the counting allocator in
//     common/alloc_stats.h (alloc_hook.cc is linked into this test only).
//  3. Arena hygiene: executing with fresh inputs on a reused arena cannot
//     leak values from the previous batch.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/alloc_stats.h"
#include "common/batching.h"
#include "common/faults.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "cot/chain_config.h"
#include "cot/pipeline.h"
#include "data/generator.h"
#include "explain/kernel_shap.h"
#include "explain/lime.h"
#include "explain/occlusion.h"
#include "explain/sobol.h"
#include "img/slic.h"
#include "nn/graph.h"
#include "nn/layers.h"
#include "tensor/kernels.h"
#include "vlm/foundation_model.h"
#include "vlm/quantize.h"
#include "vlm/vision.h"

namespace vsd {
namespace {

namespace graph = ::vsd::nn::graph;

/// Flips compiled execution on/off for a scope and restores the previous
/// mode on exit, so tests compose regardless of VSD_GRAPH_EXEC.
class GraphModeGuard {
 public:
  explicit GraphModeGuard(bool enabled)
      : previous_(graph::GraphExecEnabled()) {
    graph::SetGraphExecEnabled(enabled);
  }
  ~GraphModeGuard() { graph::SetGraphExecEnabled(previous_); }
  GraphModeGuard(const GraphModeGuard&) = delete;
  GraphModeGuard& operator=(const GraphModeGuard&) = delete;

 private:
  bool previous_;
};

/// Pins the kernel backend for a scope (tensor/kernels.h) and drops the
/// override on exit, so tests compose regardless of VSD_BACKEND.
class BackendGuard {
 public:
  explicit BackendGuard(tensor::kernels::Backend backend) {
    tensor::kernels::SetBackend(backend);
  }
  ~BackendGuard() { tensor::kernels::ClearBackendOverride(); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

/// Same small untrained world as batch_equivalence_test: deterministic and
/// cheap, which is all equivalence testing needs.
struct ModelWorld {
  data::Dataset dataset;
  vlm::FoundationModel model;

  ModelWorld()
      : dataset(data::MakeUvsdSimSmall(48, 1234)), model(MakeConfig()) {
    model.PrecomputeFeatures(dataset);
  }

  std::vector<const data::VideoSample*> Pointers(int n) const {
    std::vector<const data::VideoSample*> out;
    for (int i = 0; i < n && i < dataset.size(); ++i) {
      out.push_back(&dataset.samples[i]);
    }
    return out;
  }

  static vlm::FoundationModelConfig MakeConfig() {
    vlm::FoundationModelConfig config;
    config.vision_dim = 12;
    config.hidden_dim = 24;
    config.au_feature_dim = 12;
    config.seed = 9;
    return config;
  }
};

/// Parameterized over (batch size, thread count), like the batched-path
/// equivalence suite: compiled-vs-eager identity must hold at every point
/// of the sweep, including under concurrent executor leases.
class GraphExecTest : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  void SetUp() override {
    SetDefaultBatchSize(std::get<0>(GetParam()));
    ThreadPool::SetGlobalThreads(std::get<1>(GetParam()));
  }
  void TearDown() override {
    FaultInjector::Global().Disable();
    ThreadPool::SetGlobalThreads(1);
    SetDefaultBatchSize(32);
  }
};

/// Everything the pipeline answers for one batch, in one execution mode.
struct PipelineOutputs {
  std::vector<double> probs;
  std::vector<int> labels;
  std::vector<vsd::Result<double>> tried;
  std::vector<cot::ChainOutput> chains;
};

PipelineOutputs RunPipeline(const cot::ChainPipeline& pipeline,
                            vlm::FoundationModel::SampleSpan samples) {
  PipelineOutputs out;
  out.probs = pipeline.PredictBatch(samples);
  out.labels = pipeline.PredictLabelBatch(samples);
  out.tried = pipeline.TryPredictBatch(samples);
  std::vector<Rng> rngs;
  rngs.reserve(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) rngs.emplace_back(900 + i);
  std::vector<Rng*> rng_ptrs;
  for (auto& rng : rngs) rng_ptrs.push_back(&rng);
  out.chains = pipeline.RunBatch(samples, rng_ptrs);
  return out;
}

/// Bitwise double equality (EXPECT_EQ would equate 0.0 and -0.0).
void ExpectSameBits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void ExpectPipelineOutputsIdentical(const PipelineOutputs& a,
                                    const PipelineOutputs& b) {
  ASSERT_EQ(a.probs.size(), b.probs.size());
  ASSERT_EQ(a.tried.size(), b.tried.size());
  ASSERT_EQ(a.chains.size(), b.chains.size());
  EXPECT_EQ(a.labels, b.labels);
  for (size_t i = 0; i < a.probs.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    ExpectSameBits(a.probs[i], b.probs[i], "PredictBatch");
    ASSERT_TRUE(a.tried[i].ok() && b.tried[i].ok());
    ExpectSameBits(a.tried[i].value(), b.tried[i].value(), "TryPredictBatch");
    const cot::ChainOutput& x = a.chains[i];
    const cot::ChainOutput& y = b.chains[i];
    EXPECT_EQ(x.describe.mask, y.describe.mask);
    EXPECT_EQ(x.describe.text, y.describe.text);
    ExpectSameBits(x.describe.log_prob, y.describe.log_prob,
                   "describe.log_prob");
    EXPECT_EQ(x.assess.label, y.assess.label);
    ExpectSameBits(x.assess.prob_stressed, y.assess.prob_stressed,
                   "assess.prob_stressed");
    EXPECT_EQ(x.assess.text, y.assess.text);
    EXPECT_EQ(x.highlight.ranked_aus, y.highlight.ranked_aus);
    EXPECT_EQ(x.highlight.text, y.highlight.text);
  }
}

TEST_P(GraphExecTest, PipelinePredictionsCompiledMatchEager) {
  // Cached and uncached features (uncached is the path serving and the
  // chain's Fig. 6 explanation run: the clip is encoded inside the call),
  // with the chain on and off ("w/o Chain" still reads the describe
  // logits for Assess's posterior and reports a log-prob).
  ModelWorld world;
  const auto samples = world.Pointers(world.dataset.size());
  for (const bool cached : {true, false}) {
    if (!cached) world.model.ClearFeatureCache();
    for (const bool use_chain : {true, false}) {
      SCOPED_TRACE(std::string(cached ? "cached" : "uncached") +
                   (use_chain ? ", chain" : ", w/o chain"));
      cot::ChainConfig chain;
      chain.use_chain = use_chain;
      const cot::ChainPipeline pipeline(&world.model, chain);
      PipelineOutputs eager;
      {
        GraphModeGuard mode(false);
        eager = RunPipeline(pipeline, samples);
      }
      GraphModeGuard mode(true);
      ExpectPipelineOutputsIdentical(RunPipeline(pipeline, samples), eager);
    }
  }
}

TEST_P(GraphExecTest, ModelHeadsCompiledMatchEager) {
  ModelWorld world;
  const auto samples = world.Pointers(9);
  std::vector<face::AuMask> descriptions(samples.size());
  std::vector<int> assessments(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    descriptions[i][i % face::kNumAus] = true;
    descriptions[i][(3 * i) % face::kNumAus] = true;
    assessments[i] = static_cast<int>(i) % 2;
  }

  std::vector<std::vector<double>> eager_probs;
  std::vector<double> eager_log_probs;
  std::vector<double> eager_assess;
  std::vector<std::vector<int>> eager_rationales;
  {
    GraphModeGuard eager(false);
    eager_probs = world.model.DescribeProbsBatch(samples);
    eager_log_probs =
        world.model.DescriptionLogProbBatch(samples, descriptions);
    eager_assess =
        world.model.AssessProbStressedBatch(samples, descriptions);
    for (const auto& result :
         world.model.HighlightBatch(samples, descriptions, assessments,
                                    /*top_m=*/3, /*temperature=*/0.0, {})) {
      eager_rationales.push_back(result.ranked_aus);
    }
  }

  GraphModeGuard compiled(true);
  EXPECT_EQ(world.model.DescribeProbsBatch(samples), eager_probs);
  EXPECT_EQ(world.model.DescriptionLogProbBatch(samples, descriptions),
            eager_log_probs);
  EXPECT_EQ(world.model.AssessProbStressedBatch(samples, descriptions),
            eager_assess);
  const auto highlights =
      world.model.HighlightBatch(samples, descriptions, assessments,
                                 /*top_m=*/3, /*temperature=*/0.0, {});
  ASSERT_EQ(highlights.size(), eager_rationales.size());
  for (size_t i = 0; i < highlights.size(); ++i) {
    EXPECT_EQ(highlights[i].ranked_aus, eager_rationales[i])
        << "sample " << i;
  }
}

TEST_P(GraphExecTest, ExplainerAttributionsCompiledMatchEager) {
  ModelWorld world;
  const data::VideoSample& sample = world.dataset.samples[0];
  const img::Segmentation segmentation =
      img::Slic(sample.expressive_frame, bench::kNumSlicSegments);
  const explain::BatchClassifierFn classifier =
      bench::ModelBatchClassifier(world.model, sample, /*use_chain=*/true);

  const explain::LimeExplainer lime(48);
  const explain::KernelShapExplainer shap(48);
  const explain::SobolExplainer sobol(3);
  const explain::OcclusionExplainer occlusion;
  const std::vector<const explain::Explainer*> explainers = {
      &lime, &shap, &sobol, &occlusion};

  for (const explain::Explainer* explainer : explainers) {
    std::vector<double> eager_scores;
    {
      GraphModeGuard eager(false);
      Rng rng(321);
      eager_scores = explainer
                         ->Explain(classifier, sample.expressive_frame,
                                   segmentation, &rng)
                         .segment_scores;
    }
    GraphModeGuard compiled(true);
    Rng rng(321);
    const std::vector<double> compiled_scores =
        explainer
            ->Explain(classifier, sample.expressive_frame, segmentation,
                      &rng)
            .segment_scores;
    EXPECT_EQ(compiled_scores, eager_scores) << explainer->name();
  }
}

TEST_P(GraphExecTest, TryPathsCompiledMatchEager) {
  ModelWorld world;
  const auto samples = world.Pointers(10);
  std::vector<const img::Image*> images;
  std::vector<const img::Image*> neutrals;
  for (const auto* s : samples) {
    images.push_back(&s->expressive_frame);
    neutrals.push_back(&s->neutral_frame);
  }
  const auto& vision = world.model.vision();

  // Injected per-frame faults key off frame content, so both modes see the
  // exact same fault schedule; the surfaced Status must match too.
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = 11;
  faults.corrupt_rate = 0.08;
  faults.nan_rate = 0.1;
  FaultInjector::Global().Configure(faults);

  for (const bool fault_round : {false, true}) {
    if (!fault_round) FaultInjector::Global().Disable();
    if (fault_round) FaultInjector::Global().Configure(faults);

    vsd::Result<tensor::Tensor> eager_encode = Status::Internal("unset");
    vsd::Result<tensor::Tensor> eager_pairs = Status::Internal("unset");
    {
      GraphModeGuard eager(false);
      eager_encode = vision.TryEncodeBatch(images);
      eager_pairs = vision.TryEmbedPairs(images, neutrals);
    }
    GraphModeGuard compiled(true);
    const vsd::Result<tensor::Tensor> compiled_encode =
        vision.TryEncodeBatch(images);
    const vsd::Result<tensor::Tensor> compiled_pairs =
        vision.TryEmbedPairs(images, neutrals);

    ASSERT_EQ(compiled_encode.ok(), eager_encode.ok())
        << "fault_round " << fault_round;
    ASSERT_EQ(compiled_pairs.ok(), eager_pairs.ok())
        << "fault_round " << fault_round;
    if (compiled_encode.ok()) {
      const tensor::Tensor& a = compiled_encode.value();
      const tensor::Tensor& b = eager_encode.value();
      ASSERT_EQ(a.size(), b.size());
      for (int i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.at(i), b.at(i)) << "TryEncodeBatch element " << i;
      }
    } else {
      EXPECT_EQ(compiled_encode.status().ToString(),
                eager_encode.status().ToString());
    }
    if (compiled_pairs.ok()) {
      const tensor::Tensor& a = compiled_pairs.value();
      const tensor::Tensor& b = eager_pairs.value();
      ASSERT_EQ(a.size(), b.size());
      for (int i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.at(i), b.at(i)) << "TryEmbedPairs element " << i;
      }
    } else {
      EXPECT_EQ(compiled_pairs.status().ToString(),
                eager_pairs.status().ToString());
    }
  }
  FaultInjector::Global().Disable();
}

TEST_P(GraphExecTest, RepeatedExecutionOnReusedArenaStaysIdentical) {
  // Executors come back from the pool with a dirty arena; every kernel
  // must fully define its output range, so re-encoding different inputs
  // back-to-back has to keep matching eager exactly.
  ModelWorld world;
  const auto& vision = world.model.vision();
  for (int round = 0; round < 3; ++round) {
    std::vector<const img::Image*> images;
    for (int i = 0; i < 5; ++i) {
      images.push_back(
          &world.dataset.samples[(round * 5 + i) % world.dataset.size()]
               .expressive_frame);
    }
    std::vector<float> eager_rows;
    {
      GraphModeGuard eager(false);
      const tensor::Tensor rows = vision.EncodeBatch(images);
      eager_rows.assign(rows.data(), rows.data() + rows.size());
    }
    GraphModeGuard compiled(true);
    const tensor::Tensor rows = vision.EncodeBatch(images);
    ASSERT_EQ(rows.size(), static_cast<int>(eager_rows.size()));
    for (int i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(rows.at(i), eager_rows[i])
          << "round " << round << " element " << i;
    }
  }
}

TEST_P(GraphExecTest, SimdBackendMatchesScalarBitwise) {
  // The SIMD kernels keep the scalar k-order, so the whole model forward —
  // eager and compiled alike — must be bitwise identical across backends
  // at every (batch, threads) point of the sweep.
  if (!tensor::kernels::SimdCompiled()) {
    GTEST_SKIP() << "SIMD backend not compiled in";
  }
  ModelWorld world;
  cot::ChainConfig chain;
  cot::ChainPipeline pipeline(&world.model, chain);
  const auto samples = world.Pointers(world.dataset.size());

  for (bool compiled : {false, true}) {
    GraphModeGuard mode(compiled);
    std::vector<double> scalar_probs;
    {
      BackendGuard scalar(tensor::kernels::Backend::kScalar);
      scalar_probs = pipeline.PredictBatch(samples);
    }
    BackendGuard simd(tensor::kernels::Backend::kSimd);
    EXPECT_EQ(pipeline.PredictBatch(samples), scalar_probs)
        << "compiled=" << compiled;
  }
}

TEST_P(GraphExecTest, QuantizedModelCompiledMatchesEager) {
  // Int8 weights flow through the fused MatMulI8 kernel in both execution
  // modes; compiled-vs-eager identity must survive quantization.
  ModelWorld world;
  const int converted = vlm::QuantizeFrozenModel(&world.model);
  ASSERT_GT(converted, 0);
  cot::ChainConfig chain;
  cot::ChainPipeline pipeline(&world.model, chain);
  const auto samples = world.Pointers(world.dataset.size());

  std::vector<double> eager_probs;
  std::vector<int> eager_labels;
  {
    GraphModeGuard eager(false);
    eager_probs = pipeline.PredictBatch(samples);
    eager_labels = pipeline.PredictLabelBatch(samples);
  }
  GraphModeGuard compiled(true);
  EXPECT_EQ(pipeline.PredictBatch(samples), eager_probs);
  EXPECT_EQ(pipeline.PredictLabelBatch(samples), eager_labels);
}

INSTANTIATE_TEST_SUITE_P(
    BatchThreadSweep, GraphExecTest,
    ::testing::Combine(::testing::Values(1, 2, 7, 32),
                       ::testing::Values(1, 4)));

// ---- Zero-allocation contract ----

TEST(GraphAllocTest, CountingAllocatorIsLinkedIn) {
  ASSERT_TRUE(AllocHookInstalled())
      << "graph_exec_test must link common/alloc_hook.cc";
  const uint64_t before = AllocCount();
  // Direct call: a plain new-expression may legally be elided.
  void* p = ::operator new(16);
  const uint64_t after = AllocCount();
  ::operator delete(p);
  EXPECT_GE(after, before + 1);

  // The nothrow forms must be ours too (std::stable_sort's temporary
  // buffer comes from one); under ASan a missing form falls through to
  // the sanitizer's, which would not count.
  const uint64_t before_nothrow = AllocCount();
  void* plain = ::operator new(16, std::nothrow);
  void* aligned = ::operator new(64, std::align_val_t{64}, std::nothrow);
  const uint64_t after_nothrow = AllocCount();
  ::operator delete(plain, std::nothrow);
  ::operator delete(aligned, 64, std::align_val_t{64});
  EXPECT_GE(after_nothrow, before_nothrow + 2);
}

/// Warms `forward` up at batch `n` (compiles the graph, constructs the
/// executor, grows the idle pool to steady state), then checks that one
/// more full acquire/fill/execute/read/release cycle performs zero heap
/// allocations and reproduces the warm-up output. With `warm_up` false
/// the warm-up cycle is skipped: `forward` must already be warm at `n`,
/// from another thread.
void ExpectSteadyCycleAllocationFree(graph::CompiledForward* forward, int n,
                                     const char* name, bool warm_up = true) {
  auto cycle = [forward, n] {
    graph::CompiledForward::Lease lease = forward->Acquire(n);
    const graph::CompiledGraph& compiled = lease->graph();
    for (int input = 0; input < compiled.num_inputs(); ++input) {
      int size = 1;
      for (int dim : compiled.input_shape(input)) size *= dim;
      float* dst = lease->InputData(input);
      for (int i = 0; i < size; ++i) {
        dst[i] = 0.01f * static_cast<float>(i % 97) - 0.4f;
      }
    }
    lease->Execute();
    return lease->OutputData()[0];
  };
  const float warm = warm_up ? cycle() : 0.0f;
  const uint64_t before = AllocCount();
  const float steady = cycle();
  const uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u)
      << name << " forward cycle allocated " << (after - before) << " times";
  if (warm_up) {
    EXPECT_EQ(steady, warm) << name;
  }
}

TEST(GraphAllocTest, ExecuteIsAllocationFreeAfterWarmup) {
  ASSERT_TRUE(AllocHookInstalled());
  Rng rng(5);
  const nn::Mlp mlp({24, 32, 16, 4}, nn::Activation::kGelu, &rng);
  graph::CompiledForward mlp_forward(
      [&mlp](graph::GraphBuilder* builder, int n) {
        return mlp.BuildGraph(builder, builder->Input({n, 24}));
      });
  ExpectSteadyCycleAllocationFree(&mlp_forward, 7, "mlp");

  // The vision tower's encode graph (two Im2Col nodes), the model's own
  // trunk graph and the head graphs that read trunk rows.
  const vlm::FoundationModel model(ModelWorld::MakeConfig());
  const vlm::VisionTower& tower = model.vision();
  graph::CompiledForward encode(
      [&tower](graph::GraphBuilder* builder, int n) {
        return tower.BuildEncodeGraph(builder, n);
      });
  ExpectSteadyCycleAllocationFree(&encode, 7, "encode");
  using BuildMethod =
      int (vlm::FoundationModel::*)(graph::GraphBuilder*, int) const;
  const std::pair<const char*, BuildMethod> builds[] = {
      {"trunk", &vlm::FoundationModel::BuildTrunkGraph},
      {"describe head", &vlm::FoundationModel::BuildDescribeHeadGraph},
      {"assess head", &vlm::FoundationModel::BuildAssessHeadGraph},
      {"highlight head", &vlm::FoundationModel::BuildHighlightHeadGraph},
  };
  for (const auto& [name, build] : builds) {
    graph::CompiledForward forward(
        [&model, build](graph::GraphBuilder* builder, int n) {
          return (model.*build)(builder, n);
        });
    ExpectSteadyCycleAllocationFree(&forward, 7, name);
  }

  // A steady cycle on a thread that has never run one: per-thread scratch
  // (a thread_local buffer grown on first use, say) would allocate here,
  // once on every new serve worker or pool thread.
  std::thread fresh([&encode] {
    ExpectSteadyCycleAllocationFree(&encode, 7, "encode on a fresh thread",
                                    /*warm_up=*/false);
  });
  fresh.join();
}

TEST(GraphAllocTest, ExecuteAloneIsAllocationFreeOnEveryCall) {
  ASSERT_TRUE(AllocHookInstalled());
  Rng rng(6);
  const nn::Linear linear(12, 3, &rng);
  graph::GraphBuilder builder;
  const int output =
      linear.BuildGraph(&builder, builder.Input({5, 12}));
  auto compiled =
      std::make_shared<const graph::CompiledGraph>(std::move(builder), output);
  graph::GraphExecutor executor(compiled);
  for (int i = 0; i < 5 * 12; ++i) {
    executor.InputData(0)[i] = 0.1f * static_cast<float>(i % 13);
  }

  executor.Execute();  // Warm-up (the arena was already constructor-owned).
  const uint64_t before = AllocCount();
  for (int repeat = 0; repeat < 100; ++repeat) {
    executor.Execute();
  }
  const uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u);
}

TEST(GraphAllocTest, ExecuteWithInt8WeightsIsAllocationFree) {
  // The fused int8 MatMul dispatches through the same backend switch and
  // reads quantized storage in place, so the zero-allocation contract must
  // hold for quantized graphs too.
  ASSERT_TRUE(AllocHookInstalled());
  Rng rng(7);
  const nn::Linear linear(12, 3, &rng);
  for (const nn::Var& param : linear.Parameters()) {
    if (param.value().ndim() == 2) {
      param.node()->value = param.value().QuantizeInt8();
    }
  }
  graph::GraphBuilder builder;
  const int output = linear.BuildGraph(&builder, builder.Input({5, 12}));
  auto compiled =
      std::make_shared<const graph::CompiledGraph>(std::move(builder), output);
  graph::GraphExecutor executor(compiled);
  for (int i = 0; i < 5 * 12; ++i) {
    executor.InputData(0)[i] = 0.1f * static_cast<float>(i % 13);
  }

  executor.Execute();  // Warm-up.
  const uint64_t before = AllocCount();
  for (int repeat = 0; repeat < 100; ++repeat) {
    executor.Execute();
  }
  const uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace vsd
