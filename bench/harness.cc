#include "bench/harness.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/annotations.h"
#include "common/batching.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/evaluation.h"
#include "cot/pipeline.h"
#include "cot/trainer.h"
#include "data/folds.h"
#include "data/generator.h"
#include "face/renderer.h"
#include "vlm/quantize.h"

namespace vsd::bench {

BenchOptions ParseBenchArgs(int argc, char** argv) {
  BenchOptions options;
  options.folds = core::NumFoldsFromEnv(2);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      options.quick = true;
      options.folds = 2;
    } else if (std::strcmp(argv[i], "--folds") == 0 && i + 1 < argc) {
      options.folds = std::atoi(argv[++i]);
      if (options.folds < 2) options.folds = 2;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      options.threads = std::atoi(argv[++i]);
      if (options.threads < 1) options.threads = 1;
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      options.batch = std::atoi(argv[++i]);
      if (options.batch < 1) options.batch = 1;
    }
  }
  if (options.threads > 0) ThreadPool::SetGlobalThreads(options.threads);
  if (options.batch > 0) SetDefaultBatchSize(options.batch);
  return options;
}

bool WriteSidecarFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "[bench] cannot open %s for writing: %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  bool ok =
      std::fwrite(content.data(), 1, content.size(), file) == content.size();
  // fclose flushes; a full disk often only surfaces here.
  if (std::fclose(file) != 0) ok = false;
  if (!ok) {
    std::fprintf(stderr, "[bench] failed writing %s: %s\n", path.c_str(),
                 std::strerror(errno));
  }
  return ok;
}

BenchData MakeBenchData(const BenchOptions& options) {
  BenchData data;
  if (options.quick) {
    data.uvsd = data::MakeUvsdSimSmall(400, options.seed + 1);
    data.rsl = data::MakeRslSimSmall(240, options.seed + 2);
    data.disfa = data::MakeDisfaSim(options.seed + 3, 300);
  } else {
    data.uvsd = data::MakeUvsdSim(options.seed + 1);
    data.rsl = data::MakeRslSim(options.seed + 2);
    data.disfa = data::MakeDisfaSim(options.seed + 3, 645);
  }
  return data;
}

namespace {

/// Process-lifetime cache of pretrained models shared by parallel folds.
/// Reader/writer guarded so folds share the lazily built model without
/// serializing on the hot path: cache hits take the shared lock (after
/// construction a model is only read), and only a miss upgrades to the
/// exclusive lock, re-checking in case another thread built the model
/// while we waited.
template <typename Key>
class ModelCache {
 public:
  const vlm::FoundationModel& GetOrBuild(
      Key key,
      const std::function<std::unique_ptr<vlm::FoundationModel>()>& build) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto it = cache_.find(key);
      if (it != cache_.end()) return *it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it == cache_.end()) it = cache_.emplace(key, build()).first;
    return *it->second;
  }

 private:
  mutable std::shared_mutex mu_;
  std::map<Key, std::unique_ptr<vlm::FoundationModel>> cache_
      VSD_GUARDED_BY(mu_);
};

}  // namespace

const vlm::FoundationModel& PretrainedBase(const BenchOptions& options) {
  static ModelCache<uint64_t> cache;
  return cache.GetOrBuild(options.seed, [&options] {
    std::fprintf(stderr, "[bench] pretraining generalist backbone...\n");
    vlm::ApiModelSpec spec = vlm::BackboneInitSpec();
    if (options.quick) {
      spec.pretrain_epochs = 4;
      spec.corpus_size = 300;
    }
    auto model = std::make_unique<vlm::FoundationModel>(spec.config);
    vlm::PretrainGeneralist(model.get(), spec, options.seed * 11 + 5);
    return model;
  });
}

const vlm::FoundationModel& ApiModel(vlm::ApiModelKind kind,
                                     const BenchOptions& options) {
  static ModelCache<int> cache;
  const int key = static_cast<int>(kind);
  return cache.GetOrBuild(key, [&options, kind, key] {
    std::fprintf(stderr, "[bench] pretraining %s...\n",
                 vlm::ApiModelName(kind));
    vlm::ApiModelSpec spec = vlm::GetApiModelSpec(kind);
    if (options.quick) {
      spec.pretrain_epochs = 3;
      spec.corpus_size = 250;
    }
    auto model = std::make_unique<vlm::FoundationModel>(spec.config);
    vlm::PretrainGeneralist(model.get(), spec,
                            options.seed * 13 + 7 + key);
    // API models are frozen once pretrained (zero-shot rows only), so
    // VSD_QUANT=int8 applies here. The backbone in PretrainedBase must
    // stay fp32 — it is cloned and fine-tuned.
    if (vlm::QuantEnabled()) vlm::QuantizeFrozenModel(model.get());
    return model;
  });
}

cot::ChainConfig OursChainConfig(const BenchOptions& options) {
  cot::ChainConfig chain;
  chain.seed = options.seed;
  if (options.quick) {
    chain.describe_epochs = 6;
    chain.describe_augment_copies = 1;
    chain.assess_epochs = 6;
    chain.max_refine_rounds = 1;
    chain.rationale_dpo_samples = 80;
  }
  return chain;
}

std::unique_ptr<vlm::FoundationModel> TrainOurs(
    const cot::ChainConfig& chain, const data::Dataset& au_data,
    const data::Dataset& train, const data::Dataset& test,
    const BenchOptions& options, uint64_t fold_seed) {
  auto model = PretrainedBase(options).Clone();
  model->ClearFeatureCache();
  Rng rng(fold_seed ^ 0xC0FFEE);
  cot::ChainTrainer trainer(chain);
  trainer.Train(model.get(), au_data, train, &rng);
  model->PrecomputeFeatures(test);
  return model;
}

core::Metrics CrossValidate(
    const data::Dataset& dataset, const BenchOptions& options,
    const std::function<core::Metrics(const data::Dataset& train,
                                      const data::Dataset& test,
                                      uint64_t fold_seed)>& run_fold) {
  Rng rng(options.seed ^ 0xF01D5);
  const auto splits = data::StratifiedKFold(dataset, options.folds, &rng);
  // Fold-parallel: every fold's seed is derived from its index exactly as
  // in the serial loop, and the per-fold metrics land in per-fold slots,
  // so the aggregate is byte-identical for every thread count.
  const std::vector<core::Metrics> fold_metrics =
      ParallelMap<core::Metrics>(splits.size(), [&](int64_t f) {
        const data::Dataset train = dataset.Subset(splits[f].train);
        const data::Dataset test = dataset.Subset(splits[f].test);
        return run_fold(train, test, options.seed + 1000 * (f + 1));
      });
  return core::AverageMetrics(fold_metrics);
}

InterpContext BuildInterpContext(
    const std::vector<const data::VideoSample*>& samples) {
  InterpContext context;
  context.samples = samples;
  // Per-sample SLIC is pure; parallelize across samples.
  context.segmentations = ParallelMap<img::Segmentation>(
      samples.size(), [&](int64_t i) {
        return img::Slic(samples[i]->expressive_frame, kNumSlicSegments);
      });
  return context;
}

explain::ClassifierFn ModelClassifier(const vlm::FoundationModel& model,
                                      const data::VideoSample& sample,
                                      bool use_chain) {
  // The description is fixed from the clean frame (the chain's Describe
  // output); the perturbation probes the Assess decision, mirroring the
  // paper's protocol of disturbing segments of f_e.
  face::AuMask description{};
  if (use_chain) {
    const auto probs = model.DescribeProbs(sample);
    for (int j = 0; j < face::kNumAus; ++j) description[j] = probs[j] > 0.5;
  }
  const img::Image neutral = sample.neutral_frame;
  return [&model, description, neutral](const img::Image& frame) {
    return model.AssessProbStressedWithFrames(frame, neutral, description);
  };
}

explain::BatchClassifierFn ModelBatchClassifier(
    const vlm::FoundationModel& model, const data::VideoSample& sample,
    bool use_chain) {
  face::AuMask description{};
  if (use_chain) {
    const auto probs = model.DescribeProbs(sample);
    for (int j = 0; j < face::kNumAus; ++j) description[j] = probs[j] > 0.5;
  }
  const img::Image neutral = sample.neutral_frame;
  return [&model, description,
          neutral](std::span<const img::Image> frames) {
    std::vector<const img::Image*> expressive;
    expressive.reserve(frames.size());
    for (const auto& frame : frames) expressive.push_back(&frame);
    // Shared-neutral batch: the neutral frame is encoded once per call.
    return model.AssessProbStressedWithFramesBatch(expressive, neutral,
                                                   description);
  };
}

std::vector<int> RationaleToSegments(const std::vector<int>& rationale,
                                     const img::Segmentation& segmentation) {
  std::vector<int> segments;
  std::vector<bool> used(segmentation.num_segments, false);
  for (int au : rationale) {
    const auto region = face::RegionMask(face::GetAu(au).region);
    // Count overlap of every segment with the region (region masks are
    // defined on the 96x96 canvas, matching the frames).
    std::vector<int> overlap(segmentation.num_segments, 0);
    for (int y = 0; y < segmentation.height; ++y) {
      for (int x = 0; x < segmentation.width; ++x) {
        if (region[y * segmentation.width + x]) {
          ++overlap[segmentation.LabelAt(y, x)];
        }
      }
    }
    int best = -1;
    int best_overlap = 0;
    for (int s = 0; s < segmentation.num_segments; ++s) {
      if (used[s]) continue;
      if (overlap[s] > best_overlap) {
        best_overlap = overlap[s];
        best = s;
      }
    }
    if (best >= 0) {
      used[best] = true;
      segments.push_back(best);
    }
  }
  return segments;
}

std::vector<double> RationaleDrops(
    const vlm::FoundationModel& model, const cot::ChainConfig& chain,
    const std::vector<const data::VideoSample*>& samples,
    const BenchOptions& options) {
  InterpContext context = BuildInterpContext(samples);
  cot::ChainPipeline pipeline(&model, chain);
  const int64_t n = static_cast<int64_t>(samples.size());
  const int batch_size = DefaultBatchSize();
  std::vector<explain::ExplainedSample> explained(n);
  // Batch-parallel chain runs: each sample still derives its own Rng from
  // its index (the exact streams of the per-sample loop), and each batch
  // writes its own index range, so the drops are bit-identical for every
  // batch size and thread count.
  ParallelFor(NumBatches(n, batch_size), [&](int64_t b) {
    const auto [begin, end] = BatchBounds(n, batch_size, b);
    std::vector<const data::VideoSample*> batch(samples.begin() + begin,
                                                samples.begin() + end);
    std::vector<Rng> rngs;
    rngs.reserve(end - begin);
    for (int64_t i = begin; i < end; ++i) {
      rngs.emplace_back(options.seed + 91 * i);
    }
    std::vector<Rng*> rng_ptrs;
    rng_ptrs.reserve(rngs.size());
    for (auto& rng : rngs) rng_ptrs.push_back(&rng);
    const std::vector<cot::ChainOutput> outputs =
        pipeline.RunBatch(batch, rng_ptrs);
    for (int64_t i = begin; i < end; ++i) {
      const auto* sample = samples[i];
      explain::ExplainedSample e;
      e.image = &sample->expressive_frame;
      e.segmentation = &context.segmentations[i];
      e.classifier = ModelClassifier(model, *sample, chain.use_chain);
      e.true_label = sample->stress_label;
      e.ranked_segments =
          RationaleToSegments(outputs[i - begin].highlight.ranked_aus,
                              context.segmentations[i]);
      explained[i] = std::move(e);
    }
  });
  Rng drop_rng(options.seed ^ 0xD0D0);
  return TopKAccuracyDrop(explained, {1, 2, 3}, kDisturbNoise, &drop_rng);
}

}  // namespace vsd::bench
