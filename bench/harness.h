#ifndef VSD_BENCH_HARNESS_H_
#define VSD_BENCH_HARNESS_H_

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/metrics.h"
#include "cot/chain_config.h"
#include "data/sample.h"
#include "explain/faithfulness.h"
#include "img/slic.h"
#include "vlm/api_models.h"
#include "vlm/foundation_model.h"

namespace vsd::bench {

/// Command-line options shared by every bench binary.
///
///   --quick        small datasets + 1 fold (development sanity runs)
///   --folds N      cross-validation folds (default: VSD_FOLDS env or 2;
///                  the paper protocol is 10)
///   --seed S       master seed
///   --threads N    worker threads (default: VSD_THREADS env or 1).
///                  Output is byte-identical for every thread count.
///   --batch N      inference batch size (default: VSD_BATCH env or 32).
///                  Output is byte-identical for every batch size.
struct BenchOptions {
  bool quick = false;
  int folds = 2;
  uint64_t seed = 20250706;
  int threads = 0;  ///< 0 = keep the VSD_THREADS/global default.
  int batch = 0;    ///< 0 = keep the VSD_BATCH/global default.
};

/// Parses the shared flags. As a side effect, sizes the global thread pool
/// (`ThreadPool::SetGlobalThreads`) when --threads is given and the process
/// batch size (`SetDefaultBatchSize`) when --batch is given, so every
/// parallel loop and batched forward downstream picks them up.
BenchOptions ParseBenchArgs(int argc, char** argv);

/// Wall-clock timer for the machine-readable perf sidecars.
class PerfTimer {
 public:
  PerfTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Writes a machine-readable sidecar (JSON, CSV, ...) with full error
/// handling: open, write, and close failures all log to stderr (with
/// errno) and return false instead of silently dropping output. Every
/// bench/tool sidecar goes through this one helper.
bool WriteSidecarFile(const std::string& path, const std::string& content);

/// The two stress datasets (full-size unless quick) plus the AU dataset.
struct BenchData {
  data::Dataset uvsd;
  data::Dataset rsl;
  data::Dataset disfa;
};

BenchData MakeBenchData(const BenchOptions& options);

/// Builds (once per process) the generalist-pretrained backbone used to
/// initialize "Ours" — the Qwen-VL stand-in. Subsequent calls return the
/// cached copy.
const vlm::FoundationModel& PretrainedBase(const BenchOptions& options);

/// Frozen API-model simulations, built lazily once per process.
const vlm::FoundationModel& ApiModel(vlm::ApiModelKind kind,
                                     const BenchOptions& options);

/// Trains "Ours" (or an ablation variant) on one split: clones the
/// pretrained base and runs Algorithm 1. Features for `test` are also
/// precomputed so evaluation is cache-served.
std::unique_ptr<vlm::FoundationModel> TrainOurs(
    const cot::ChainConfig& chain, const data::Dataset& au_data,
    const data::Dataset& train, const data::Dataset& test,
    const BenchOptions& options, uint64_t fold_seed);

/// Cross-validated evaluation of a train-and-predict procedure.
/// `run_fold(train, test, fold_seed)` returns per-fold metrics.
core::Metrics CrossValidate(
    const data::Dataset& dataset, const BenchOptions& options,
    const std::function<core::Metrics(const data::Dataset& train,
                                      const data::Dataset& test,
                                      uint64_t fold_seed)>& run_fold);

/// Default chain config used for "Ours" in the benches.
cot::ChainConfig OursChainConfig(const BenchOptions& options);

// ---- Interpretability plumbing (Tables II/IV/VI) ----

/// Per-sample explanation context for our model over SLIC segments.
struct InterpContext {
  std::vector<img::Segmentation> segmentations;  ///< One per sample.
  std::vector<const data::VideoSample*> samples;
};

/// Number of SLIC segments in the paper's protocol.
inline constexpr int kNumSlicSegments = 64;

/// Builds segmentations for a set of samples (expressive frames).
InterpContext BuildInterpContext(
    const std::vector<const data::VideoSample*>& samples);

/// Classifier closure for explainers: p(stressed | perturbed f_e) with the
/// model's own greedy description fixed.
explain::ClassifierFn ModelClassifier(const vlm::FoundationModel& model,
                                      const data::VideoSample& sample,
                                      bool use_chain);

/// Batched `ModelClassifier`: one shared-neutral
/// `AssessProbStressedWithFramesBatch` forward per perturbation batch.
/// Entry i is bit-identical to the `ModelClassifier` probability for the
/// same frame, so explainers may use either interchangeably.
explain::BatchClassifierFn ModelBatchClassifier(
    const vlm::FoundationModel& model, const data::VideoSample& sample,
    bool use_chain);

/// Maps an ordered AU rationale to ranked SLIC segments: each cue selects
/// the not-yet-used segment overlapping its facial region the most (the
/// paper locates segments via the cue's facial landmarks).
std::vector<int> RationaleToSegments(const std::vector<int>& rationale,
                                     const img::Segmentation& segmentation);

/// Noise level used when disturbing top-k segments.
inline constexpr float kDisturbNoise = 0.8f;

/// Top-1/2/3 accuracy drops of the model's own rationale (mapped to SLIC
/// segments) over the given test samples — the "Ours" rows of Tables
/// II/IV/VI.
std::vector<double> RationaleDrops(
    const vlm::FoundationModel& model, const cot::ChainConfig& chain,
    const std::vector<const data::VideoSample*>& samples,
    const BenchOptions& options);

}  // namespace vsd::bench

#endif  // VSD_BENCH_HARNESS_H_
