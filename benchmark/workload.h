#ifndef VSD_BENCHMARK_WORKLOAD_H_
#define VSD_BENCHMARK_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cot/chain_config.h"
#include "trace.h"
#include "vlm/foundation_model.h"

namespace vsd::benchmark {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one measured pass of a workload produced.
struct PassResult {
  /// The two end-to-end numbers every workload defines (README.md gives
  /// each workload's meaning of them).
  double latency_ms = 0.0;
  double throughput_per_s = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Workload-specific numbers for the run record and per_layer.json.
  Metrics observed;
  /// One line per failed output check.
  std::vector<std::string> failures;
};

/// Stage timings of one set-up repetition.
struct SetupTimes {
  double data_s = 0.0;
  double pretrain_s = 0.0;
  double prepare_s = 0.0;  ///< Workload-specific preparation.
};

/// Size of the library's global ThreadPool in every workload. On a shared
/// 4-vCPU machine, pools of two let run medians drift by up to 13% between
/// runs; a single thread held them within 3-6%. It also keeps every timed
/// library call on the calling thread, which the core-speed scaling
/// (core_speed.h) relies on.
inline constexpr int kPoolThreads = 1;

/// One benchmark workload. `Setup` runs several times per process (the
/// median is `setup_s`); `Measure` runs once untraced and, with --trace,
/// once more traced, on the same inputs.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads the workload starts besides the caller (serve workers).
  virtual int extra_threads() const { return 0; }

  /// Builds the inputs from `seed` and the model; replaces any earlier
  /// state.
  virtual SetupTimes Setup(uint64_t seed) = 0;

  /// Reference computations the output checks need before measuring.
  virtual void PrepareChecks() {}

  /// One measured pass of about `seconds`.
  virtual PassResult Measure(double seconds) = 0;

  /// Output checks that need no measured result; one line per failure.
  virtual void Check(std::vector<std::string>* failures) = 0;

  /// The pretrained backbone (input of the layer-probe pass).
  virtual const vlm::FoundationModel& backbone() const = 0;
};

/// "serve_open", "chain_cached", "explain_fig6" or "train_chain"; null for
/// an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);
std::unique_ptr<Workload> MakeServeOpen();
std::unique_ptr<Workload> MakeChainCached();
std::unique_ptr<Workload> MakeExplainFig6();
std::unique_ptr<Workload> MakeTrainChain();

// ---- Shared set-up ----

/// The generalist backbone every workload serves: BackboneInitSpec at the
/// quick pretraining sizes (4 epochs, corpus 300), from a fixed seed. The
/// architecture is the full one, so per-request cost is unchanged.
std::unique_ptr<vlm::FoundationModel> PretrainBackbone();

/// The quick chain configuration (the repo's `--quick` values).
cot::ChainConfig QuickChainConfig();

/// An independent seed for one purpose (`salt`) of workload seed `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// Seconds elapsed since `start_ns`, a NowNs() reading.
double SecondsSince(int64_t start_ns);

/// The layer-probe pass: every per-layer metric in BENCHMARK.json,
/// measured from outside the library by timing calls into each layer's
/// public functions on a probe set drawn from `seed`.
Metrics RunProbes(const vlm::FoundationModel& backbone, uint64_t seed);

}  // namespace vsd::benchmark

#endif  // VSD_BENCHMARK_WORKLOAD_H_
