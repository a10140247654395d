#ifndef VSD_BENCHMARK_LOAD_GENERATOR_H_
#define VSD_BENCHMARK_LOAD_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cot/pipeline.h"
#include "data/sample.h"
#include "serve/replica_pool.h"
#include "serve/router.h"
#include "stats.h"
#include "workload.h"

namespace vsd::benchmark {

/// Serving topology the benchmark drives: 2 replicas x 1 worker, batches
/// of up to 8 cut after 2 ms, queues of 256, admission on with quotas far
/// above the offered load, no faults and no deadlines.
inline constexpr int kReplicas = 2;
inline constexpr int kTenants = 4;
inline constexpr int kSessionsPerTenant = 16;
inline constexpr double kBatchQosShare = 0.3;

/// Everything one serving phase measured.
struct PhaseStats {
  std::string name;
  double rate = 0.0;  ///< Offered rps (0 for a closed loop).
  PhaseOutcome outcome;
  std::vector<double> submit_us;  ///< Duration of each Router::Submit.
  std::vector<double> late_us;    ///< Generator lateness of each request.
  int64_t full = 0;
  int64_t degraded = 0;
  int64_t shed = 0;
  int64_t queue_full = 0;
  int64_t unresolved = 0;
  int64_t mismatches = 0;  ///< kFull answers that differ from the reference.
  int64_t retries = 0;
  int64_t batches_cut = 0;
  int64_t batched_samples = 0;
  std::vector<int64_t> per_replica;  ///< Answers resolved per replica.
  int64_t closed_ns = 0;  ///< Closed loop only: time spent in the loop.

  double MeanBatchFill() const;
  double ReplicaShareMax() const;
  /// Closed loop: answers per second of loop time.
  double CompletionsPerSecond() const;
  /// The phase's numbers, each keyed "serve.<name>.<what>".
  void AddTo(Metrics* metrics) const;
};

/// Drives a Router + ReplicaPool on the real clock from the calling thread
/// (the only load-generator thread). Requests cycle through `clips`; each
/// is submitted with a fresh sample id, so nothing keyed by id (the
/// model's feature cache) can ever hit. The generator rewrites the ids in
/// `clips` and must be the only user of them while it lives.
class LoadGenerator {
 public:
  /// `reference[i]` is the direct PredictBatch answer for `clips[i]`;
  /// every kFull answer must equal it bit for bit (null: no check).
  /// `pipeline`, `clips` and `reference` must outlive the generator.
  LoadGenerator(const cot::ChainPipeline* pipeline,
              std::vector<data::VideoSample>* clips,
              const std::vector<double>* reference);

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Open loop: adds to `out` Poisson arrivals at `out->rate` for
  /// `seconds`, drawn from `seed`, each timed from its due time.
  void RunOpen(double seconds, uint64_t seed, PhaseStats* out);

  /// Closed loop: adds to `out` `in_flight` requests kept outstanding for
  /// `seconds`.
  void RunClosed(int in_flight, double seconds, PhaseStats* out);

  // Calling either several times with one `out` spreads a phase over the
  // run; `out->name` names its spans.

 private:
  struct Sent;
  struct Counters;

  Counters Snapshot() const;
  Sent Send(int64_t due_ns, const serve::RequestOptions& options,
            int parent_span);
  /// Waits for every request, then adds the answers and the counter deltas
  /// since `before` to `out`.
  void Collect(std::vector<Sent>* sent, int parent_span,
               const Counters& before, PhaseStats* out);

  const std::vector<double>* reference_;
  std::vector<data::VideoSample>* clips_;
  serve::ReplicaPool pool_;
  serve::Router router_;
  size_t next_clip_ = 0;
};

}  // namespace vsd::benchmark

#endif  // VSD_BENCHMARK_LOAD_GENERATOR_H_
