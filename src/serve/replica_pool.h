#ifndef VSD_SERVE_REPLICA_POOL_H_
#define VSD_SERVE_REPLICA_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "baselines/baseline.h"
#include "common/annotations.h"
#include "common/result.h"
#include "cot/pipeline.h"
#include "data/sample.h"
#include "serve/admission.h"
#include "serve/clock.h"
#include "serve/policy.h"
#include "serve/stats.h"

namespace vsd::serve {

class ReplicaPool;

/// Per-replica serving knobs. The defaults suit tests; benches size them
/// explicitly.
struct ServeConfig {
  /// Bounded open-request queue: submissions beyond this are rejected with
  /// `Unavailable` (backpressure) instead of growing memory without bound.
  int max_queue = 64;

  /// Work-conserving batching: a free replica cuts as soon as a request is
  /// ready, taking up to `max_batch` (interactive QoS first). Batches grow
  /// under load from requests that arrive while it is busy; there is no
  /// hold time, since a clip costs the same per sample at any batch size.
  int max_batch = 8;

  /// Read by nothing. It is kept declared only because the repository
  /// benchmark (benchmark/load_generator.cc) still sets it; delete it once
  /// that file stops.
  int64_t max_batch_delay_micros = 2000;

  /// Worker threads cutting and processing batches. 0 means no workers:
  /// requests queue up until `Shutdown` (which resolves them as dropped)
  /// or until the owner drives the replica synchronously via `Pump()`
  /// (stepped mode — required when a `ManualClock` is injected).
  int num_workers = 1;

  RetryPolicy retry;

  /// Circuit breaker (per replica): after this many consecutive retryable
  /// pipeline failures the replica routes whole batches straight to the
  /// degraded answer until a half-open probe succeeds. 0 disables the
  /// breaker. Under an injected `ManualClock` the breaker walk is
  /// bit-reproducible, so virtual-time benches run with it enabled;
  /// under the real clock with multiple workers its state remains
  /// timing-dependent (see bench_robustness, which keeps it off).
  int breaker_threshold = 0;

  /// How long an open breaker stays open before the next batch probes the
  /// pipeline again (half-open), on the injected clock.
  int64_t breaker_reset_micros = 100000;

  /// p(stressed) served at the `kPrior` rung (no fallback model available).
  /// 0.5 is the maximum-entropy prior; calibrate to the deployment base
  /// rate when known.
  double prior_prob = 0.5;

  /// Deadline applied to requests submitted without one. 0 = no deadline.
  int64_t default_deadline_micros = 0;

  /// Time source. Null = the process-wide monotonic `RealClock()` (the
  /// default for examples/ and live serving). Tests and the virtual-time
  /// load bench inject a `ManualClock`, which requires num_workers == 0
  /// (workers cannot sleep against a clock that only moves when told to).
  const Clock* clock = nullptr;

  /// Virtual-time service model (stepped mode only): when
  /// `service_base_micros` > 0, a cut batch of k requests occupies the
  /// replica for `service_base_micros + k * service_per_sample_micros` of
  /// clock time (times the injected slow factor when the replica is
  /// marked slow); requests complete — and measure their latency — at
  /// that virtual instant, and no new batch is cut while the replica is
  /// busy. This is what turns the load bench into a deterministic
  /// discrete-event simulation with real queueing behavior. 0 disables
  /// the model (batches complete at their cut time).
  int64_t service_base_micros = 0;
  int64_t service_per_sample_micros = 0;
};

/// A served answer, tagged with how it was produced and where.
struct ServeResult {
  double prob_stressed = 0.0;
  int label = 0;  ///< prob_stressed >= 0.5.
  DegradationLevel degradation = DegradationLevel::kFull;
  int attempts = 1;  ///< Pipeline attempts consumed (1 = first try).
  int replica = 0;   ///< Replica that resolved the request.
  int failovers = 0;  ///< Times the request was re-routed between replicas.
  /// End-to-end latency on the serving clock: resolution time minus first
  /// submission time (virtual micros under a ManualClock service model,
  /// real micros otherwise).
  int64_t latency_micros = 0;
};

/// Routing/QoS envelope for a submission. `session` is the consistent-hash
/// routing key (requests of one session stick to one replica while it is
/// healthy); `tenant` keys admission control.
struct RequestOptions {
  uint64_t session = 0;
  uint64_t tenant = 0;
  QosClass qos = QosClass::kInteractive;
  /// Bounds this request's total latency (0 = the config default).
  int64_t deadline_micros = 0;
};

/// One in-flight request. Owned by exactly one replica queue (or a worker
/// processing it) at a time; moves between replicas only through the
/// pool's failover hook.
struct Request {
  int64_t id = 0;
  uint64_t session = 0;
  uint64_t tenant = 0;
  QosClass qos = QosClass::kInteractive;
  data::VideoSample sample;
  std::promise<vsd::Result<ServeResult>> promise;
  int64_t arrival_micros = 0;   ///< First submission; latency base.
  int64_t ready_micros = 0;     ///< Backoff gate; = queue entry initially.
  int64_t deadline_micros = 0;  ///< Absolute, on the serving clock.
  bool has_deadline = false;
  int attempt = 0;     ///< Completed pipeline attempts so far (all replicas).
  int failovers = 0;   ///< Completed replica-to-replica re-routes.
  uint64_t tried_mask = 0;  ///< Replicas that already handled this request.
};

/// Health of one replica as seen by the pool's deterministic heartbeat.
enum class ReplicaHealth {
  kHealthy = 0,      ///< Routable.
  kQuarantined = 1,  ///< Routed around; heartbeat probes drive re-admission.
};

const char* ReplicaHealthName(ReplicaHealth health);

/// \brief One serving replica: its own pipeline handle, bounded queue,
/// per-replica circuit breaker, and (optionally) worker threads.
///
/// The serving engine: deadline-aware dynamic batching with QoS-priority
/// cuts, retry with deterministic backoff, a degradation ladder down to
/// the calibrated prior, and deterministic fault injection keyed by
/// (replica, request id, attempt). All time flows through the injected
/// `Clock`. Every accepted request's future resolves — with a full
/// answer, a degraded answer, or an error status — so no future hangs.
/// With faults off, served probabilities are bit-identical to a direct
/// `PredictBatch` at every worker count, batch cut and pool width.
///
/// Two drive modes share every line of the batching logic:
///  * threaded (num_workers > 0): workers cut and process batches against
///    a real clock — the live-serving mode.
///  * stepped (num_workers == 0): the owner advances a clock and calls
///    `Pump()`, which processes everything due synchronously on the caller
///    thread — the bit-reproducible simulation mode used by tests and
///    `bench_serve_load`.
class Replica {
 public:
  /// `pipeline` (and `fallback`, when given) must outlive the replica.
  /// `pool` may be null (a standalone replica, as in serve_test and
  /// bench_robustness): then health reporting and failover are disabled
  /// and final failures walk the local degradation ladder.
  Replica(int id, const cot::ChainPipeline* pipeline,
          const ServeConfig& config,
          const baselines::StressClassifier* fallback, ReplicaPool* pool);

  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Enqueues one sample (copied); the returned future is always
  /// eventually resolved. Backpressure and post-shutdown submissions
  /// return an already-resolved `Unavailable` future.
  std::future<vsd::Result<ServeResult>> Submit(
      const data::VideoSample& sample, const RequestOptions& options);

  /// Routed submission (router / failover path): takes ownership on
  /// success (true); leaves `req` intact and returns false when the queue
  /// is full or the replica is shut down, so the caller can try the next
  /// replica on the ring. Counts as `Submit` does.
  bool SubmitRouted(std::unique_ptr<Request>& req);

  /// Stops intake, drains the queue, joins workers, and resolves leftover
  /// requests (workerless replicas) as `Unavailable`. Idempotent.
  void Shutdown();

  /// Stepped mode: processes every batch due at the current clock time on
  /// the calling thread (expired deadlines resolved first). Returns the
  /// number of requests processed. No-op on a replica with workers.
  int Pump();

  /// Earliest clock time after now at which `Pump()` could make progress
  /// (the service model freeing the replica, a backoff gate or deadline
  /// expiring), or `kNoEvent` when the queue is idle.
  static constexpr int64_t kNoEvent = INT64_MAX;
  int64_t NextEventMicros() const;

  ServeStatsSnapshot Stats() const { return stats_.Snapshot(); }

  int id() const { return id_; }
  const ServeConfig& config() const { return config_; }

  /// Whole-replica fault state, set by the pool's heartbeat. A down
  /// replica fails every queued request fast (no pipeline attempt, no
  /// local retry) so they fail over or degrade; a slow replica serves at
  /// `slow_factor` times the modeled service cost (stepped mode) or with
  /// an injected stall (threaded mode).
  void SetDown(bool down) { down_.store(down, std::memory_order_relaxed); }
  void SetSlow(bool slow, int factor) {
    slow_factor_.store(slow ? factor : 1, std::memory_order_relaxed);
  }
  bool down() const { return down_.load(std::memory_order_relaxed); }

  /// Re-admission after quarantine starts from a closed breaker.
  void ResetBreaker();

  CircuitBreaker::State BreakerState() const;

 private:
  void WorkerLoop();

  /// Resolves expired requests in place.
  void ResolveExpiredLocked(int64_t now) VSD_REQUIRES(mu_);

  /// Pops up to max_batch ready requests (interactive QoS first, queue
  /// order within a class) unless the service model has the replica busy;
  /// empty when nothing is ready. When the service model is active,
  /// advances busy_until_micros_ and writes the batch's virtual completion
  /// time to `*completion_micros` (0 otherwise).
  std::vector<std::unique_ptr<Request>> CutBatchLocked(
      int64_t now, int64_t* completion_micros) VSD_REQUIRES(mu_);

  /// How long (micros) a worker may sleep before the next deadline or
  /// backoff expiry could need attention.
  int64_t NextWakeDelayLocked(int64_t now) const VSD_REQUIRES(mu_);

  /// Earliest event time strictly after `now` over the pending queue
  /// (ready gates, deadlines, the service-model busy horizon), or
  /// kNoEvent.
  int64_t NextEventLocked(int64_t now) const VSD_REQUIRES(mu_);

  /// Runs one cut batch through the pipeline and resolves, retries,
  /// fails over, or degrades each request. `completion_micros` is the
  /// service model's virtual completion time (0 = none; resolution time
  /// is read from the clock).
  void ProcessBatch(std::vector<std::unique_ptr<Request>> batch,
                    int64_t completion_micros) VSD_EXCLUDES(mu_);

  /// Answers requests from the degradation ladder's lower rungs.
  /// `completion_micros` stamps latency (pass the current clock time when
  /// no service model is active).
  void Degrade(std::vector<std::unique_ptr<Request>> requests,
               int64_t completion_micros);

  /// Fills the envelope fields (label, replica, failovers, latency at
  /// `resolved_micros`) and fulfills the promise.
  void Resolve(std::unique_ptr<Request> req, ServeResult result,
               int64_t resolved_micros);

  /// Fault-injection key for this replica's worker site. Replica 0 keeps
  /// the PR-4 key shape (FaultHash(id, attempt)) so single-replica fault
  /// schedules are unchanged; other replicas fold their id in for
  /// independent streams.
  uint64_t WorkerFaultKey(int64_t request_id, int attempt) const;

  const int id_;
  const cot::ChainPipeline* pipeline_;
  const baselines::StressClassifier* fallback_;  ///< May be null.
  ServeConfig config_;
  const Clock* clock_;
  ReplicaPool* pool_;  ///< May be null (standalone).

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::unique_ptr<Request>> pending_ VSD_GUARDED_BY(mu_);
  bool stop_ VSD_GUARDED_BY(mu_) = false;
  int64_t next_id_ VSD_GUARDED_BY(mu_) = 0;
  CircuitBreaker breaker_ VSD_GUARDED_BY(mu_);
  /// Service-model gate: the replica is busy until this clock time.
  int64_t busy_until_micros_ VSD_GUARDED_BY(mu_) = 0;

  std::atomic<bool> down_{false};
  std::atomic<int> slow_factor_{1};

  std::vector<std::thread> workers_;
  ServeStats stats_;
};

/// Pool-level health and fault-injection summary.
struct PoolHealthSnapshot {
  int64_t epoch = 0;           ///< Heartbeats performed.
  int64_t quarantines = 0;     ///< Healthy -> quarantined transitions.
  int64_t readmissions = 0;    ///< Quarantined -> healthy transitions.
  int64_t down_heartbeats = 0;  ///< (replica, epoch) pairs observed down.
  std::vector<ReplicaHealth> health;  ///< Per replica.
};

/// \brief A pool of N independent replicas with deterministic
/// heartbeat-driven health tracking.
///
/// The pool owns the replicas and their health state machine; routing
/// lives in `Router` (serve/router.h), which registers itself as the
/// pool's failover handler. Health is driven by *probe counts, not wall
/// clock*: each `Heartbeat()` call advances an epoch counter, asks the
/// deterministic fault injector whether each replica is down or slow for
/// (replica id, epoch), and walks the per-replica state machine —
/// quarantine on a down probe or on `health_fail_threshold` consecutive
/// serve failures, re-admission (with a reset breaker) after
/// `health_reentry_heartbeats` consecutive up probes. Given the same
/// fault seed and heartbeat cadence, the whole health history is
/// bit-reproducible.
class ReplicaPool {
 public:
  struct Config {
    ServeConfig replica;  ///< Shared by every replica (incl. the clock).
    /// Consecutive final-outcome failures before a replica is quarantined
    /// even without a down heartbeat (e.g. a fault-ridden instance).
    int health_fail_threshold = 3;
    /// Consecutive up heartbeats a quarantined replica needs to rejoin.
    int health_reentry_heartbeats = 2;
  };

  /// One replica per pipeline handle; `pipelines` must be non-empty and
  /// outlive the pool (as must `fallback` when given, shared by all
  /// replicas).
  ReplicaPool(const std::vector<const cot::ChainPipeline*>& pipelines,
              const Config& config,
              const baselines::StressClassifier* fallback = nullptr);

  ~ReplicaPool();

  ReplicaPool(const ReplicaPool&) = delete;
  ReplicaPool& operator=(const ReplicaPool&) = delete;

  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  Replica& replica(int r) { return *replicas_[static_cast<size_t>(r)]; }
  const Replica& replica(int r) const {
    return *replicas_[static_cast<size_t>(r)];
  }

  /// One deterministic heartbeat: advances the epoch, probes
  /// kReplicaDown/kReplicaSlow for every replica at (id, epoch), and walks
  /// the health state machine. Call on a fixed cadence (virtual or real).
  void Heartbeat();

  bool IsRoutable(int r) const;
  ReplicaHealth health(int r) const;
  PoolHealthSnapshot HealthSnapshot() const;

  /// Sum of per-replica stats snapshots (each internally consistent).
  ServeStatsSnapshot AggregateStats() const;

  /// Stepped mode: pumps replicas in index order until no replica makes
  /// progress (failover may move work between them mid-pump). Returns the
  /// total number of requests processed.
  int Pump();

  /// Earliest event time across replicas, or `Replica::kNoEvent`.
  int64_t NextEventMicros() const;

  void Shutdown();

  /// Failover handler, installed by the Router. Takes ownership on
  /// success; leaves `req` intact and returns false when no alternative
  /// replica can take the request (the calling replica then degrades it
  /// locally). Null clears the handler.
  using FailoverHandler = std::function<bool(std::unique_ptr<Request>&)>;
  void SetFailoverHandler(FailoverHandler handler);

  /// Called by a replica that cannot serve a request (down, or retryable
  /// failure with retries exhausted). Forwards to the installed handler.
  bool Failover(std::unique_ptr<Request>& req);

  /// Called by replicas with each request's final local outcome; feeds the
  /// consecutive-failure quarantine trigger.
  void RecordOutcome(int r, bool ok);

  /// Test hook: force a replica's health state (e.g. to pin failover
  /// routing without depending on fault-hash draws).
  void SetHealthForTest(int r, ReplicaHealth health);

 private:
  struct HealthState {
    ReplicaHealth state = ReplicaHealth::kHealthy;
    int fail_streak = 0;
    int up_streak = 0;
  };

  Config config_;
  std::vector<std::unique_ptr<Replica>> replicas_;

  mutable std::mutex health_mu_;
  std::vector<HealthState> health_ VSD_GUARDED_BY(health_mu_);
  int64_t epoch_ VSD_GUARDED_BY(health_mu_) = 0;
  int64_t quarantines_ VSD_GUARDED_BY(health_mu_) = 0;
  int64_t readmissions_ VSD_GUARDED_BY(health_mu_) = 0;
  int64_t down_heartbeats_ VSD_GUARDED_BY(health_mu_) = 0;

  mutable std::mutex handler_mu_;
  FailoverHandler failover_ VSD_GUARDED_BY(handler_mu_);
};

}  // namespace vsd::serve

#endif  // VSD_SERVE_REPLICA_POOL_H_
