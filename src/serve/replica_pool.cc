#include "serve/replica_pool.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <string>
#include <utility>

#include "common/batching.h"
#include "common/faults.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace vsd::serve {

namespace {

/// Idle sleep backstop: Submit/Shutdown notify the cv, so this only bounds
/// how stale a worker's view can get if a notification is missed.
constexpr int64_t kIdleWakeMicros = 10000;
/// Floor on computed wake delays, so an imminent event cannot degenerate
/// into a zero-timeout busy loop.
constexpr int64_t kMinWakeMicros = 50;

/// Fault-injection site probed by the pool heartbeat for replica-level
/// faults (kReplicaDown / kReplicaSlow), keyed FaultHash(replica+1, epoch).
constexpr std::string_view kReplicaSite = "serve.replica";

std::future<vsd::Result<ServeResult>> ResolvedFuture(Status status) {
  std::promise<vsd::Result<ServeResult>> p;
  p.set_value(std::move(status));
  return p.get_future();
}

}  // namespace

const char* ReplicaHealthName(ReplicaHealth health) {
  switch (health) {
    case ReplicaHealth::kHealthy:
      return "healthy";
    case ReplicaHealth::kQuarantined:
      return "quarantined";
  }
  VSD_CHECK(false) << "unknown ReplicaHealth";
  return "?";
}

Replica::Replica(int id, const cot::ChainPipeline* pipeline,
                 const ServeConfig& config,
                 const baselines::StressClassifier* fallback,
                 ReplicaPool* pool)
    : id_(id),
      pipeline_(pipeline),
      fallback_(fallback),
      config_(config),
      clock_(config.clock != nullptr ? config.clock : RealClock()),
      pool_(pool),
      breaker_(config.breaker_threshold, config.breaker_reset_micros) {
  VSD_CHECK(pipeline_ != nullptr) << "null pipeline";
  VSD_CHECK(id_ >= 0 && id_ < 64) << "replica id must fit the tried mask";
  VSD_CHECK(config_.max_queue >= 1) << "max_queue must be >= 1";
  VSD_CHECK(config_.max_batch >= 1) << "max_batch must be >= 1";
  VSD_CHECK(config_.num_workers >= 0) << "num_workers must be >= 0";
  VSD_CHECK(config_.prior_prob >= 0.0 && config_.prior_prob <= 1.0)
      << "prior_prob must be a probability";
  VSD_CHECK(!clock_->IsManual() || config_.num_workers == 0)
      << "a manual clock requires num_workers == 0 (workers cannot sleep "
         "against a clock that only moves when told to); drive the replica "
         "with Pump()";
  VSD_CHECK(config_.service_base_micros == 0 || config_.num_workers == 0)
      << "the virtual service-time model requires num_workers == 0";
  VSD_CHECK(config_.service_base_micros >= 0 &&
            config_.service_per_sample_micros >= 0)
      << "service model costs must be non-negative";
  workers_.reserve(static_cast<size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Replica::~Replica() { Shutdown(); }

std::future<vsd::Result<ServeResult>> Replica::Submit(
    const data::VideoSample& sample, const RequestOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) {
    return ResolvedFuture(Status::Unavailable("server is shut down"));
  }
  stats_.AddSubmitted();
  if (static_cast<int>(pending_.size()) >= config_.max_queue) {
    stats_.AddRejectedQueueFull();
    return ResolvedFuture(Status::Unavailable(
        "serve queue full (" + std::to_string(config_.max_queue) +
        " pending); retry later"));
  }
  auto req = std::make_unique<Request>();
  req->id = next_id_++;
  req->session = options.session;
  req->tenant = options.tenant;
  req->qos = options.qos;
  req->sample = sample;
  const int64_t now = clock_->NowMicros();
  req->arrival_micros = now;
  req->ready_micros = now;
  const int64_t effective_deadline = options.deadline_micros > 0
                                         ? options.deadline_micros
                                         : config_.default_deadline_micros;
  if (effective_deadline > 0) {
    req->has_deadline = true;
    req->deadline_micros = now + effective_deadline;
  }
  req->tried_mask |= uint64_t{1} << id_;
  std::future<vsd::Result<ServeResult>> future = req->promise.get_future();
  pending_.push_back(std::move(req));
  cv_.notify_one();
  return future;
}

bool Replica::SubmitRouted(std::unique_ptr<Request>& req) {
  std::lock_guard<std::mutex> lock(mu_);
  // Counted as in Submit: a shut-down replica counts nothing, a full queue
  // counts a submission and its refusal.
  if (stop_) return false;
  stats_.AddSubmitted();
  if (static_cast<int>(pending_.size()) >= config_.max_queue) {
    stats_.AddRejectedQueueFull();
    return false;
  }
  req->ready_micros = clock_->NowMicros();
  req->tried_mask |= uint64_t{1} << id_;
  pending_.push_back(std::move(req));
  cv_.notify_one();
  return true;
}

void Replica::Shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (std::thread& worker : workers) worker.join();
  // With workers the drain leaves nothing behind; a workerless replica (or
  // one whose drain raced a final requeue) resolves the leftovers here so
  // no future is ever left hanging.
  std::deque<std::unique_ptr<Request>> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(pending_);
  }
  for (std::unique_ptr<Request>& req : leftover) {
    stats_.AddDroppedOnShutdown();
    req->promise.set_value(
        Status::Unavailable("server shut down before the request was served"));
  }
}

int Replica::Pump() {
  if (config_.num_workers > 0) return 0;
  int processed = 0;
  for (;;) {
    std::vector<std::unique_ptr<Request>> batch;
    int64_t completion = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const int64_t now = clock_->NowMicros();
      ResolveExpiredLocked(now);
      batch = CutBatchLocked(now, &completion);
    }
    if (batch.empty()) return processed;
    processed += static_cast<int>(batch.size());
    ProcessBatch(std::move(batch), completion);
  }
}

int64_t Replica::NextEventMicros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return NextEventLocked(clock_->NowMicros());
}

void Replica::ResetBreaker() {
  std::lock_guard<std::mutex> lock(mu_);
  breaker_ = CircuitBreaker(config_.breaker_threshold,
                            config_.breaker_reset_micros);
}

CircuitBreaker::State Replica::BreakerState() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_.state();
}

void Replica::WorkerLoop() {
  while (true) {
    std::vector<std::unique_ptr<Request>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        const int64_t now = clock_->NowMicros();
        ResolveExpiredLocked(now);
        int64_t completion = 0;
        batch = CutBatchLocked(now, &completion);
        if (!batch.empty()) break;
        if (stop_ && pending_.empty()) return;
        cv_.wait_for(lock,
                     std::chrono::microseconds(NextWakeDelayLocked(now)));
      }
    }
    // Threaded replicas never run the service model (checked in the ctor),
    // so completion is always the real resolution time.
    ProcessBatch(std::move(batch), 0);
  }
}

void Replica::ResolveExpiredLocked(int64_t now) {
  size_t write = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    std::unique_ptr<Request>& req = pending_[i];
    if (req->has_deadline && req->deadline_micros <= now) {
      stats_.AddDeadlineExceeded();
      req->promise.set_value(Status::DeadlineExceeded(
          "deadline expired before request " + std::to_string(req->id) +
          " could be served"));
      continue;
    }
    if (write != i) pending_[write] = std::move(req);
    ++write;
  }
  pending_.resize(write);
}

std::vector<std::unique_ptr<Request>> Replica::CutBatchLocked(
    int64_t now, int64_t* completion_micros) {
  *completion_micros = 0;
  const bool service_model = config_.service_base_micros > 0;
  // Work-conserving cut: a free replica takes what is ready at once. Only
  // the service model can find it busy (a single virtual executor until the
  // previous batch "completes"); a worker calling this is idle, and a
  // stepped batch without the model completes at its cut time.
  if (service_model && now < busy_until_micros_ && !stop_) return {};
  // A request is ready once past its backoff gate; the shutdown drain
  // treats everything as ready (remaining backoff is pointless then).
  std::vector<size_t> ready;
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (stop_ || pending_[i]->ready_micros <= now) ready.push_back(i);
  }
  if (ready.empty()) return {};
  // Interactive requests outrank batch-class ones when the cut is
  // oversubscribed; within a class, queue order (stable) is kept.
  if (static_cast<int>(ready.size()) > config_.max_batch) {
    std::stable_sort(ready.begin(), ready.end(), [this](size_t a, size_t b) {
      return static_cast<int>(pending_[a]->qos) <
             static_cast<int>(pending_[b]->qos);
    });
    ready.resize(static_cast<size_t>(config_.max_batch));
    std::sort(ready.begin(), ready.end());
  }
  std::vector<std::unique_ptr<Request>> batch;
  batch.reserve(ready.size());
  for (size_t idx : ready) batch.push_back(std::move(pending_[idx]));
  size_t write = 0;
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i] == nullptr) continue;
    if (write != i) pending_[write] = std::move(pending_[i]);
    ++write;
  }
  pending_.resize(write);
  if (service_model) {
    const int64_t cost =
        (config_.service_base_micros +
         static_cast<int64_t>(batch.size()) *
             config_.service_per_sample_micros) *
        slow_factor_.load(std::memory_order_relaxed);
    busy_until_micros_ = std::max(now, busy_until_micros_) + cost;
    *completion_micros = busy_until_micros_;
  }
  return batch;
}

int64_t Replica::NextWakeDelayLocked(int64_t now) const {
  int64_t delay = kIdleWakeMicros;
  for (const std::unique_ptr<Request>& req : pending_) {
    if (req->has_deadline) {
      delay = std::min(delay, req->deadline_micros - now);
    }
    if (req->ready_micros > now) {
      delay = std::min(delay, req->ready_micros - now);
    }
  }
  return std::max<int64_t>(delay, kMinWakeMicros);
}

int64_t Replica::NextEventLocked(int64_t now) const {
  if (pending_.empty()) return kNoEvent;
  int64_t event = kNoEvent;
  const auto consider = [&](int64_t t) {
    if (t > now) event = std::min(event, t);
  };
  if (config_.service_base_micros > 0) consider(busy_until_micros_);
  for (const std::unique_ptr<Request>& req : pending_) {
    if (req->has_deadline) consider(req->deadline_micros);
    consider(req->ready_micros);
  }
  return event;
}

uint64_t Replica::WorkerFaultKey(int64_t request_id, int attempt) const {
  // Replica 0 keeps the PR-4 key shape so single-replica fault schedules
  // (and the expectations pinned in serve_test) are unchanged; other
  // replicas fold their id in for independent per-replica streams.
  const uint64_t base =
      id_ == 0 ? static_cast<uint64_t>(request_id)
               : FaultHash(static_cast<uint64_t>(id_),
                           static_cast<uint64_t>(request_id));
  return FaultHash(base, static_cast<uint64_t>(attempt));
}

void Replica::Resolve(std::unique_ptr<Request> req, ServeResult result,
                      int64_t resolved_micros) {
  result.label = result.prob_stressed >= 0.5 ? 1 : 0;
  result.attempts = req->attempt;
  result.replica = id_;
  result.failovers = req->failovers;
  result.latency_micros = std::max<int64_t>(
      0, resolved_micros - req->arrival_micros);
  req->promise.set_value(std::move(result));
}

void Replica::ProcessBatch(std::vector<std::unique_ptr<Request>> batch,
                           int64_t completion_micros) {
  const size_t n = batch.size();
  stats_.AddBatch(static_cast<int64_t>(n));
  const auto resolve_time = [&] {
    return completion_micros > 0 ? completion_micros : clock_->NowMicros();
  };

  // A down replica fails the whole batch fast: no pipeline attempt, no
  // local retry, no breaker movement — each request goes straight to
  // failover (the pool re-routes it to a healthy peer) or, with nowhere
  // left to go, to the local degraded answer. Requests keep their attempt
  // count so a down replica does not burn retry budget.
  if (down_.load(std::memory_order_relaxed)) {
    std::vector<std::unique_ptr<Request>> degrade;
    for (std::unique_ptr<Request>& req : batch) {
      if (pool_ != nullptr && pool_->Failover(req)) {
        stats_.AddFailedOver();
        continue;
      }
      degrade.push_back(std::move(req));
    }
    Degrade(std::move(degrade), resolve_time());
    return;
  }

  // An open breaker short-circuits the whole batch before any work (or
  // fault draw) happens: requests go straight to the degraded answer. An
  // elapsed open window lets the batch through as a half-open probe.
  // enabled() reads only the breaker threshold, which every locked
  // reassignment copies unchanged from the immutable config_; the
  // stateful calls below take mu_.
  // vsd-lint: allow(guarded-by) lock-free early-out on immutable state
  if (breaker_.enabled()) {
    bool shorted;
    {
      std::lock_guard<std::mutex> lock(mu_);
      shorted = breaker_.ShouldShortCircuit(clock_->NowMicros());
    }
    if (shorted) {
      for (size_t i = 0; i < n; ++i) stats_.AddBreakerShortCircuit();
      Degrade(std::move(batch), resolve_time());
      return;
    }
  }

  // A slow replica under the service model already paid its inflated
  // virtual cost at cut time; in threaded mode it endures a real stall.
  const int slow = slow_factor_.load(std::memory_order_relaxed);
  if (slow > 1 && config_.service_base_micros == 0 && !clock_->IsManual()) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<int64_t>(slow - 1) *
        FaultInjector::Global().config().stall_micros));
    stats_.AddStall();
  }

  // Worker-site faults are keyed by (request id, attempt): a retry is a new
  // key with fresh draws, so injected worker transients are genuinely
  // transient and retry can succeed.
  FaultInjector& injector = FaultInjector::Global();
  std::vector<Status> worker_status(n, Status::OK());
  if (injector.enabled()) {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = WorkerFaultKey(batch[i]->id, batch[i]->attempt);
      if (injector.InjectStall("serve.worker", key)) stats_.AddStall();
      worker_status[i] = injector.InjectTransient("serve.worker", key);
    }
  }

  // One pipeline pass over the requests that reached it, chunked onto the
  // global thread pool at the process batch size. Per-sample Result
  // granularity + entry independence make the chunking invisible.
  std::vector<const data::VideoSample*> run;
  run.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (worker_status[i].ok()) {
      run.push_back(&batch[i]->sample);
    }
  }
  std::vector<vsd::Result<double>> probs(run.size(),
                                         vsd::Result<double>(0.0));
  if (!run.empty()) {
    const int chunk_size = DefaultBatchSize();
    const int64_t num_chunks =
        NumBatches(static_cast<int64_t>(run.size()), chunk_size);
    ParallelFor(num_chunks, [&](int64_t c) {
      const auto [begin, end] =
          BatchBounds(static_cast<int64_t>(run.size()), chunk_size, c);
      const std::span<const data::VideoSample* const> sub(
          run.data() + begin, static_cast<size_t>(end - begin));
      std::vector<vsd::Result<double>> chunk =
          pipeline_->TryPredictBatch(sub);
      for (int64_t k = 0; k < end - begin; ++k) {
        probs[begin + k] = std::move(chunk[k]);
      }
    });
  }

  std::vector<std::unique_ptr<Request>> degrade;
  size_t next_run = 0;
  for (size_t i = 0; i < n; ++i) {
    std::unique_ptr<Request>& req = batch[i];
    req->attempt += 1;
    Status failure;
    double prob = 0.0;
    if (!worker_status[i].ok()) {
      failure = worker_status[i];
    } else {
      vsd::Result<double>& result = probs[next_run++];
      if (result.ok()) {
        prob = *result;
      } else {
        failure = result.status();
      }
    }

    if (failure.ok()) {
      // vsd-lint: allow(guarded-by) enabled() is immutable; lock below
      if (breaker_.enabled()) {
        std::lock_guard<std::mutex> lock(mu_);
        breaker_.RecordSuccess();
      }
      ServeResult res;
      res.prob_stressed = prob;
      res.degradation = DegradationLevel::kFull;
      stats_.AddCompletedFull();
      Resolve(std::move(req), res, resolve_time());
      if (pool_ != nullptr) pool_->RecordOutcome(id_, true);
      continue;
    }

    if (!IsRetryable(failure)) {
      // Caller error (bad input / injected corruption): no retry would
      // change the answer, so it goes straight back.
      stats_.AddInvalidArgument();
      req->promise.set_value(std::move(failure));
      continue;
    }

    // vsd-lint: allow(guarded-by) enabled() is immutable; lock below
    if (breaker_.enabled()) {
      std::lock_guard<std::mutex> lock(mu_);
      breaker_.RecordFailure(clock_->NowMicros());
    }

    const int64_t now = resolve_time();
    const bool retries_left = req->attempt <= config_.retry.max_retries;
    const int64_t backoff_micros =
        retries_left ? BackoffMicros(config_.retry, req->attempt) : 0;
    const bool fits_deadline =
        !req->has_deadline || now + backoff_micros < req->deadline_micros;
    if (retries_left && fits_deadline) {
      stats_.AddRetry();
      req->ready_micros = now + backoff_micros;
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back(std::move(req));
      cv_.notify_one();
      continue;
    }

    // Out of retries here (or no time for one). Hand the request to a
    // peer replica if the pool can place it; otherwise walk down the
    // local degradation ladder instead of failing the caller.
    if (pool_ != nullptr) pool_->RecordOutcome(id_, false);
    if (pool_ != nullptr && pool_->Failover(req)) {
      stats_.AddFailedOver();
      continue;
    }
    degrade.push_back(std::move(req));
  }
  Degrade(std::move(degrade), resolve_time());
}

void Replica::Degrade(std::vector<std::unique_ptr<Request>> requests,
                      int64_t completion_micros) {
  if (requests.empty()) return;
  std::vector<double> probs;
  DegradationLevel level;
  if (fallback_ != nullptr) {
    level = DegradationLevel::kFallback;
    std::vector<const data::VideoSample*> samples;
    samples.reserve(requests.size());
    for (const std::unique_ptr<Request>& req : requests) {
      samples.push_back(&req->sample);
    }
    probs = fallback_->PredictProbStressedBatch(samples);
  } else {
    level = DegradationLevel::kPrior;
    probs.assign(requests.size(), config_.prior_prob);
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    ServeResult res;
    res.prob_stressed = probs[i];
    res.degradation = level;
    if (level == DegradationLevel::kFallback) {
      stats_.AddCompletedFallback();
    } else {
      stats_.AddCompletedPrior();
    }
    Resolve(std::move(requests[i]), res, completion_micros);
  }
}

ReplicaPool::ReplicaPool(
    const std::vector<const cot::ChainPipeline*>& pipelines,
    const Config& config, const baselines::StressClassifier* fallback)
    : config_(config) {
  VSD_CHECK(!pipelines.empty()) << "a pool needs at least one replica";
  VSD_CHECK(pipelines.size() <= 64) << "tried_mask supports up to 64 replicas";
  VSD_CHECK(config_.health_fail_threshold >= 1)
      << "health_fail_threshold must be >= 1";
  VSD_CHECK(config_.health_reentry_heartbeats >= 1)
      << "health_reentry_heartbeats must be >= 1";
  replicas_.reserve(pipelines.size());
  for (size_t r = 0; r < pipelines.size(); ++r) {
    replicas_.push_back(std::make_unique<Replica>(
        static_cast<int>(r), pipelines[r], config_.replica, fallback, this));
  }
  health_.resize(pipelines.size());
}

ReplicaPool::~ReplicaPool() { Shutdown(); }

void ReplicaPool::Heartbeat() {
  FaultInjector& injector = FaultInjector::Global();
  const int slow_factor = std::max(1, injector.config().slow_factor);
  std::lock_guard<std::mutex> lock(health_mu_);
  epoch_ += 1;
  for (size_t r = 0; r < replicas_.size(); ++r) {
    // Replica-level faults are probed per (replica, epoch): pure functions
    // of the fault seed and the heartbeat count, never of wall clock.
    const uint64_t key = FaultHash(static_cast<uint64_t>(r) + 1,
                                   static_cast<uint64_t>(epoch_));
    const bool down =
        injector.ShouldInject(FaultKind::kReplicaDown, kReplicaSite, key);
    const bool slow =
        injector.ShouldInject(FaultKind::kReplicaSlow, kReplicaSite, key);
    Replica& replica = *replicas_[r];
    replica.SetDown(down);
    replica.SetSlow(slow, slow_factor);
    HealthState& hs = health_[r];
    if (down) {
      down_heartbeats_ += 1;
      hs.up_streak = 0;
      if (hs.state == ReplicaHealth::kHealthy) {
        hs.state = ReplicaHealth::kQuarantined;
        quarantines_ += 1;
      }
      continue;
    }
    if (hs.state == ReplicaHealth::kQuarantined) {
      hs.up_streak += 1;
      if (hs.up_streak >= config_.health_reentry_heartbeats) {
        hs.state = ReplicaHealth::kHealthy;
        hs.fail_streak = 0;
        hs.up_streak = 0;
        readmissions_ += 1;
        // A readmitted replica starts from a clean slate: its breaker
        // history belongs to the quarantined episode.
        replica.ResetBreaker();
      }
    }
  }
}

bool ReplicaPool::IsRoutable(int r) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return health_[static_cast<size_t>(r)].state == ReplicaHealth::kHealthy;
}

ReplicaHealth ReplicaPool::health(int r) const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return health_[static_cast<size_t>(r)].state;
}

PoolHealthSnapshot ReplicaPool::HealthSnapshot() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  PoolHealthSnapshot snap;
  snap.epoch = epoch_;
  snap.quarantines = quarantines_;
  snap.readmissions = readmissions_;
  snap.down_heartbeats = down_heartbeats_;
  snap.health.reserve(health_.size());
  for (const HealthState& hs : health_) snap.health.push_back(hs.state);
  return snap;
}

ServeStatsSnapshot ReplicaPool::AggregateStats() const {
  ServeStatsSnapshot total;
  for (const auto& replica : replicas_) total += replica->Stats();
  return total;
}

int ReplicaPool::Pump() {
  // Failover moves work between replicas mid-pump, so loop in index order
  // until a full sweep makes no progress. Deterministic: single caller
  // thread, fixed order.
  int total = 0;
  for (;;) {
    int progressed = 0;
    for (const auto& replica : replicas_) progressed += replica->Pump();
    if (progressed == 0) return total;
    total += progressed;
  }
}

int64_t ReplicaPool::NextEventMicros() const {
  int64_t event = Replica::kNoEvent;
  for (const auto& replica : replicas_) {
    event = std::min(event, replica->NextEventMicros());
  }
  return event;
}

void ReplicaPool::Shutdown() {
  for (const auto& replica : replicas_) replica->Shutdown();
}

void ReplicaPool::SetFailoverHandler(FailoverHandler handler) {
  std::lock_guard<std::mutex> lock(handler_mu_);
  failover_ = std::move(handler);
}

bool ReplicaPool::Failover(std::unique_ptr<Request>& req) {
  FailoverHandler handler;
  {
    // Copy, then call unlocked: the handler submits into replica queues,
    // and holding handler_mu_ across that would order it against every
    // replica mutex.
    std::lock_guard<std::mutex> lock(handler_mu_);
    handler = failover_;
  }
  if (!handler) return false;
  return handler(req);
}

void ReplicaPool::RecordOutcome(int r, bool ok) {
  std::lock_guard<std::mutex> lock(health_mu_);
  HealthState& hs = health_[static_cast<size_t>(r)];
  if (ok) {
    hs.fail_streak = 0;
    return;
  }
  hs.fail_streak += 1;
  if (hs.state == ReplicaHealth::kHealthy &&
      hs.fail_streak >= config_.health_fail_threshold) {
    hs.state = ReplicaHealth::kQuarantined;
    hs.up_streak = 0;
    quarantines_ += 1;
  }
}

void ReplicaPool::SetHealthForTest(int r, ReplicaHealth health) {
  std::lock_guard<std::mutex> lock(health_mu_);
  health_[static_cast<size_t>(r)].state = health;
}

}  // namespace vsd::serve
