// Replica-pool contract suite, on the injectable serve clock: stepped
// (virtual-time) serving is bit-identical to a direct PredictBatch; the
// circuit breaker walks closed -> open -> half-open -> closed reproducibly;
// deadlines, backoff overflow, heartbeat quarantine/re-admission, and
// down-replica failover all behave as pure functions of the event sequence
// — at every thread-pool width.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "common/faults.h"
#include "common/thread_pool.h"
#include "cot/chain_config.h"
#include "cot/pipeline.h"
#include "data/generator.h"
#include "serve/replica_pool.h"
#include "serve/router.h"
#include "vlm/foundation_model.h"

namespace vsd::serve {
namespace {

using ServeFuture = std::future<vsd::Result<ServeResult>>;

/// Bounded retrieval: a hung future fails the test instead of hanging it.
vsd::Result<ServeResult> Get(ServeFuture& future) {
  const auto status = future.wait_for(std::chrono::seconds(120));
  EXPECT_EQ(status, std::future_status::ready) << "future never resolved";
  if (status != std::future_status::ready) {
    return Status::Internal("future never resolved");
  }
  return future.get();
}

/// Small untrained model + dataset shared across tests (inference only).
struct ModelWorld {
  data::Dataset dataset;
  vlm::FoundationModel model;
  cot::ChainConfig chain;
  cot::ChainPipeline pipeline;

  ModelWorld()
      : dataset(data::MakeUvsdSimSmall(24, 4321)),
        model(MakeConfig()),
        pipeline(&model, chain) {
    model.PrecomputeFeatures(dataset);
  }

  std::vector<const data::VideoSample*> Pointers() const {
    std::vector<const data::VideoSample*> out;
    for (const auto& s : dataset.samples) out.push_back(&s);
    return out;
  }

  static ModelWorld& Shared() {
    static ModelWorld* world = new ModelWorld();
    return *world;
  }

  static vlm::FoundationModelConfig MakeConfig() {
    vlm::FoundationModelConfig config;
    config.vision_dim = 12;
    config.hidden_dim = 24;
    config.au_feature_dim = 12;
    config.seed = 11;
    return config;
  }
};

/// Every test leaves the global injector and pool the way it found them.
class ReplicaPoolTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Global().Disable();
    ThreadPool::SetGlobalThreads(1);
  }
};

ReplicaPool::Config SteppedPoolConfig(const ManualClock* clock) {
  ReplicaPool::Config config;
  config.replica.num_workers = 0;
  config.replica.clock = clock;
  config.replica.max_batch = 4;
  config.replica.max_queue = 256;
  return config;
}

/// Drives a stepped pool (and optional heartbeat cadence) until every
/// queued request has resolved or `max_steps` virtual events elapsed.
void DrainVirtual(ManualClock* clock, ReplicaPool* pool,
                  int64_t heartbeat_every = 0, int max_steps = 10000) {
  int64_t next_heartbeat =
      heartbeat_every > 0 ? clock->NowMicros() + heartbeat_every : 0;
  for (int step = 0; step < max_steps; ++step) {
    pool->Pump();
    int64_t next = pool->NextEventMicros();
    if (heartbeat_every > 0) next = std::min(next, next_heartbeat);
    if (next == Replica::kNoEvent) return;
    clock->Set(std::max(clock->NowMicros(), next));
    if (heartbeat_every > 0 && clock->NowMicros() >= next_heartbeat) {
      pool->Heartbeat();
      next_heartbeat += heartbeat_every;
    }
  }
  FAIL() << "virtual drain did not converge";
}

// ----------------------------------------------- stepped-mode identity ----

TEST_F(ReplicaPoolTest, SteppedFaultsOffServingMatchesDirectPredictBatch) {
  FaultInjector::Global().Disable();
  ModelWorld& world = ModelWorld::Shared();
  const auto samples = world.Pointers();
  const std::vector<double> direct = world.pipeline.PredictBatch(samples);

  ManualClock clock;
  ReplicaPool::Config config = SteppedPoolConfig(&clock);
  config.replica.breaker_threshold = 2;  // Enabled; must not perturb.
  ReplicaPool pool({&world.pipeline}, config);

  std::vector<ServeFuture> futures;
  for (const auto* s : samples) {
    futures.push_back(pool.replica(0).Submit(*s, RequestOptions{}));
  }
  DrainVirtual(&clock, &pool);
  for (size_t i = 0; i < futures.size(); ++i) {
    vsd::Result<ServeResult> result = Get(futures[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->degradation, DegradationLevel::kFull);
    EXPECT_EQ(result->prob_stressed, direct[i]) << "sample " << i;
    EXPECT_EQ(result->replica, 0);
    EXPECT_GE(result->latency_micros, 0);
  }
  EXPECT_EQ(pool.AggregateStats().completed_full,
            static_cast<int64_t>(samples.size()));
}

TEST_F(ReplicaPoolTest, RoutedThreeReplicaServingMatchesDirectPredictBatch) {
  FaultInjector::Global().Disable();
  ModelWorld& world = ModelWorld::Shared();
  const auto samples = world.Pointers();
  const std::vector<double> direct = world.pipeline.PredictBatch(samples);

  ManualClock clock;
  ReplicaPool pool({&world.pipeline, &world.pipeline, &world.pipeline},
                   SteppedPoolConfig(&clock));
  Router router(&pool, RouterConfig{});

  std::vector<ServeFuture> futures;
  for (size_t i = 0; i < samples.size(); ++i) {
    RequestOptions options;
    options.session = i;  // Spread sessions over the ring.
    futures.push_back(router.Submit(*samples[i], options));
  }
  DrainVirtual(&clock, &pool);
  bool used_nonzero_replica = false;
  for (size_t i = 0; i < futures.size(); ++i) {
    vsd::Result<ServeResult> result = Get(futures[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->prob_stressed, direct[i]) << "sample " << i;
    EXPECT_EQ(result->failovers, 0);
    used_nonzero_replica |= result->replica != 0;
  }
  EXPECT_TRUE(used_nonzero_replica) << "ring sent every session to replica 0";
}

// --------------------------------------------------- work-conserving cut ----

TEST_F(ReplicaPoolTest, IdleReplicaCutsALoneRequestAtOnce) {
  FaultInjector::Global().Disable();
  ModelWorld& world = ModelWorld::Shared();
  ManualClock clock(5000);
  ReplicaPool pool({&world.pipeline}, SteppedPoolConfig(&clock));
  Replica& replica = pool.replica(0);

  ServeFuture future = replica.Submit(world.dataset.samples[0],
                                      RequestOptions{});
  // Same instant, one request of max_batch 4: an idle replica does not wait
  // for company.
  EXPECT_EQ(replica.Pump(), 1);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  vsd::Result<ServeResult> result = future.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->degradation, DegradationLevel::kFull);
  EXPECT_EQ(result->prob_stressed,
            world.pipeline.PredictProbStressed(world.dataset.samples[0]));
  EXPECT_EQ(result->latency_micros, 0);
  EXPECT_EQ(replica.Stats().batches_cut, 1);
  EXPECT_EQ(replica.NextEventMicros(), Replica::kNoEvent);
}

TEST_F(ReplicaPoolTest, BusyReplicaBatchesArrivalsInteractiveFirst) {
  FaultInjector::Global().Disable();
  ModelWorld& world = ModelWorld::Shared();
  ManualClock clock;
  ReplicaPool::Config config = SteppedPoolConfig(&clock);
  config.replica.service_base_micros = 1000;
  config.replica.service_per_sample_micros = 100;
  ReplicaPool pool({&world.pipeline}, config);
  Replica& replica = pool.replica(0);
  const int max_batch = config.replica.max_batch;

  // A first request makes the replica busy until 1000 + 1 * 100.
  ServeFuture first = replica.Submit(world.dataset.samples[0],
                                     RequestOptions{});
  EXPECT_EQ(replica.Pump(), 1);

  // max_batch + 2 arrivals while it is busy, batch QoS on even positions:
  // B0 I1 B2 I3 B4 I5. Nothing is cut before the replica is free.
  std::vector<ServeFuture> futures;
  for (int i = 0; i < max_batch + 2; ++i) {
    clock.Set(100 * (i + 1));
    RequestOptions options;
    options.qos = i % 2 == 0 ? QosClass::kBatch : QosClass::kInteractive;
    futures.push_back(replica.Submit(
        world.dataset.samples[static_cast<size_t>(i + 1)], options));
    EXPECT_EQ(replica.Pump(), 0) << "cut while busy, arrival " << i;
  }
  EXPECT_EQ(replica.NextEventMicros(), 1100);

  // At busy_until one pump cuts exactly max_batch: the three interactive
  // requests, then the oldest batch-class one. It completes at
  // 1100 + 1000 + 4 * 100.
  clock.Set(1100);
  EXPECT_EQ(replica.Pump(), max_batch);
  const std::vector<int> cut = {0, 1, 3, 5};  // B0 I1 I3 I5.
  const std::vector<int> left = {2, 4};       // B2 B4.
  for (int i : cut) {
    ASSERT_EQ(futures[static_cast<size_t>(i)].wait_for(
                  std::chrono::seconds(0)),
              std::future_status::ready)
        << "arrival " << i;
  }
  for (int i : left) {
    EXPECT_NE(futures[static_cast<size_t>(i)].wait_for(
                  std::chrono::seconds(0)),
              std::future_status::ready)
        << "arrival " << i;
  }
  ServeStatsSnapshot stats = replica.Stats();
  EXPECT_EQ(stats.batches_cut, 2);
  EXPECT_EQ(stats.batched_samples, 1 + max_batch);

  // The two left over go together once the replica is free again.
  EXPECT_EQ(replica.NextEventMicros(), 2500);
  clock.Set(2500);
  EXPECT_EQ(replica.Pump(), 2);
  stats = replica.Stats();
  EXPECT_EQ(stats.batches_cut, 3);
  EXPECT_EQ(stats.batched_samples, max_batch + 3);

  EXPECT_EQ(Get(first)->latency_micros, 1100);
  for (int i = 0; i < max_batch + 2; ++i) {
    vsd::Result<ServeResult> r = Get(futures[static_cast<size_t>(i)]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->prob_stressed, world.pipeline.PredictProbStressed(
                                    world.dataset.samples[static_cast<size_t>(
                                        i + 1)]));
    const bool in_first_cut = i != 2 && i != 4;
    const int64_t completion = in_first_cut ? 2500 : 2500 + 1000 + 2 * 100;
    EXPECT_EQ(r->latency_micros, completion - 100 * (i + 1))
        << "arrival " << i;
  }
}

// ------------------------------------------------------- retry policy ----

TEST(BackoffMicrosTest, HighAttemptCountsSaturateWithoutOverflow) {
  RetryPolicy policy;
  policy.initial_backoff_micros = 500;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_micros = 4000;
  EXPECT_EQ(BackoffMicros(policy, 1), 500);
  EXPECT_EQ(BackoffMicros(policy, 2), 1000);
  EXPECT_EQ(BackoffMicros(policy, 4), 4000);  // Capped.
  // Exponents that would overflow any integer width still just saturate.
  EXPECT_EQ(BackoffMicros(policy, 100), 4000);
  EXPECT_EQ(BackoffMicros(policy, 1000000), 4000);

  // A huge cap cannot trip the double -> int64 narrowing either.
  policy.max_backoff_micros = INT64_MAX;
  const int64_t huge = BackoffMicros(policy, 1000);
  EXPECT_EQ(huge, INT64_MAX);

  // Non-growing multipliers short-circuit instead of iterating.
  policy.backoff_multiplier = 1.0;
  policy.max_backoff_micros = 4000;
  EXPECT_EQ(BackoffMicros(policy, 1), 500);
  EXPECT_EQ(BackoffMicros(policy, 2000000000), 500);
}

// ---------------------------------------------------- breaker on clock ----

TEST(CircuitBreakerTest, WalksOpenHalfOpenClosedOnVirtualClock) {
  CircuitBreaker breaker(/*threshold=*/2, /*open_micros=*/1000);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_FALSE(breaker.ShouldShortCircuit(0));

  breaker.RecordFailure(10);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(20);  // Streak reaches the threshold: opens.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(breaker.ShouldShortCircuit(21));
  EXPECT_TRUE(breaker.ShouldShortCircuit(1019));

  // Window elapsed: the next batch is admitted as a half-open probe.
  EXPECT_FALSE(breaker.ShouldShortCircuit(1020));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  // Probe fails: re-opens immediately for a fresh window.
  breaker.RecordFailure(1030);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(breaker.ShouldShortCircuit(2029));
  EXPECT_FALSE(breaker.ShouldShortCircuit(2030));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  // Probe succeeds: closed, streak cleared.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  EXPECT_FALSE(breaker.ShouldShortCircuit(2031));
}

TEST_F(ReplicaPoolTest, BreakerShortCircuitsBatchesOnManualClock) {
  // Transient faults at rate 1.0: every attempt fails, so the breaker
  // opens on the first request's first attempt; its own retry and the
  // whole second request are then shorted without touching the pipeline.
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = 7;
  faults.transient_rate = 1.0;
  FaultInjector::Global().Configure(faults);

  ModelWorld& world = ModelWorld::Shared();
  ManualClock clock;
  ReplicaPool::Config config = SteppedPoolConfig(&clock);
  config.replica.breaker_threshold = 1;
  config.replica.breaker_reset_micros = 1000000;
  config.replica.retry.max_retries = 1;
  ReplicaPool pool({&world.pipeline}, config);
  Replica& replica = pool.replica(0);

  ServeFuture first = replica.Submit(world.dataset.samples[0],
                                     RequestOptions{});
  DrainVirtual(&clock, &pool);
  vsd::Result<ServeResult> r1 = Get(first);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->degradation, DegradationLevel::kPrior);
  // One real attempt; the requeued retry was shorted by the open breaker.
  EXPECT_EQ(r1->attempts, 1);
  EXPECT_EQ(replica.BreakerState(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(replica.Stats().breaker_short_circuits, 1);

  ServeFuture second = replica.Submit(world.dataset.samples[1],
                                      RequestOptions{});
  DrainVirtual(&clock, &pool);
  vsd::Result<ServeResult> r2 = Get(second);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->degradation, DegradationLevel::kPrior);
  EXPECT_EQ(r2->attempts, 0);  // Shorted before any attempt.
  EXPECT_EQ(replica.Stats().breaker_short_circuits, 2);

  // Past the open window the next batch is admitted as a half-open probe;
  // with the fault cleared it succeeds and closes the breaker — all on
  // virtual time.
  FaultInjector::Global().Disable();
  clock.Advance(config.replica.breaker_reset_micros + 1);
  ServeFuture third = replica.Submit(world.dataset.samples[2],
                                     RequestOptions{});
  DrainVirtual(&clock, &pool);
  vsd::Result<ServeResult> r3 = Get(third);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->degradation, DegradationLevel::kFull);  // Probe succeeded.
  EXPECT_EQ(replica.BreakerState(), CircuitBreaker::State::kClosed);
}

// ------------------------------------------------------------ deadlines ----

TEST_F(ReplicaPoolTest, AlreadyExpiredDeadlineResolvesBeforeAnyAttempt) {
  FaultInjector::Global().Disable();
  ModelWorld& world = ModelWorld::Shared();
  ManualClock clock(1000000);
  ReplicaPool pool({&world.pipeline}, SteppedPoolConfig(&clock));
  Replica& replica = pool.replica(0);

  RequestOptions options;
  options.deadline_micros = 500;
  ServeFuture doomed = replica.Submit(world.dataset.samples[0], options);
  // The deadline passes before the replica is pumped: the request must
  // resolve DeadlineExceeded without ever reaching the pipeline.
  clock.Advance(501);
  pool.Pump();
  vsd::Result<ServeResult> result = Get(doomed);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  const ServeStatsSnapshot stats = replica.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.batches_cut, 0);
}

// ----------------------------------------- health: quarantine/re-entry ----

TEST_F(ReplicaPoolTest, HeartbeatQuarantinesAndReadmitsDeterministically) {
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = 13;
  faults.replica_down_rate = 1.0;  // Every probe: down.
  FaultInjector::Global().Configure(faults);

  ModelWorld& world = ModelWorld::Shared();
  ManualClock clock;
  ReplicaPool::Config config = SteppedPoolConfig(&clock);
  config.health_reentry_heartbeats = 2;
  ReplicaPool pool({&world.pipeline, &world.pipeline}, config);

  pool.Heartbeat();
  EXPECT_EQ(pool.health(0), ReplicaHealth::kQuarantined);
  EXPECT_EQ(pool.health(1), ReplicaHealth::kQuarantined);
  EXPECT_TRUE(pool.replica(0).down());
  PoolHealthSnapshot snap = pool.HealthSnapshot();
  EXPECT_EQ(snap.quarantines, 2);
  EXPECT_EQ(snap.down_heartbeats, 2);

  // Fault cleared: one up heartbeat is not enough to re-admit...
  FaultInjector::Global().Disable();
  pool.Heartbeat();
  EXPECT_EQ(pool.health(0), ReplicaHealth::kQuarantined);
  // ...two consecutive are.
  pool.Heartbeat();
  EXPECT_EQ(pool.health(0), ReplicaHealth::kHealthy);
  EXPECT_EQ(pool.health(1), ReplicaHealth::kHealthy);
  snap = pool.HealthSnapshot();
  EXPECT_EQ(snap.readmissions, 2);
  EXPECT_EQ(snap.epoch, 3);
}

TEST_F(ReplicaPoolTest, ConsecutiveServeFailuresQuarantineWithoutHeartbeat) {
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = 3;
  faults.transient_rate = 1.0;
  FaultInjector::Global().Configure(faults);

  ModelWorld& world = ModelWorld::Shared();
  ManualClock clock;
  ReplicaPool::Config config = SteppedPoolConfig(&clock);
  config.replica.retry.max_retries = 0;
  config.health_fail_threshold = 3;
  ReplicaPool pool({&world.pipeline}, config);

  std::vector<ServeFuture> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(
        pool.replica(0).Submit(world.dataset.samples[0], RequestOptions{}));
  }
  DrainVirtual(&clock, &pool);
  for (auto& f : futures) {
    vsd::Result<ServeResult> r = Get(f);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->degradation, DegradationLevel::kPrior);
  }
  EXPECT_EQ(pool.health(0), ReplicaHealth::kQuarantined);
  EXPECT_EQ(pool.HealthSnapshot().quarantines, 1);
}

// ------------------------------------------------- down-replica failover ----

/// Runs the down-replica failover scenario at the given pool width and
/// returns every resolved (prob, replica, failovers, degradation) tuple in
/// submission order.
struct Outcome {
  double prob = 0.0;
  int replica = 0;
  int failovers = 0;
  DegradationLevel degradation = DegradationLevel::kFull;
};

std::vector<Outcome> RunFailoverScenario(int pool_threads) {
  ThreadPool::SetGlobalThreads(pool_threads);
  FaultInjector::Global().Disable();
  ModelWorld& world = ModelWorld::Shared();
  ManualClock clock;
  ReplicaPool pool({&world.pipeline, &world.pipeline, &world.pipeline},
                   SteppedPoolConfig(&clock));
  Router router(&pool, RouterConfig{});

  // Requests are placed while every replica is healthy; replica 1 then
  // goes down (as the heartbeat would mark it after a kReplicaDown probe)
  // before any batch is processed, so the requests it already accepted
  // must fail over to their next ring neighbor.
  std::vector<ServeFuture> futures;
  for (int i = 0; i < 24; ++i) {
    RequestOptions options;
    options.session = static_cast<uint64_t>(i);
    futures.push_back(router.Submit(world.dataset.samples[
        static_cast<size_t>(i) % world.dataset.samples.size()], options));
  }
  pool.SetHealthForTest(1, ReplicaHealth::kQuarantined);
  pool.replica(1).SetDown(true);

  std::vector<Outcome> outcomes;
  DrainVirtual(&clock, &pool);
  for (auto& f : futures) {
    vsd::Result<ServeResult> r = Get(f);
    EXPECT_TRUE(r.ok());
    Outcome o;
    if (r.ok()) {
      o.prob = r->prob_stressed;
      o.replica = r->replica;
      o.failovers = r->failovers;
      o.degradation = r->degradation;
    }
    outcomes.push_back(o);
  }
  // Zero loss: nothing resolved on the down replica, nothing degraded.
  bool any_failover = false;
  for (const Outcome& o : outcomes) {
    EXPECT_NE(o.replica, 1);
    EXPECT_EQ(o.degradation, DegradationLevel::kFull);
    any_failover |= o.failovers > 0;
  }
  EXPECT_TRUE(any_failover) << "no session was ever placed on replica 1";
  EXPECT_EQ(pool.replica(1).Stats().completed_full, 0);
  return outcomes;
}

TEST_F(ReplicaPoolTest, HashRingFailoverIsIdenticalAcrossThreadCounts) {
  const std::vector<Outcome> at1 = RunFailoverScenario(1);
  ThreadPool::SetGlobalThreads(1);
  const std::vector<Outcome> at4 = RunFailoverScenario(4);
  ASSERT_EQ(at1.size(), at4.size());
  for (size_t i = 0; i < at1.size(); ++i) {
    EXPECT_EQ(at1[i].prob, at4[i].prob) << "request " << i;
    EXPECT_EQ(at1[i].replica, at4[i].replica) << "request " << i;
    EXPECT_EQ(at1[i].failovers, at4[i].failovers) << "request " << i;
  }
}

TEST_F(ReplicaPoolTest, AllReplicasDownStillAnswersEveryRequest) {
  FaultInjector::Global().Disable();
  ModelWorld& world = ModelWorld::Shared();
  ManualClock clock;
  ReplicaPool pool({&world.pipeline, &world.pipeline},
                   SteppedPoolConfig(&clock));
  Router router(&pool, RouterConfig{});
  for (int r = 0; r < pool.num_replicas(); ++r) {
    pool.SetHealthForTest(r, ReplicaHealth::kQuarantined);
    pool.replica(r).SetDown(true);
  }
  std::vector<ServeFuture> futures;
  for (int i = 0; i < 8; ++i) {
    RequestOptions options;
    options.session = static_cast<uint64_t>(i);
    futures.push_back(router.Submit(world.dataset.samples[0], options));
  }
  DrainVirtual(&clock, &pool);
  for (auto& f : futures) {
    vsd::Result<ServeResult> r = Get(f);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Nowhere healthy to go: answered from the degradation ladder, with
    // each replica tried at most once.
    EXPECT_EQ(r->degradation, DegradationLevel::kPrior);
    EXPECT_LE(r->failovers, 1);
  }
}

// -------------------------------------------------------- threaded mode ----

TEST_F(ReplicaPoolTest, ThreadedPoolUnderRealClockResolvesEverything) {
  FaultInjector::Global().Disable();
  ThreadPool::SetGlobalThreads(2);
  ModelWorld& world = ModelWorld::Shared();
  ReplicaPool::Config config;
  config.replica.num_workers = 1;
  config.replica.max_batch = 4;
  ReplicaPool pool({&world.pipeline, &world.pipeline}, config);
  Router router(&pool, RouterConfig{});

  const std::vector<double> direct =
      world.pipeline.PredictBatch(world.Pointers());
  std::vector<std::vector<ServeFuture>> futures(2);
  std::vector<std::thread> producers;
  for (int t = 0; t < 2; ++t) {
    producers.emplace_back([&, t] {
      for (size_t i = 0; i < world.dataset.samples.size(); ++i) {
        RequestOptions options;
        options.session = static_cast<uint64_t>(i);
        options.tenant = static_cast<uint64_t>(t);
        futures[static_cast<size_t>(t)].push_back(
            router.Submit(world.dataset.samples[i], options));
      }
    });
  }
  for (auto& p : producers) p.join();
  for (auto& lane : futures) {
    for (size_t i = 0; i < lane.size(); ++i) {
      vsd::Result<ServeResult> r = Get(lane[i]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->prob_stressed, direct[i]) << "sample " << i;
    }
  }
  pool.Shutdown();
}

}  // namespace
}  // namespace vsd::serve
