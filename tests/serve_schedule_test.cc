// Seeded schedule exploration of Router + ReplicaPool. Each seed draws a
// pool shape, a Poisson arrival schedule over sessions, tenants and QoS
// classes, deadlines, retries, fault rates and a heartbeat cadence, drives
// it on a ManualClock until drained, and checks the serving invariants:
// every future resolves exactly once, each replica's counters conserve its
// requests, the pool's outcomes add up to the router's intake, no full
// answer beats the modelled service time, and every full answer is the
// direct PredictBatch answer. A sample of schedules is replayed in threaded
// mode on the real clock, where only resolution and conservation are
// checked. A failure names the seed and its drawn config on one line.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/faults.h"
#include "common/rng.h"
#include "cot/chain_config.h"
#include "cot/pipeline.h"
#include "data/generator.h"
#include "serve/replica_pool.h"
#include "serve/router.h"
#include "vlm/foundation_model.h"

namespace vsd::serve {
namespace {

using ServeFuture = std::future<vsd::Result<ServeResult>>;

constexpr int kSeeds = 500;
constexpr int kThreadedReplays = 8;

/// Small untrained model + clip pool shared by every schedule.
struct ModelWorld {
  data::Dataset dataset;
  vlm::FoundationModel model;
  cot::ChainConfig chain;
  cot::ChainPipeline pipeline;
  std::vector<double> direct;  ///< PredictBatch over the whole pool.

  ModelWorld()
      : dataset(data::MakeUvsdSimSmall(16, 2024)),
        model(MakeConfig()),
        pipeline(&model, chain) {
    model.PrecomputeFeatures(dataset);
    std::vector<const data::VideoSample*> samples;
    for (const auto& s : dataset.samples) samples.push_back(&s);
    direct = pipeline.PredictBatch(samples);
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
    config.seed = 31;
    return config;
  }
};

struct Arrival {
  int64_t at_micros = 0;
  int clip = 0;
  RequestOptions options;
};

/// One drawn schedule: the pool, the traffic and the faults.
struct Schedule {
  uint64_t seed = 0;
  int replicas = 1;
  int max_batch = 1;
  int max_queue = 2;
  int64_t service_base_micros = 0;  ///< 0 = no service model.
  int64_t service_per_sample_micros = 0;
  int max_retries = 0;
  int64_t backoff_micros = 0;
  bool admission = false;
  double tokens_per_sec = 0.0;
  double burst = 0.0;
  double batch_headroom = 0.0;
  double mean_gap_micros = 0.0;
  int sessions = 1;
  int tenants = 1;
  double batch_share = 0.0;
  double deadline_share = 0.0;
  double transient_rate = 0.0;
  double down_rate = 0.0;
  double slow_rate = 0.0;
  int64_t heartbeat_micros = 0;
  std::vector<Arrival> arrivals;

  bool faults() const {
    return transient_rate > 0.0 || down_rate > 0.0 || slow_rate > 0.0;
  }

  /// Modelled cost of a batch of one at normal speed (0 without the model).
  int64_t BatchOfOneMicros() const {
    return service_base_micros > 0
               ? service_base_micros + service_per_sample_micros
               : 0;
  }

  std::string Describe() const {
    std::ostringstream out;
    out << "seed=" << seed << " replicas=" << replicas
        << " max_batch=" << max_batch << " max_queue=" << max_queue
        << " service_us=" << service_base_micros << "+"
        << service_per_sample_micros << "/sample"
        << " retries=" << max_retries << " backoff_us=" << backoff_micros
        << " admission=" << admission << "(" << tokens_per_sec << "/s,burst "
        << burst << ",headroom " << batch_headroom << ")"
        << " requests=" << arrivals.size()
        << " mean_gap_us=" << mean_gap_micros << " sessions=" << sessions
        << " tenants=" << tenants << " batch_share=" << batch_share
        << " deadline_share=" << deadline_share
        << " transient=" << transient_rate << " down=" << down_rate
        << " slow=" << slow_rate << " heartbeat_us=" << heartbeat_micros;
    return out.str();
  }
};

/// Draws rate in [0, 0.2], zero half the time.
double DrawRate(Rng* rng) {
  return rng->Bernoulli(0.5) ? 0.0 : rng->Uniform(0.0, 0.2);
}

Schedule DrawSchedule(uint64_t seed, int num_clips) {
  Rng rng(seed);
  Schedule s;
  s.seed = seed;
  s.replicas = rng.UniformInt(1, 3);
  s.max_batch = rng.UniformInt(1, 8);
  s.max_queue = rng.UniformInt(2, 64);
  if (rng.Bernoulli(0.5)) {
    s.service_base_micros = rng.UniformInt(100, 3000);
    s.service_per_sample_micros = rng.UniformInt(0, 500);
  }
  s.max_retries = rng.UniformInt(0, 2);
  s.backoff_micros = rng.UniformInt(50, 2000);
  s.admission = rng.Bernoulli(0.3);
  s.tokens_per_sec = rng.Uniform(200.0, 5000.0);
  s.burst = rng.UniformInt(2, 10);
  s.batch_headroom = rng.Uniform(0.0, 0.5);
  s.mean_gap_micros = rng.Uniform(20.0, 3000.0);
  s.sessions = rng.UniformInt(1, 16);
  s.tenants = rng.UniformInt(1, 4);
  s.batch_share = rng.Uniform(0.0, 0.6);
  s.deadline_share = rng.Bernoulli(0.5) ? 0.0 : rng.Uniform(0.0, 1.0);
  s.transient_rate = DrawRate(&rng);
  s.down_rate = DrawRate(&rng);
  s.slow_rate = DrawRate(&rng);
  s.heartbeat_micros = rng.UniformInt(200, 5000);
  const int requests = rng.UniformInt(1, 40);
  int64_t at = 0;
  for (int i = 0; i < requests; ++i) {
    // Exponential gaps make the arrivals a Poisson process.
    at += static_cast<int64_t>(-std::log(1.0 - rng.Uniform()) *
                               s.mean_gap_micros);
    Arrival a;
    a.at_micros = at;
    a.clip = rng.UniformInt(num_clips);
    a.options.session = static_cast<uint64_t>(rng.UniformInt(s.sessions));
    a.options.tenant = static_cast<uint64_t>(rng.UniformInt(s.tenants));
    a.options.qos = rng.Bernoulli(s.batch_share) ? QosClass::kBatch
                                                 : QosClass::kInteractive;
    if (rng.Bernoulli(s.deadline_share)) {
      a.options.deadline_micros = rng.UniformInt(200, 20000);
    }
    s.arrivals.push_back(a);
  }
  return s;
}

void ConfigureFaults(const Schedule& s) {
  if (!s.faults()) {
    FaultInjector::Global().Disable();
    return;
  }
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = s.seed;
  faults.transient_rate = s.transient_rate;
  faults.replica_down_rate = s.down_rate;
  faults.replica_slow_rate = s.slow_rate;
  FaultInjector::Global().Configure(faults);
}

ReplicaPool::Config PoolConfig(const Schedule& s, const ManualClock* clock) {
  ReplicaPool::Config config;
  config.replica.max_batch = s.max_batch;
  config.replica.max_queue = s.max_queue;
  config.replica.retry.max_retries = s.max_retries;
  config.replica.retry.initial_backoff_micros = s.backoff_micros;
  if (clock != nullptr) {
    config.replica.num_workers = 0;
    config.replica.clock = clock;
    config.replica.service_base_micros = s.service_base_micros;
    config.replica.service_per_sample_micros = s.service_per_sample_micros;
  }
  return config;
}

RouterConfig MakeRouterConfig(const Schedule& s) {
  RouterConfig config;
  config.admission.enabled = s.admission;
  config.admission.default_quota.tokens_per_sec = s.tokens_per_sec;
  config.admission.default_quota.burst = s.burst;
  config.admission.batch_headroom = s.batch_headroom;
  return config;
}

/// Checks every future and counter of a drained pool. `stepped` adds the
/// answer checks (full answers equal PredictBatch and take at least the
/// modelled batch-of-1 cost); threaded replays check resolution and
/// conservation only.
void CheckDrained(const Schedule& s, std::vector<ServeFuture>* futures,
                  const ReplicaPool& pool, const Router& router,
                  bool stepped) {
  const ModelWorld& world = ModelWorld::Shared();
  int64_t full = 0;
  int64_t prior = 0;
  int64_t deadline = 0;
  int64_t unavailable = 0;
  for (size_t i = 0; i < futures->size(); ++i) {
    ServeFuture& future = (*futures)[i];
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ADD_FAILURE() << "request " << i << " never resolved";
      continue;
    }
    vsd::Result<ServeResult> result = Status::Internal("unset");
    try {
      result = future.get();
    } catch (const std::future_error& e) {
      ADD_FAILURE() << "request " << i << " was dropped: " << e.what();
      continue;
    }
    if (!result.ok()) {
      const StatusCode code = result.status().code();
      if (code == StatusCode::kDeadlineExceeded) {
        ++deadline;
      } else if (code == StatusCode::kUnavailable) {
        ++unavailable;
      } else {
        ADD_FAILURE() << "request " << i << ": " << result.status().ToString();
      }
      continue;
    }
    if (result->degradation == DegradationLevel::kPrior) {
      ++prior;
      continue;
    }
    ASSERT_EQ(result->degradation, DegradationLevel::kFull) << "request " << i;
    ++full;
    if (stepped) {
      const int clip = s.arrivals[i].clip;
      EXPECT_EQ(result->prob_stressed, world.direct[static_cast<size_t>(clip)])
          << "request " << i << " clip " << clip;
      EXPECT_GE(result->latency_micros, s.BatchOfOneMicros())
          << "request " << i;
    }
  }

  ServeStatsSnapshot total;
  for (int r = 0; r < pool.num_replicas(); ++r) {
    const ServeStatsSnapshot stats = pool.replica(r).Stats();
    EXPECT_EQ(stats.submitted,
              stats.Resolved() + stats.failed_over + stats.rejected_queue_full)
        << "replica " << r << ": " << stats.ToString();
    total += stats;
  }
  const RouterStatsSnapshot routed = router.Stats();
  EXPECT_EQ(routed.submitted, static_cast<int64_t>(futures->size()));
  EXPECT_EQ(total.Resolved() + routed.shed_admission + routed.shed_queue_full,
            routed.submitted);
  EXPECT_EQ(total.failed_over, routed.failovers);
  // Each outcome counter matches the answers its futures carried, so no
  // request resolved twice or under the wrong counter.
  EXPECT_EQ(total.completed_full, full);
  EXPECT_EQ(total.completed_prior, prior);
  EXPECT_EQ(total.completed_fallback, 0);
  EXPECT_EQ(total.invalid_arguments, 0);
  EXPECT_EQ(total.deadline_exceeded, deadline);
  EXPECT_EQ(total.dropped_on_shutdown, 0);
  EXPECT_EQ(routed.shed_admission + routed.shed_queue_full, unavailable);
}

/// What a run of schedules exercised, so the exploration cannot quietly
/// stop reaching an outcome.
struct Coverage {
  ServeStatsSnapshot pool;
  RouterStatsSnapshot router;
  int64_t quarantines = 0;
  int64_t fuller_batches = 0;  ///< Schedules whose mean batch fill > 1.
};

/// Runs the schedule on a ManualClock: arrivals, heartbeats and the pool's
/// own events in time order, until no arrival or event is left.
void RunStepped(const Schedule& s, Coverage* coverage) {
  const ModelWorld& world = ModelWorld::Shared();
  ConfigureFaults(s);
  ManualClock clock;
  ReplicaPool pool(std::vector<const cot::ChainPipeline*>(
                       static_cast<size_t>(s.replicas), &world.pipeline),
                   PoolConfig(s, &clock));
  Router router(&pool, MakeRouterConfig(s));

  std::vector<ServeFuture> futures;
  size_t next_arrival = 0;
  int64_t next_heartbeat = s.heartbeat_micros;
  constexpr int kMaxSteps = 100000;
  int step = 0;
  for (; step < kMaxSteps; ++step) {
    const int64_t now = clock.NowMicros();
    while (next_heartbeat <= now) {
      pool.Heartbeat();
      next_heartbeat += s.heartbeat_micros;
    }
    while (next_arrival < s.arrivals.size() &&
           s.arrivals[next_arrival].at_micros <= now) {
      const Arrival& a = s.arrivals[next_arrival++];
      futures.push_back(router.Submit(
          world.dataset.samples[static_cast<size_t>(a.clip)], a.options));
    }
    pool.Pump();
    int64_t next = pool.NextEventMicros();
    if (next_arrival < s.arrivals.size()) {
      next = std::min(next, s.arrivals[next_arrival].at_micros);
    }
    if (next == Replica::kNoEvent) break;
    clock.Set(std::min(next, next_heartbeat));
  }
  EXPECT_LT(step, kMaxSteps) << "the schedule did not drain";
  CheckDrained(s, &futures, pool, router, /*stepped=*/true);
  pool.Shutdown();

  const ServeStatsSnapshot stats = pool.AggregateStats();
  const RouterStatsSnapshot routed = router.Stats();
  coverage->pool += stats;
  coverage->router.shed_admission += routed.shed_admission;
  coverage->router.shed_queue_full += routed.shed_queue_full;
  coverage->router.failovers += routed.failovers;
  coverage->router.failover_exhausted += routed.failover_exhausted;
  coverage->quarantines += pool.HealthSnapshot().quarantines;
  coverage->fuller_batches += stats.MeanBatchFill() > 1.0 ? 1 : 0;
}

/// Replays the schedule's arrivals in threaded mode on the real clock (one
/// worker per replica, no service model), then waits for every answer.
void RunThreaded(const Schedule& s) {
  const ModelWorld& world = ModelWorld::Shared();
  ConfigureFaults(s);
  ReplicaPool pool(std::vector<const cot::ChainPipeline*>(
                       static_cast<size_t>(s.replicas), &world.pipeline),
                   PoolConfig(s, /*clock=*/nullptr));
  Router router(&pool, MakeRouterConfig(s));

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_micros = [&] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  std::vector<ServeFuture> futures;
  int64_t next_heartbeat = s.heartbeat_micros;
  for (const Arrival& a : s.arrivals) {
    const int64_t wait = a.at_micros - elapsed_micros();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::microseconds(wait));
    while (next_heartbeat <= elapsed_micros()) {
      pool.Heartbeat();
      next_heartbeat += s.heartbeat_micros;
    }
    futures.push_back(router.Submit(
        world.dataset.samples[static_cast<size_t>(a.clip)], a.options));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].wait_for(std::chrono::seconds(60)),
              std::future_status::ready)
        << "request " << i << " never resolved";
  }
  // Joins the workers, so every counter a worker bumps after resolving a
  // request (failover bookkeeping) has landed before the check.
  pool.Shutdown();
  CheckDrained(s, &futures, pool, router, /*stepped=*/false);
}

class ServeScheduleTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disable(); }
};

TEST_F(ServeScheduleTest, SteppedSchedulesConserveAndResolveEveryRequest) {
  const int num_clips =
      static_cast<int>(ModelWorld::Shared().dataset.samples.size());
  Coverage coverage;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    const Schedule s = DrawSchedule(static_cast<uint64_t>(seed), num_clips);
    SCOPED_TRACE(s.Describe());
    RunStepped(s, &coverage);
    if (HasFailure()) return;  // One repro line is enough.
  }
  // Every outcome and mechanism the checks guard was reached.
  EXPECT_GT(coverage.pool.completed_full, 0);
  EXPECT_GT(coverage.pool.completed_prior, 0);
  EXPECT_GT(coverage.pool.deadline_exceeded, 0);
  EXPECT_GT(coverage.pool.retries, 0);
  EXPECT_GT(coverage.pool.rejected_queue_full, 0);
  EXPECT_GT(coverage.pool.failed_over, 0);
  EXPECT_GT(coverage.router.shed_admission, 0);
  EXPECT_GT(coverage.router.shed_queue_full, 0);
  EXPECT_GT(coverage.router.failover_exhausted, 0);
  EXPECT_GT(coverage.quarantines, 0);
  EXPECT_GT(coverage.fuller_batches, 0);
  std::printf("coverage over %d schedules: %s shed_admission=%lld "
              "shed_queue_full=%lld failovers=%lld quarantines=%lld "
              "schedules_with_fill_above_1=%lld\n",
              kSeeds, coverage.pool.ToString().c_str(),
              static_cast<long long>(coverage.router.shed_admission),
              static_cast<long long>(coverage.router.shed_queue_full),
              static_cast<long long>(coverage.router.failovers),
              static_cast<long long>(coverage.quarantines),
              static_cast<long long>(coverage.fuller_batches));
}

TEST_F(ServeScheduleTest, ThreadedReplaysResolveAndConserve) {
  const int num_clips =
      static_cast<int>(ModelWorld::Shared().dataset.samples.size());
  for (int k = 0; k < kThreadedReplays; ++k) {
    // Spread the replays over the stepped seeds.
    const uint64_t seed =
        1 + static_cast<uint64_t>(k) * (kSeeds / kThreadedReplays);
    const Schedule s = DrawSchedule(seed, num_clips);
    SCOPED_TRACE(s.Describe() + " (threaded)");
    RunThreaded(s);
    if (HasFailure()) break;
  }
}

}  // namespace
}  // namespace vsd::serve
