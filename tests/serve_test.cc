// Serving-layer contract suite: faults-off serving is bit-identical to a
// direct PredictBatch at every (worker count, batch cut size, thread count);
// every accepted request's future resolves (backpressure, deadlines,
// shutdown included); and with deterministic fault injection the same seed
// produces the same outcomes on every run.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <tuple>
#include <vector>

#include "common/batching.h"
#include "common/faults.h"
#include "common/thread_pool.h"
#include "cot/chain_config.h"
#include "cot/pipeline.h"
#include "data/generator.h"
#include "serve/replica_pool.h"
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

/// Small untrained model + dataset, shared across tests (inference only).
struct ModelWorld {
  data::Dataset dataset;
  vlm::FoundationModel model;
  cot::ChainConfig chain;
  cot::ChainPipeline pipeline;

  ModelWorld()
      : dataset(data::MakeUvsdSimSmall(24, 1234)),
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
    config.seed = 9;
    return config;
  }
};

/// Constant-probability classifier standing in for the cheap pretrained
/// fallback rung.
class ConstClassifier : public baselines::StressClassifier {
 public:
  explicit ConstClassifier(double prob) : prob_(prob) {}
  std::string name() const override { return "const"; }
  void Fit(const data::Dataset&, Rng*) override {}
  double PredictProbStressed(const data::VideoSample&) const override {
    return prob_;
  }

 private:
  double prob_;
};

/// Every test leaves the global injector and pool the way it found them.
class ServeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::Global().Disable();
    ThreadPool::SetGlobalThreads(1);
    SetDefaultBatchSize(32);
  }
};

// ---------------------------------------------------- faults-off serving ----

/// (max_batch, num_workers, pool threads): served results must be
/// bit-identical to the direct batched call for every combination.
class ServeIdentityTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 protected:
  void TearDown() override {
    FaultInjector::Global().Disable();
    ThreadPool::SetGlobalThreads(1);
    SetDefaultBatchSize(32);
  }
};

TEST_P(ServeIdentityTest, FaultsOffServingMatchesDirectPredictBatch) {
  FaultInjector::Global().Disable();
  ThreadPool::SetGlobalThreads(std::get<2>(GetParam()));
  ModelWorld& world = ModelWorld::Shared();
  const auto samples = world.Pointers();
  const std::vector<double> direct = world.pipeline.PredictBatch(samples);

  ServeConfig config;
  config.max_batch = std::get<0>(GetParam());
  config.num_workers = std::get<1>(GetParam());
  config.max_queue = static_cast<int>(samples.size());
  config.max_batch_delay_micros = 200;
  Replica replica(0, &world.pipeline, config, /*fallback=*/nullptr,
                  /*pool=*/nullptr);

  std::vector<ServeFuture> futures;
  futures.reserve(samples.size());
  for (const data::VideoSample* sample : samples) {
    futures.push_back(replica.Submit(*sample, {}));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    vsd::Result<ServeResult> result = Get(futures[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->prob_stressed, direct[i]) << "sample " << i;
    EXPECT_EQ(result->label, direct[i] >= 0.5 ? 1 : 0);
    EXPECT_EQ(result->degradation, DegradationLevel::kFull);
    EXPECT_EQ(result->attempts, 1);
  }
  replica.Shutdown();

  const ServeStatsSnapshot stats = replica.Stats();
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(samples.size()));
  EXPECT_EQ(stats.completed_full, static_cast<int64_t>(samples.size()));
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.Degraded(), 0);
  EXPECT_EQ(stats.Resolved(), stats.submitted);
  EXPECT_EQ(stats.batched_samples, static_cast<int64_t>(samples.size()));
  EXPECT_GE(stats.batches_cut, 1);
}

INSTANTIATE_TEST_SUITE_P(BatchWorkerThreadSweep, ServeIdentityTest,
                         ::testing::Combine(::testing::Values(1, 3, 8),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(1, 4)));

// ------------------------------------------------- multi-producer ingest ----

// Ingest stress: N submitter threads racing into one replica must not change
// a single bit of any result. Each producer owns a strided slice of the
// dataset and its own future vector (the outer vector is pre-sized, so no
// producer ever touches shared state); per-sample results are then checked
// against the direct batched call, which also proves no request was lost,
// duplicated, or cross-wired to another producer's future under the race.
TEST_F(ServeTest, MultiProducerIngestMatchesDirectPredictBatch) {
  FaultInjector::Global().Disable();
  ThreadPool::SetGlobalThreads(4);
  ModelWorld& world = ModelWorld::Shared();
  const auto samples = world.Pointers();
  const std::vector<double> direct = world.pipeline.PredictBatch(samples);

  constexpr int kProducers = 4;
  constexpr int kRounds = 2;
  ServeConfig config;
  config.max_batch = 5;
  config.num_workers = 3;
  config.max_batch_delay_micros = 200;
  // Queue bound above the total in flight: this test is about racing
  // submission, not backpressure, so no request may be rejected.
  config.max_queue = static_cast<int>(samples.size()) * kRounds;
  Replica replica(0, &world.pipeline, config, /*fallback=*/nullptr,
                  /*pool=*/nullptr);

  // futures[p] belongs to producer p alone; sample_of[p] records the
  // submission order so results can be matched back to `direct`.
  std::vector<std::vector<ServeFuture>> futures(kProducers);
  std::vector<std::vector<size_t>> sample_of(kProducers);
  {
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int round = 0; round < kRounds; ++round) {
          for (size_t i = static_cast<size_t>(p); i < samples.size();
               i += kProducers) {
            futures[p].push_back(replica.Submit(*samples[i], {}));
            sample_of[p].push_back(i);
          }
        }
      });
    }
    for (std::thread& t : producers) t.join();
  }

  int64_t resolved = 0;
  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(futures[p].size(), sample_of[p].size());
    for (size_t k = 0; k < futures[p].size(); ++k) {
      vsd::Result<ServeResult> result = Get(futures[p][k]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const size_t i = sample_of[p][k];
      EXPECT_EQ(result->prob_stressed, direct[i])
          << "producer " << p << " sample " << i;
      EXPECT_EQ(result->degradation, DegradationLevel::kFull);
      ++resolved;
    }
  }
  EXPECT_EQ(resolved,
            static_cast<int64_t>(samples.size()) * kRounds);
  replica.Shutdown();

  const ServeStatsSnapshot stats = replica.Stats();
  EXPECT_EQ(stats.submitted, resolved);
  EXPECT_EQ(stats.completed_full, resolved);
  EXPECT_EQ(stats.rejected_queue_full, 0);
  EXPECT_EQ(stats.dropped_on_shutdown, 0);
  EXPECT_EQ(stats.batched_samples, resolved);
  EXPECT_EQ(stats.Resolved(), stats.submitted);
}

// --------------------------------------------------------- queue limits ----

TEST_F(ServeTest, BackpressureRejectsBeyondBoundAndShutdownDrains) {
  ModelWorld& world = ModelWorld::Shared();
  ServeConfig config;
  config.max_queue = 2;
  config.num_workers = 0;  // Requests queue up; nothing consumes them.
  Replica replica(0, &world.pipeline, config, /*fallback=*/nullptr,
                  /*pool=*/nullptr);

  std::vector<ServeFuture> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(replica.Submit(world.dataset.samples[0], {}));
  }
  // The first two are queued (pending); the rest rejected immediately.
  for (int i = 2; i < 5; ++i) {
    vsd::Result<ServeResult> rejected = Get(futures[i]);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(replica.Stats().rejected_queue_full, 3);

  replica.Shutdown();
  for (int i = 0; i < 2; ++i) {
    vsd::Result<ServeResult> dropped = Get(futures[i]);
    ASSERT_FALSE(dropped.ok());
    EXPECT_EQ(dropped.status().code(), StatusCode::kUnavailable);
  }
  const ServeStatsSnapshot stats = replica.Stats();
  EXPECT_EQ(stats.dropped_on_shutdown, 2);
  EXPECT_EQ(stats.Resolved() + stats.rejected_queue_full, stats.submitted);

  // Post-shutdown submission resolves immediately as Unavailable.
  ServeFuture late = replica.Submit(world.dataset.samples[0], {});
  EXPECT_EQ(Get(late).status().code(), StatusCode::kUnavailable);
}

TEST_F(ServeTest, DeadlineExpiresBeforeBatchCut) {
  ModelWorld& world = ModelWorld::Shared();
  ServeConfig config;
  config.max_batch = 4;
  // The age-based cut would fire only after 1s; the request's own 2ms
  // deadline expires long before that (late expiry is fine — sanitizer
  // slowness only makes the deadline *more* expired).
  config.max_batch_delay_micros = 1000000;
  config.num_workers = 1;
  Replica replica(0, &world.pipeline, config, /*fallback=*/nullptr,
                  /*pool=*/nullptr);

  RequestOptions options;
  options.deadline_micros = 2000;
  ServeFuture future = replica.Submit(world.dataset.samples[0], options);
  vsd::Result<ServeResult> result = Get(future);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  replica.Shutdown();
  EXPECT_EQ(replica.Stats().deadline_exceeded, 1);
}

TEST_F(ServeTest, InvalidInputResolvesAsInvalidArgument) {
  ModelWorld& world = ModelWorld::Shared();
  ServeConfig config;
  config.max_batch_delay_micros = 100;
  Replica replica(0, &world.pipeline, config, /*fallback=*/nullptr,
                  /*pool=*/nullptr);

  data::VideoSample bad = world.dataset.samples[0];
  bad.expressive_frame = img::Image();  // Empty frame: decoder failure.
  ServeFuture bad_future = replica.Submit(bad, {});
  ServeFuture good_future = replica.Submit(world.dataset.samples[1], {});

  vsd::Result<ServeResult> bad_result = Get(bad_future);
  ASSERT_FALSE(bad_result.ok());
  EXPECT_EQ(bad_result.status().code(), StatusCode::kInvalidArgument);
  // Per-sample granularity: the bad sample must not fail its batch-mates.
  vsd::Result<ServeResult> good_result = Get(good_future);
  ASSERT_TRUE(good_result.ok()) << good_result.status().ToString();
  EXPECT_EQ(good_result->prob_stressed,
            world.pipeline.PredictProbStressed(world.dataset.samples[1]));
  replica.Shutdown();
  EXPECT_EQ(replica.Stats().invalid_arguments, 1);
}

// ----------------------------------------------------- faults + retries ----

/// Runs one sequential serving session (submit, wait, next) under the given
/// fault config and returns per-request (ok, code, prob, level, attempts).
struct Outcome {
  bool ok;
  StatusCode code;
  double prob;
  DegradationLevel level;
  int attempts;

  bool operator==(const Outcome& other) const {
    return ok == other.ok && code == other.code && prob == other.prob &&
           level == other.level && attempts == other.attempts;
  }
};

std::vector<Outcome> RunFaultySession(const FaultConfig& faults,
                                      const ServeConfig& config,
                                      const baselines::StressClassifier* fb) {
  ModelWorld& world = ModelWorld::Shared();
  FaultInjector::Global().Configure(faults);
  Replica replica(0, &world.pipeline, config, fb, /*pool=*/nullptr);
  std::vector<Outcome> outcomes;
  // Sequential submission pins batch composition (one request per batch),
  // so the whole session is deterministic end to end.
  for (const auto& sample : world.dataset.samples) {
    ServeFuture future = replica.Submit(sample, {});
    vsd::Result<ServeResult> result = Get(future);
    Outcome o;
    o.ok = result.ok();
    o.code = result.status().code();
    o.prob = result.ok() ? result->prob_stressed : -1.0;
    o.level = result.ok() ? result->degradation : DegradationLevel::kFull;
    o.attempts = result.ok() ? result->attempts : 0;
    outcomes.push_back(o);
  }
  replica.Shutdown();
  FaultInjector::Global().Disable();
  return outcomes;
}

TEST_F(ServeTest, FaultScheduleIsIdenticalAcrossSessionsAndThreadCounts) {
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = 41;
  faults.transient_rate = 0.3;
  faults.corrupt_rate = 0.05;
  faults.nan_rate = 0.05;
  ServeConfig config;
  config.max_batch_delay_micros = 100;
  config.retry.max_retries = 2;
  config.retry.initial_backoff_micros = 100;

  const std::vector<Outcome> first = RunFaultySession(faults, config, nullptr);
  const std::vector<Outcome> second =
      RunFaultySession(faults, config, nullptr);
  EXPECT_EQ(first, second) << "same seed must reproduce the same outcomes";

  ThreadPool::SetGlobalThreads(4);
  const std::vector<Outcome> threaded =
      RunFaultySession(faults, config, nullptr);
  EXPECT_EQ(first, threaded) << "fault schedule must not depend on threads";

  // The session actually exercised the machinery: some requests resolved
  // degraded or retried, and none hung (RunFaultySession waits on each).
  bool any_degraded = false;
  for (const Outcome& o : first) {
    any_degraded = any_degraded || (o.ok && o.level != DegradationLevel::kFull);
  }
  EXPECT_TRUE(any_degraded) << "fault rates were high enough to degrade";
}

TEST_F(ServeTest, PersistentFailureWalksDegradationLadder) {
  // transient_rate = 1: every pipeline attempt fails, retries are
  // exhausted, and every request lands on the configured lower rung.
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = 7;
  faults.transient_rate = 1.0;
  ServeConfig config;
  config.max_batch_delay_micros = 100;
  config.retry.max_retries = 1;
  config.retry.initial_backoff_micros = 100;
  config.prior_prob = 0.7;

  const ConstClassifier fallback(0.25);
  const std::vector<Outcome> with_fallback =
      RunFaultySession(faults, config, &fallback);
  for (const Outcome& o : with_fallback) {
    ASSERT_TRUE(o.ok);
    EXPECT_EQ(o.level, DegradationLevel::kFallback);
    EXPECT_EQ(o.prob, 0.25);
    EXPECT_EQ(o.attempts, 2);  // First try + one retry, both failed.
  }

  const std::vector<Outcome> with_prior =
      RunFaultySession(faults, config, nullptr);
  for (const Outcome& o : with_prior) {
    ASSERT_TRUE(o.ok);
    EXPECT_EQ(o.level, DegradationLevel::kPrior);
    EXPECT_EQ(o.prob, 0.7);
  }
}

TEST_F(ServeTest, RetryRecoversFromTransientFaults) {
  // Moderate transient rate + generous retries: every request eventually
  // resolves, and any request that needed >1 attempt proves retry works
  // (worker faults are keyed by (id, attempt), so a retry draws fresh).
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = 3;
  faults.transient_rate = 0.4;
  ServeConfig config;
  config.max_batch_delay_micros = 100;
  config.retry.max_retries = 8;
  config.retry.initial_backoff_micros = 50;

  const std::vector<Outcome> outcomes =
      RunFaultySession(faults, config, nullptr);
  ModelWorld& world = ModelWorld::Shared();
  const std::vector<double> direct =
      world.pipeline.PredictBatch(world.Pointers());
  bool any_retried = false;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok);
    if (outcomes[i].level == DegradationLevel::kFull) {
      // A full answer after retries is still the bit-exact answer.
      EXPECT_EQ(outcomes[i].prob, direct[i]) << "sample " << i;
      any_retried = any_retried || outcomes[i].attempts > 1;
    }
  }
  EXPECT_TRUE(any_retried) << "expected at least one successful retry";
}

TEST_F(ServeTest, BreakerShortCircuitsAfterConsecutiveFailures) {
  FaultConfig faults;
  faults.enabled = true;
  faults.seed = 7;
  faults.transient_rate = 1.0;  // Pipeline never succeeds.
  FaultInjector::Global().Configure(faults);

  ModelWorld& world = ModelWorld::Shared();
  ServeConfig config;
  config.max_batch_delay_micros = 100;
  config.retry.max_retries = 0;
  config.breaker_threshold = 1;
  config.breaker_reset_micros = 60000000;  // Stays open for the whole test.
  Replica replica(0, &world.pipeline, config, /*fallback=*/nullptr,
                  /*pool=*/nullptr);

  ServeFuture first = replica.Submit(world.dataset.samples[0], {});
  vsd::Result<ServeResult> opened = Get(first);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->degradation, DegradationLevel::kPrior);
  EXPECT_EQ(opened->attempts, 1);  // Attempted once, failed, opened breaker.

  ServeFuture second = replica.Submit(world.dataset.samples[1], {});
  vsd::Result<ServeResult> shorted = Get(second);
  ASSERT_TRUE(shorted.ok());
  EXPECT_EQ(shorted->degradation, DegradationLevel::kPrior);
  EXPECT_EQ(shorted->attempts, 0);  // Breaker open: pipeline never touched.
  replica.Shutdown();
}

}  // namespace
}  // namespace vsd::serve
