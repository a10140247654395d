// Router contract suite: consistent-hash placement is deterministic and
// session-sticky, failover walks the ring in a fixed order, adding a
// replica moves only a bounded fraction of sessions, and admission control
// sheds over-quota tenants before any replica queue is touched.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <set>
#include <vector>

#include "common/faults.h"
#include "common/thread_pool.h"
#include "cot/chain_config.h"
#include "cot/pipeline.h"
#include "data/generator.h"
#include "serve/admission.h"
#include "serve/replica_pool.h"
#include "serve/router.h"
#include "vlm/foundation_model.h"

namespace vsd::serve {
namespace {

using ServeFuture = std::future<vsd::Result<ServeResult>>;

vsd::Result<ServeResult> Get(ServeFuture& future) {
  const auto status = future.wait_for(std::chrono::seconds(120));
  EXPECT_EQ(status, std::future_status::ready) << "future never resolved";
  if (status != std::future_status::ready) {
    return Status::Internal("future never resolved");
  }
  return future.get();
}

struct ModelWorld {
  data::Dataset dataset;
  vlm::FoundationModel model;
  cot::ChainConfig chain;
  cot::ChainPipeline pipeline;

  ModelWorld()
      : dataset(data::MakeUvsdSimSmall(16, 77)),
        model(MakeConfig()),
        pipeline(&model, chain) {
    model.PrecomputeFeatures(dataset);
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
    config.seed = 21;
    return config;
  }
};

class RouterTest : public ::testing::Test {
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
  return config;
}

std::vector<const cot::ChainPipeline*> Pipelines(int n) {
  return std::vector<const cot::ChainPipeline*>(
      static_cast<size_t>(n), &ModelWorld::Shared().pipeline);
}

// ------------------------------------------------------------ placement ----

TEST_F(RouterTest, PlacementIsDeterministicStickyAndCoversAllReplicas) {
  ManualClock clock;
  ReplicaPool pool(Pipelines(3), SteppedPoolConfig(&clock));
  Router router(&pool, RouterConfig{});

  std::set<int> used;
  for (uint64_t session = 0; session < 256; ++session) {
    const int first = router.PickReplica(session, 0);
    ASSERT_GE(first, 0);
    ASSERT_LT(first, 3);
    used.insert(first);
    // Same session, same health: same replica, every time.
    EXPECT_EQ(router.PickReplica(session, 0), first);
  }
  // 256 sessions over 3 replicas x 16 vnodes: every replica owns some arc.
  EXPECT_EQ(used.size(), 3u);
}

TEST_F(RouterTest, FailoverWalkSkipsUnroutableAndTriedReplicas) {
  ManualClock clock;
  ReplicaPool pool(Pipelines(3), SteppedPoolConfig(&clock));
  Router router(&pool, RouterConfig{});

  for (uint64_t session = 0; session < 64; ++session) {
    const int preferred = router.PickReplica(session, 0);
    // Quarantining the preferred replica reroutes to a different one, and
    // the choice is stable while health is unchanged.
    pool.SetHealthForTest(preferred, ReplicaHealth::kQuarantined);
    const int next = router.PickReplica(session, 0);
    EXPECT_NE(next, preferred);
    EXPECT_EQ(router.PickReplica(session, 0), next);
    // Re-admission restores the original placement (ring is immutable).
    pool.SetHealthForTest(preferred, ReplicaHealth::kHealthy);
    EXPECT_EQ(router.PickReplica(session, 0), preferred);

    // The tried mask wins over health: a healthy-but-tried replica is
    // skipped, and a fully tried mask yields -1 (degrade where you stand).
    const int after_tried =
        router.PickReplica(session, uint64_t{1} << preferred);
    EXPECT_NE(after_tried, preferred);
    EXPECT_EQ(router.PickReplica(session, 0b111), -1);
  }
}

TEST_F(RouterTest, AddingAReplicaMovesABoundedFractionOfSessions) {
  ManualClock clock;
  ReplicaPool pool3(Pipelines(3), SteppedPoolConfig(&clock));
  Router router3(&pool3, RouterConfig{});
  ReplicaPool pool4(Pipelines(4), SteppedPoolConfig(&clock));
  Router router4(&pool4, RouterConfig{});

  const int kSessions = 1024;
  int moved = 0;
  for (uint64_t session = 0; session < kSessions; ++session) {
    const int before = router3.PickReplica(session, 0);
    const int after = router4.PickReplica(session, 0);
    if (after != before) {
      // Consistent hashing: sessions only ever move *to* the new replica,
      // never shuffle among the old ones.
      EXPECT_EQ(after, 3) << "session " << session;
      ++moved;
    }
  }
  // Expected move fraction is ~1/4; anything under half shows the ring is
  // doing its job (a modulo router would move ~3/4).
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kSessions / 2);
}

// ------------------------------------------------------------ admission ----

TEST(AdmissionControllerTest, TokenBucketRefillsAndSheds) {
  AdmissionConfig config;
  config.enabled = true;
  config.default_quota.tokens_per_sec = 10.0;
  config.default_quota.burst = 2.0;
  config.batch_headroom = 0.0;
  AdmissionController admission(config);

  // A fresh tenant starts with a full bucket of `burst` tokens.
  EXPECT_TRUE(admission.Admit(1, QosClass::kInteractive, 0).ok());
  EXPECT_TRUE(admission.Admit(1, QosClass::kInteractive, 0).ok());
  const Status shed = admission.Admit(1, QosClass::kInteractive, 0);
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);

  // 100ms at 10 tokens/sec refills exactly one token.
  EXPECT_TRUE(admission.Admit(1, QosClass::kInteractive, 100000).ok());
  EXPECT_FALSE(admission.Admit(1, QosClass::kInteractive, 100000).ok());

  // Tenants are isolated: tenant 2's bucket is untouched.
  EXPECT_TRUE(admission.Admit(2, QosClass::kInteractive, 100000).ok());
}

TEST(AdmissionControllerTest, BatchClassKeepsInteractiveHeadroom) {
  AdmissionConfig config;
  config.enabled = true;
  config.default_quota.tokens_per_sec = 0.0;  // No refill: pure burst.
  config.default_quota.burst = 4.0;
  config.batch_headroom = 0.5;  // Bottom 2 tokens: interactive only.
  AdmissionController admission(config);

  // Batch requests drain down to the headroom floor, then shed...
  EXPECT_TRUE(admission.Admit(9, QosClass::kBatch, 0).ok());
  EXPECT_TRUE(admission.Admit(9, QosClass::kBatch, 0).ok());
  EXPECT_FALSE(admission.Admit(9, QosClass::kBatch, 0).ok());
  // ...while interactive requests keep landing to the last token.
  EXPECT_TRUE(admission.Admit(9, QosClass::kInteractive, 0).ok());
  EXPECT_TRUE(admission.Admit(9, QosClass::kInteractive, 0).ok());
  EXPECT_FALSE(admission.Admit(9, QosClass::kInteractive, 0).ok());
}

TEST_F(RouterTest, AdmissionShedsBeforeAnyReplicaQueueIsTouched) {
  FaultInjector::Global().Disable();
  ModelWorld& world = ModelWorld::Shared();
  ManualClock clock;
  ReplicaPool pool(Pipelines(2), SteppedPoolConfig(&clock));
  RouterConfig config;
  config.admission.enabled = true;
  config.admission.default_quota.tokens_per_sec = 0.0;
  config.admission.default_quota.burst = 3.0;
  config.admission.batch_headroom = 0.0;
  Router router(&pool, config);

  std::vector<ServeFuture> futures;
  for (int i = 0; i < 8; ++i) {
    RequestOptions options;
    options.session = static_cast<uint64_t>(i);
    options.tenant = 42;
    futures.push_back(router.Submit(world.dataset.samples[0], options));
  }
  // Over-quota submissions resolve immediately, without a queue slot.
  int admitted = 0;
  int shed = 0;
  for (auto& f : futures) {
    if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      vsd::Result<ServeResult> r = f.get();
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
      ++shed;
    } else {
      ++admitted;
    }
  }
  EXPECT_EQ(shed, 5);
  EXPECT_EQ(admitted, 3);
  const RouterStatsSnapshot stats = router.Stats();
  EXPECT_EQ(stats.submitted, 8);
  EXPECT_EQ(stats.shed_admission, 5);
  EXPECT_EQ(pool.AggregateStats().submitted, 3);
  pool.Pump();  // Serves the admitted requests at once.
  clock.Advance(2000);
  pool.Pump();
  pool.Shutdown();
}

TEST_F(RouterTest, QueueFullWalksToNextReplicaThenSheds) {
  FaultInjector::Global().Disable();
  ModelWorld& world = ModelWorld::Shared();
  ManualClock clock;
  ReplicaPool::Config config = SteppedPoolConfig(&clock);
  config.replica.max_queue = 2;
  ReplicaPool pool(Pipelines(2), config);
  Router router(&pool, RouterConfig{});

  // One session: all requests prefer the same replica; the third and
  // fourth spill to the neighbor, the fifth finds every queue full.
  std::vector<ServeFuture> futures;
  for (int i = 0; i < 5; ++i) {
    RequestOptions options;
    options.session = 99;
    futures.push_back(router.Submit(world.dataset.samples[0], options));
  }
  vsd::Result<ServeResult> last = Get(futures.back());
  EXPECT_EQ(last.status().code(), StatusCode::kUnavailable);
  const RouterStatsSnapshot stats = router.Stats();
  EXPECT_EQ(stats.shed_queue_full, 1);
  // Refusals: one per spill (requests 3 and 4) plus both replicas for the
  // shed request.
  EXPECT_EQ(pool.AggregateStats().rejected_queue_full, 4);

  clock.Advance(2000);
  pool.Pump();
  for (int i = 0; i < 4; ++i) {
    vsd::Result<ServeResult> r = Get(futures[static_cast<size_t>(i)]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->degradation, DegradationLevel::kFull);
  }
}

}  // namespace
}  // namespace vsd::serve
