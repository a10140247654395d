#ifndef VSD_SERVE_ROUTER_H_
#define VSD_SERVE_ROUTER_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "data/sample.h"
#include "serve/admission.h"
#include "serve/replica_pool.h"

namespace vsd::serve {

struct RouterConfig {
  /// Virtual nodes per replica on the consistent-hash ring. More vnodes
  /// smooth the session distribution; 16 keeps the expected imbalance a
  /// few percent at the pool sizes we run.
  int vnodes = 16;

  /// Per-tenant token-bucket admission (disabled by default). Shedding
  /// happens in `Submit`, before any replica queue is touched.
  AdmissionConfig admission;

  /// Cap on replica-to-replica handoffs per request; -1 = bounded only by
  /// the tried mask (each replica serves a given request at most once).
  int max_failovers = -1;
};

/// Router-level counters (one consistent snapshot, like ServeStats).
/// `submitted` counts unique requests entering the router; per-replica
/// `ServeStatsSnapshot.submitted` counts placement attempts on a running
/// replica, refused or not, so a request appears once here and once per
/// replica it was offered to. Once every request has resolved, the pool's
/// summed `Resolved()` plus `shed_admission` and `shed_queue_full` equals
/// `submitted` here, and its summed `failed_over` equals `failovers`.
struct RouterStatsSnapshot {
  int64_t submitted = 0;
  int64_t shed_admission = 0;   ///< Shed by the token bucket, pre-queue.
  int64_t shed_queue_full = 0;  ///< Every untried replica refused the queue.
  int64_t failovers = 0;        ///< Successful re-routes between replicas.
  int64_t failover_exhausted = 0;  ///< Failover asked, nowhere left to go.
};

/// \brief Consistent-hash session router over a `ReplicaPool`.
///
/// Sessions are placed on a ring of `vnodes` points per replica (hashed
/// with the same FNV-1a/splitmix64 mix the fault layer uses); a request
/// walks the ring clockwise from its session hash and lands on the first
/// *routable* (healthy, untried) replica, so all requests of one session
/// stick to one replica while it is healthy, and fail over deterministically
/// to the same next ring neighbor when it is not. Queue-full refusals
/// continue the same walk, and a replica that gives up on a request
/// mid-serve hands it back through the pool's failover hook, which re-enters
/// the walk with the tried mask grown — a request visits each replica at
/// most once, then degrades where it stands (zero loss).
///
/// Admission control runs first: an over-quota tenant is shed with
/// `Unavailable` before it can occupy queue slots or batch positions.
///
/// The router registers itself as the pool's failover handler on
/// construction and deregisters on destruction — destroy the router before
/// the pool.
class Router {
 public:
  Router(ReplicaPool* pool, const RouterConfig& config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Admission check, then consistent-hash placement with a
  /// failover-on-queue-full walk. The returned future always resolves:
  /// with an answer from some replica, or `Unavailable` when shed.
  std::future<vsd::Result<ServeResult>> Submit(
      const data::VideoSample& sample, const RequestOptions& options);

  /// Ring lookup: first replica clockwise of `session`'s point that is not
  /// in `tried_mask`, preferring routable (healthy) replicas over
  /// quarantined ones; -1 when every replica is in the mask. Pure in
  /// (ring, health, arguments) — exposed for tests.
  int PickReplica(uint64_t session, uint64_t tried_mask) const;

  RouterStatsSnapshot Stats() const;

  const RouterConfig& config() const { return config_; }

 private:
  bool HandleFailover(std::unique_ptr<Request>& req);

  void Add(int64_t RouterStatsSnapshot::* field);

  struct RingPoint {
    uint64_t hash = 0;
    int replica = 0;
  };

  ReplicaPool* pool_;
  RouterConfig config_;
  AdmissionController admission_;
  std::vector<RingPoint> ring_;  ///< Sorted by hash; immutable after ctor.

  mutable std::mutex mu_;
  int64_t next_id_ VSD_GUARDED_BY(mu_) = 0;
  RouterStatsSnapshot stats_ VSD_GUARDED_BY(mu_);
};

}  // namespace vsd::serve

#endif  // VSD_SERVE_ROUTER_H_
