#ifndef VSD_SERVE_STATS_H_
#define VSD_SERVE_STATS_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "common/annotations.h"

namespace vsd::serve {

/// Point-in-time copy of a replica's counters. Outcome counters partition
/// the submitted requests: every request accepted into the queue resolves
/// into exactly one of {completed_full, completed_fallback, completed_prior,
/// invalid_arguments, deadline_exceeded, dropped_on_shutdown} or is handed
/// to another replica (failed_over); rejected requests
/// (rejected_queue_full) never enter the queue. `Submit` and
/// `SubmitRouted` count alike (a submission to a shut-down replica counts
/// nothing), so on either path
/// `submitted == Resolved() + failed_over + rejected_queue_full + pending`.
struct ServeStatsSnapshot {
  int64_t submitted = 0;
  int64_t rejected_queue_full = 0;
  int64_t invalid_arguments = 0;
  int64_t completed_full = 0;
  int64_t completed_fallback = 0;
  int64_t completed_prior = 0;
  int64_t deadline_exceeded = 0;
  int64_t dropped_on_shutdown = 0;
  int64_t retries = 0;        ///< Re-enqueues after a retryable failure.
  int64_t batches_cut = 0;    ///< Dynamic batches dispatched to workers.
  int64_t batched_samples = 0;  ///< Requests across all cut batches.
  int64_t stalls = 0;         ///< Injected worker stalls endured.
  int64_t failed_over = 0;    ///< Requests handed to another replica.
  int64_t breaker_short_circuits = 0;  ///< Requests shorted by an open breaker.

  /// Requests answered without the full pipeline (the degradation ladder's
  /// lower rungs).
  int64_t Degraded() const { return completed_fallback + completed_prior; }

  /// Requests that resolved here, one way or another.
  int64_t Resolved() const {
    return completed_full + completed_fallback + completed_prior +
           invalid_arguments + deadline_exceeded + dropped_on_shutdown;
  }

  /// Mean requests per cut batch (batch fill); 0 when no batch was cut.
  double MeanBatchFill() const {
    return batches_cut > 0
               ? static_cast<double>(batched_samples) /
                     static_cast<double>(batches_cut)
               : 0.0;
  }

  /// One-line human-readable rendering for logs.
  std::string ToString() const;

  ServeStatsSnapshot& operator+=(const ServeStatsSnapshot& other);
};

/// \brief Thread-safe serving counters.
///
/// One mutex guards the whole struct so `Snapshot()` is a single consistent
/// copy: cross-counter invariants (the conservation formula above, batch
/// fill ratios) hold in every snapshot, even ones taken mid-run while
/// workers are mutating — unlike the earlier per-field atomics, where a
/// reader could observe a completion without its submission. Increment
/// frequency is per request / per batch, so the lock is never on a
/// per-sample hot path.
class ServeStats {
 public:
  void AddSubmitted() { Add(&ServeStatsSnapshot::submitted); }
  void AddRejectedQueueFull() {
    Add(&ServeStatsSnapshot::rejected_queue_full);
  }
  void AddInvalidArgument() { Add(&ServeStatsSnapshot::invalid_arguments); }
  void AddCompletedFull() { Add(&ServeStatsSnapshot::completed_full); }
  void AddCompletedFallback() {
    Add(&ServeStatsSnapshot::completed_fallback);
  }
  void AddCompletedPrior() { Add(&ServeStatsSnapshot::completed_prior); }
  void AddDeadlineExceeded() { Add(&ServeStatsSnapshot::deadline_exceeded); }
  void AddDroppedOnShutdown() {
    Add(&ServeStatsSnapshot::dropped_on_shutdown);
  }
  void AddRetry() { Add(&ServeStatsSnapshot::retries); }
  void AddBatch(int64_t num_requests) {
    std::lock_guard<std::mutex> lock(mu_);
    counts_.batches_cut += 1;
    counts_.batched_samples += num_requests;
  }
  void AddStall() { Add(&ServeStatsSnapshot::stalls); }
  void AddFailedOver() { Add(&ServeStatsSnapshot::failed_over); }
  void AddBreakerShortCircuit() {
    Add(&ServeStatsSnapshot::breaker_short_circuits);
  }

  /// One consistent copy of every counter, taken under the same lock the
  /// mutators hold.
  ServeStatsSnapshot Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
  }

 private:
  void Add(int64_t ServeStatsSnapshot::* field) {
    std::lock_guard<std::mutex> lock(mu_);
    counts_.*field += 1;
  }

  mutable std::mutex mu_;
  ServeStatsSnapshot counts_ VSD_GUARDED_BY(mu_);
};

}  // namespace vsd::serve

#endif  // VSD_SERVE_STATS_H_
