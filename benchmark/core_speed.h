#ifndef VSD_BENCHMARK_CORE_SPEED_H_
#define VSD_BENCHMARK_CORE_SPEED_H_

// Rescales the wall time of work on one thread to the baseline machine's
// uncontended core speed. That machine, a 4-vCPU KVM guest shared with
// other tenants, runs each core in a fast mode or one 1.5-1.6x slower (a
// busy neighbour on the shared core), switching in episodes of
// milliseconds to seconds, with a mix that drifts over minutes. Any
// statistic of raw times moves by 10-30% from run to run; timing a fixed
// loop of the benchmark's own on the same core during the work, and
// scaling by it, held ten seeds within 2-3%. README.md gives the numbers.

#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace vsd::benchmark {

/// Runs a fixed loop of the benchmark's own (a 48x48 matrix product in
/// plain loops, about 12 us) and returns its time in microseconds: the
/// speed of the calling thread's core at that moment.
double ReferenceLoopUs();

/// ReferenceLoopUs on an uncontended core of the baseline machine: its 1st
/// percentile over 200,000 runs.
inline constexpr double kBaselineReferenceUs = 12.1;

/// The time of work (in any unit) during which the reference loop took
/// `reference_us` on the same core (a mean when timed several times),
/// rescaled to the baseline core speed. `reference_us` <= 0 leaves `time`
/// as it is.
double AtBaselineSpeed(double time, double reference_us);

/// Samples the core speed under a call too long to bracket with the
/// reference loop (ChainTrainer::Train takes seconds). Pins the
/// constructing thread to the CPU it is on, and runs ReferenceLoopUs every
/// `period` on a second thread pinned to the same CPU, which the scheduler
/// interleaves with the first: about 1% of that CPU. The destructor stops
/// the sampler and restores the constructing thread's CPU mask.
class CoreSpeedSampler {
 public:
  explicit CoreSpeedSampler(
      std::chrono::microseconds period = std::chrono::microseconds(2000));
  ~CoreSpeedSampler();

  CoreSpeedSampler(const CoreSpeedSampler&) = delete;
  CoreSpeedSampler& operator=(const CoreSpeedSampler&) = delete;

  /// Mean ReferenceLoopUs since construction or the previous call; 0 when
  /// no sample was taken.
  double TakeMeanUs();

 private:
  void Run();

  const std::chrono::microseconds period_;
  cpu_set_t saved_mask_{};
  cpu_set_t pinned_mask_{};
  bool pinned_ = false;  ///< Both threads run on the one CPU of pinned_mask_.
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  double sum_us_ = 0.0;
  int64_t samples_ = 0;
  std::thread thread_;  // Last: starts after every member it uses.
};

}  // namespace vsd::benchmark

#endif  // VSD_BENCHMARK_CORE_SPEED_H_
