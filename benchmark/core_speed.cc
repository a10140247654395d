#include "core_speed.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "trace.h"

namespace vsd::benchmark {

double ReferenceLoopUs() {
  constexpr int kN = 48;
  thread_local std::vector<float> a(kN * kN, 0.5f);
  thread_local std::vector<float> b(kN * kN, 0.25f);
  thread_local std::vector<float> c(kN * kN);
  std::fill(c.begin(), c.end(), 0.0f);
  const int64_t start = NowNs();
  for (int i = 0; i < kN; ++i) {
    for (int k = 0; k < kN; ++k) {
      const float x = a[i * kN + k];
      for (int j = 0; j < kN; ++j) c[i * kN + j] += x * b[k * kN + j];
    }
  }
  const int64_t end = NowNs();
  // Publishes one product entry, so the loop cannot be optimised away.
  static std::atomic<float> sink{0.0f};
  sink.store(c[kN + 1], std::memory_order_relaxed);
  return static_cast<double>(end - start) / 1e3;
}

double AtBaselineSpeed(double time, double reference_us) {
  return reference_us > 0.0 ? time * kBaselineReferenceUs / reference_us
                            : time;
}

CoreSpeedSampler::CoreSpeedSampler(std::chrono::microseconds period)
    : period_(period) {
  const int cpu = sched_getcpu();
  // Without a CPU to share, the sampler still runs, unpinned.
  if (cpu >= 0 &&
      sched_getaffinity(0, sizeof(saved_mask_), &saved_mask_) == 0) {
    CPU_SET(cpu, &pinned_mask_);
    pinned_ = sched_setaffinity(0, sizeof(pinned_mask_), &pinned_mask_) == 0;
  }
  thread_ = std::thread([this] { Run(); });
}

CoreSpeedSampler::~CoreSpeedSampler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  if (pinned_) sched_setaffinity(0, sizeof(saved_mask_), &saved_mask_);
}

double CoreSpeedSampler::TakeMeanUs() {
  std::lock_guard<std::mutex> lock(mu_);
  const double mean =
      samples_ > 0 ? sum_us_ / static_cast<double>(samples_) : 0.0;
  sum_us_ = 0.0;
  samples_ = 0;
  return mean;
}

void CoreSpeedSampler::Run() {
  if (pinned_) sched_setaffinity(0, sizeof(pinned_mask_), &pinned_mask_);
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, period_, [this] { return stop_; })) {
    lock.unlock();
    const double us = ReferenceLoopUs();
    lock.lock();
    sum_us_ += us;
    ++samples_;
  }
}

}  // namespace vsd::benchmark
