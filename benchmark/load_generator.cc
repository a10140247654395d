#include "load_generator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/rng.h"
#include "trace.h"

namespace vsd::benchmark {
namespace {

/// A request left unresolved this long after the phase ends is lost.
constexpr int64_t kGiveUpNs = 20'000'000'000;

serve::ReplicaPool::Config PoolConfig() {
  serve::ReplicaPool::Config config;
  config.replica.max_queue = 256;
  config.replica.max_batch = 8;
  config.replica.max_batch_delay_micros = 2000;
  config.replica.num_workers = 1;
  return config;
}

serve::RouterConfig MakeRouterConfig() {
  serve::RouterConfig config;
  config.admission.enabled = true;
  // Far above any tenant's offered load (under 1000 rps), so every request
  // goes through admission and none is shed.
  config.admission.default_quota.tokens_per_sec = 20000.0;
  config.admission.default_quota.burst = 4000.0;
  return config;
}

/// Sleeps until `due_ns`. No spinning: a spinning generator takes a core
/// (or the hyperthread beside a replica worker) from the threads it is
/// measuring. The wake-up delay counts as generator lateness.
void WaitUntil(int64_t due_ns) {
  const int64_t now = NowNs();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

}  // namespace

struct LoadGenerator::Counters {
  serve::ServeStatsSnapshot pool;
  serve::RouterStatsSnapshot router;
};

LoadGenerator::Counters LoadGenerator::Snapshot() const {
  return {pool_.AggregateStats(), router_.Stats()};
}

struct LoadGenerator::Sent {
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  int64_t submit_end_ns = 0;
  int64_t request_id = 0;
  size_t clip = 0;
  std::future<vsd::Result<serve::ServeResult>> future;
};

double PhaseStats::MeanBatchFill() const {
  return batches_cut > 0 ? static_cast<double>(batched_samples) /
                               static_cast<double>(batches_cut)
                         : 0.0;
}

double PhaseStats::ReplicaShareMax() const {
  int64_t total = 0;
  int64_t most = 0;
  for (int64_t n : per_replica) {
    total += n;
    most = std::max(most, n);
  }
  return total > 0 ? static_cast<double>(most) / static_cast<double>(total)
                   : 0.0;
}

double PhaseStats::CompletionsPerSecond() const {
  return closed_ns > 0 ? static_cast<double>(full + degraded) /
                             (static_cast<double>(closed_ns) / 1e9)
                       : 0.0;
}

void PhaseStats::AddTo(Metrics* metrics) const {
  const std::string p = "serve." + name + ".";
  auto put = [&](const std::string& key, double value, const char* unit) {
    (*metrics)[p + key] = {value, unit};
  };
  const auto count = [](int64_t n) { return static_cast<double>(n); };
  const Percentile p50 = NearestRank(outcome.latency_ms, 0.5);
  const Percentile p99 = NearestRank(outcome.latency_ms, 0.99);
  const Percentile tail = HighestSupported(outcome.latency_ms);
  put("attempted", count(p50.samples), "count");
  put("failed", count(outcome.failed), "count");
  put("lat_p50_ms", p50.value, "ms");
  put("lat_p99_ms", p99.value, "ms");
  put("lat_p99_beyond", count(p99.beyond), "count");
  put("lat_tail_p", tail.p, "quantile");
  put("lat_tail_ms", tail.value, "ms");
  put("gen_late_us_p99", outcome.gen_late_us_p99, "us");
  put("valid", outcome.valid() ? 1.0 : 0.0, "bool");
  put("drain_ms", outcome.drain_ms, "ms");
  put("submit_us_p50", NearestRank(submit_us, 0.5).value, "us");
  put("batch_fill", MeanBatchFill(), "req/batch");
  put("batches_cut", count(batches_cut), "count");
  put("replica_share_max", ReplicaShareMax(), "ratio");
  put("retries", count(retries), "count");
  put("degraded", count(degraded), "count");
  put("shed", count(shed), "count");
  put("queue_full", count(queue_full), "count");
  if (rate == 0.0) put("completions_per_s", CompletionsPerSecond(), "1/s");
}

LoadGenerator::LoadGenerator(const cot::ChainPipeline* pipeline,
                         std::vector<data::VideoSample>* clips,
                         const std::vector<double>* reference)
    : reference_(reference),
      clips_(clips),
      pool_(std::vector<const cot::ChainPipeline*>(kReplicas, pipeline),
            PoolConfig()),
      router_(&pool_, MakeRouterConfig()) {}

LoadGenerator::Sent LoadGenerator::Send(int64_t due_ns,
                                    const serve::RequestOptions& options,
                                    int parent_span) {
  Sent sent;
  sent.due_ns = due_ns;
  sent.clip = next_clip_++ % clips_->size();
  data::VideoSample& clip = (*clips_)[sent.clip];
  // Ids are fresh across every generator in the process, not just this one.
  static int64_t next_id = int64_t{1} << 24;
  clip.id = static_cast<int>(next_id++);
  sent.request_id = clip.id;
  sent.submit_ns = NowNs();
  sent.future = router_.Submit(clip, options);
  sent.submit_end_ns = NowNs();
  Tracer::Get().Record("serve.Router::Submit", sent.submit_ns,
                       sent.submit_end_ns, parent_span, sent.request_id);
  return sent;
}

void LoadGenerator::RunOpen(double seconds, uint64_t seed, PhaseStats* out) {
  const double rate = out->rate;
  struct Arrival {
    int64_t offset_ns = 0;
    serve::RequestOptions options;
  };
  // The whole schedule is drawn before the clock starts.
  std::vector<Arrival> arrivals;
  Rng rng(seed);
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.offset_ns = static_cast<int64_t>(t * 1e9);
    const int tenant = rng.UniformInt(kTenants);
    a.options.tenant = static_cast<uint64_t>(tenant);
    a.options.session = static_cast<uint64_t>(
        tenant * kSessionsPerTenant + rng.UniformInt(kSessionsPerTenant));
    a.options.qos = rng.Bernoulli(kBatchQosShare)
                        ? serve::QosClass::kBatch
                        : serve::QosClass::kInteractive;
    arrivals.push_back(a);
  }

  const int span =
      Tracer::Get().Open("serve.phase." + out->name, ScopedSpan::Current());
  const Counters before = Snapshot();
  std::vector<Sent> sent;
  sent.reserve(arrivals.size());
  const int64_t start = NowNs() + 1'000'000;
  for (const Arrival& a : arrivals) {
    const int64_t due = start + a.offset_ns;
    WaitUntil(due);
    sent.push_back(Send(due, a.options, span));
  }
  Collect(&sent, span, before, out);
  Tracer::Get().Close(span);
}

void LoadGenerator::RunClosed(int in_flight, double seconds, PhaseStats* out) {
  const int span =
      Tracer::Get().Open("serve.phase." + out->name, ScopedSpan::Current());
  const Counters before = Snapshot();
  // Same tenant/session/QoS mix as the open loop, in a fixed rotation.
  int64_t k = 0;
  auto next_options = [&k] {
    serve::RequestOptions options;
    const int64_t tenant = k % kTenants;
    options.tenant = static_cast<uint64_t>(tenant);
    options.session = static_cast<uint64_t>(
        tenant * kSessionsPerTenant + (k / kTenants) % kSessionsPerTenant);
    options.qos = k % 10 < 3 ? serve::QosClass::kBatch
                             : serve::QosClass::kInteractive;
    ++k;
    return options;
  };
  // Poll every outstanding request, so a slow one never holds back the
  // refill of those that finished: exactly `in_flight` stay outstanding.
  std::vector<Sent> window;
  std::vector<Sent> done;
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  for (int i = 0; i < in_flight; ++i) {
    window.push_back(Send(NowNs(), next_options(), span));
  }
  while (!window.empty() && NowNs() < stop + kGiveUpNs) {
    bool any = false;
    for (size_t i = 0; i < window.size();) {
      if (window[i].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      any = true;
      done.push_back(std::move(window[i]));
      if (NowNs() < stop) {
        window[i++] = Send(NowNs(), next_options(), span);
      } else {
        if (i + 1 < window.size()) window[i] = std::move(window.back());
        window.pop_back();
      }
    }
    if (!any) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  out->closed_ns += NowNs() - start;
  // Anything still outstanding is reported unresolved by Collect.
  for (Sent& s : window) done.push_back(std::move(s));
  Collect(&done, span, before, out);
  Tracer::Get().Close(span);
}

void LoadGenerator::Collect(std::vector<Sent>* sent, int parent_span,
                          const Counters& before, PhaseStats* out) {
  const int64_t give_up = NowNs() + kGiveUpNs;
  out->per_replica.resize(kReplicas);
  int64_t last_due = 0;
  int64_t last_resolve = 0;
  for (Sent& s : *sent) {
    last_due = std::max(last_due, s.due_ns);
    out->late_us.push_back(static_cast<double>(s.submit_ns - s.due_ns) / 1e3);
    out->submit_us.push_back(
        static_cast<double>(s.submit_end_ns - s.submit_ns) / 1e3);
    const int64_t wait_ns = std::max<int64_t>(0, give_up - NowNs());
    if (s.future.wait_for(std::chrono::nanoseconds(wait_ns)) !=
        std::future_status::ready) {
      ++out->unresolved;
      ++out->outcome.failed;
      out->outcome.latency_ms.push_back(kMissed);
      continue;
    }
    const vsd::Result<serve::ServeResult> result = s.future.get();
    if (!result.ok()) {
      // Shed and queue-full refusals are told apart by the router's
      // counters below.
      ++out->outcome.failed;
      out->outcome.latency_ms.push_back(kMissed);
      continue;
    }
    const serve::ServeResult& answer = result.value();
    const double latency =
        DueLatencyMs(s.due_ns, s.submit_ns, answer.latency_micros);
    out->outcome.latency_ms.push_back(latency);
    last_resolve =
        std::max(last_resolve, s.submit_ns + answer.latency_micros * 1000);
    if (answer.replica >= 0 && answer.replica < kReplicas) {
      ++out->per_replica[static_cast<size_t>(answer.replica)];
    }
    if (answer.degradation == serve::DegradationLevel::kFull) {
      ++out->full;
      if (reference_ != nullptr &&
          answer.prob_stressed != (*reference_)[s.clip]) {
        ++out->mismatches;
      }
    } else {
      ++out->degraded;
    }
    Tracer::Get().Record("serve.request", s.due_ns,
                         s.due_ns + static_cast<int64_t>(latency * 1e6),
                         parent_span, s.request_id);
  }
  const Counters after = Snapshot();
  out->shed += after.router.shed_admission - before.router.shed_admission;
  out->queue_full +=
      after.router.shed_queue_full - before.router.shed_queue_full;
  out->retries += after.pool.retries - before.pool.retries;
  out->batches_cut += after.pool.batches_cut - before.pool.batches_cut;
  out->batched_samples +=
      after.pool.batched_samples - before.pool.batched_samples;
  out->outcome.rate = out->rate;
  out->outcome.gen_late_us_p99 = NearestRank(out->late_us, 0.99).value;
  // The slowest drain of the phase's parts.
  if (last_resolve > 0) {
    out->outcome.drain_ms =
        std::max(out->outcome.drain_ms,
                 static_cast<double>(last_resolve - last_due) / 1e6);
  }
}

}  // namespace vsd::benchmark
