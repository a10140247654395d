// Open-loop load bench for the replica-pool serving stack: Poisson arrivals
// from seeded per-tenant Rng streams (one deliberately over-quota tenant,
// mixed interactive/batch QoS) drive a Router + ReplicaPool in *virtual
// time* — a ManualClock advanced by a discrete-event loop over arrivals,
// batch cuts, retry backoffs, service completions, and health heartbeats,
// with a per-batch service-time model standing in for wall-clock compute.
// The sweep covers replica count {1, 2, 3} x replica-fault rate {0, 0.08}
// (kReplicaDown / kReplicaSlow probed per heartbeat epoch) with the
// circuit breaker ENABLED: on the virtual clock its walk is a pure
// function of the event sequence, so — unlike the threaded
// bench_robustness — it costs nothing in determinism here.
//
// Deterministic: every reported number (latency percentiles included) is a
// pure function of --seed and the sweep config, so serve_load.csv and
// BENCH_serve_load.json are byte-identical at every --threads value. Real
// pipeline inference still runs (internally parallel; bit-deterministic by
// entry independence), and at the faults-off single-replica point the bench
// self-checks served probabilities bit-identical to a direct
// ChainPipeline::PredictBatch, exiting 1 on any mismatch.
//
// Zero-loss contract: every generated request must resolve — full,
// degraded, or shed with a Status — before the virtual timeline drains;
// a hung or dropped request fails the bench.
//
// Usage: bench_serve_load [--quick] [--seed S] [--threads N]
//                         [--assert-p99-under MICROS]
//   --assert-p99-under M   exit 1 if any faults-off sweep point's p99
//                          latency reaches M virtual microseconds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "baselines/gao_svm.h"
#include "bench/harness.h"
#include "common/faults.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"
#include "cot/pipeline.h"
#include "serve/replica_pool.h"
#include "serve/router.h"

namespace vsd::bench {
namespace {

std::string Fmt(const char* fmt, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, value);
  return std::string(buf);
}

std::string Int(int64_t value) { return std::to_string(value); }

constexpr int kTenants = 4;
constexpr int kAbusiveTenant = 3;  ///< Offers ~4x its quota; must be shed.
constexpr int kSessionsPerTenant = 8;
constexpr int64_t kHeartbeatMicros = 50000;

/// One generated request, fixed before the run starts.
struct Arrival {
  int64_t at_micros = 0;
  uint64_t tenant = 0;
  uint64_t session = 0;
  serve::QosClass qos = serve::QosClass::kInteractive;
  int sample = 0;  ///< Index into the served slice.
};

/// Open-loop Poisson schedule: each tenant draws exponential inter-arrival
/// gaps from its own forked stream, so the merged timeline is a pure
/// function of (seed, rates) and tenants stay independent across sweep
/// points.
std::vector<Arrival> MakeArrivals(uint64_t seed, int per_tenant,
                                  int num_samples) {
  // Requests/sec per tenant; tenant 3 bursts far past its admission quota.
  const double rates[kTenants] = {40.0, 40.0, 40.0, 200.0};
  std::vector<Arrival> arrivals;
  arrivals.reserve(static_cast<size_t>(per_tenant * kTenants));
  for (int t = 0; t < kTenants; ++t) {
    Rng rng(seed + 101ULL * static_cast<uint64_t>(t) + 7);
    double at = 0.0;
    for (int k = 0; k < per_tenant; ++k) {
      at += -std::log(1.0 - rng.Uniform()) / rates[t] * 1e6;
      Arrival a;
      a.at_micros = static_cast<int64_t>(at);
      a.tenant = static_cast<uint64_t>(t);
      a.session = static_cast<uint64_t>(t * 1000 +
                                        rng.UniformInt(kSessionsPerTenant));
      a.qos = rng.Bernoulli(0.3) ? serve::QosClass::kBatch
                                 : serve::QosClass::kInteractive;
      a.sample = rng.UniformInt(num_samples);
      arrivals.push_back(a);
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     if (a.at_micros != b.at_micros) {
                       return a.at_micros < b.at_micros;
                     }
                     return a.tenant < b.tenant;
                   });
  return arrivals;
}

/// Everything one sweep point reports; all fields deterministic.
struct PointResult {
  int replicas = 0;
  double fault_rate = 0.0;
  int64_t requests = 0;
  int64_t full = 0;
  int64_t degraded = 0;
  int64_t shed = 0;
  int64_t deadline = 0;
  int64_t failovers = 0;
  int64_t quarantines = 0;
  int64_t readmissions = 0;
  int64_t retries = 0;
  int64_t breaker_short_circuits = 0;
  int64_t p50_micros = 0;
  int64_t p99_micros = 0;
  double throughput_rps = 0.0;
  double accuracy = 0.0;
};

int64_t Percentile(std::vector<int64_t> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

serve::ReplicaPool::Config PoolConfig(const serve::ManualClock* sim_clock) {
  serve::ReplicaPool::Config config;
  config.replica.clock = sim_clock;
  config.replica.num_workers = 0;  // Stepped: the event loop drives Pump().
  config.replica.max_queue = 64;
  config.replica.max_batch = 8;
  // ~180 samples/s per replica: a full batch of 8 occupies the replica for
  // 20ms + 8 * 3ms = 44ms of virtual time.
  config.replica.service_base_micros = 20000;
  config.replica.service_per_sample_micros = 3000;
  config.replica.retry.max_retries = 2;
  config.replica.retry.initial_backoff_micros = 1000;
  config.replica.retry.max_backoff_micros = 8000;
  // Breaker on: deterministic on the virtual clock.
  config.replica.breaker_threshold = 3;
  config.replica.breaker_reset_micros = 200000;
  return config;
}

serve::RouterConfig MakeRouterConfig() {
  serve::RouterConfig config;
  config.admission.enabled = true;
  config.admission.default_quota.tokens_per_sec = 60.0;
  config.admission.default_quota.burst = 20.0;
  config.admission.batch_headroom = 0.25;
  return config;
}

struct RunContext {
  const cot::ChainPipeline* pipeline = nullptr;
  const baselines::GaoSvm* fallback = nullptr;
  const std::vector<const data::VideoSample*>* served = nullptr;
  const std::vector<double>* reference = nullptr;  ///< Direct PredictBatch.
};

/// Runs one sweep point as a virtual-time discrete-event simulation.
/// Returns false on a contract violation (lost request, identity mismatch).
bool RunPoint(const RunContext& ctx, const std::vector<Arrival>& arrivals,
              int replicas, double fault_rate, uint64_t fault_seed,
              PointResult* out) {
  auto& injector = FaultInjector::Global();
  if (fault_rate > 0.0) {
    FaultConfig faults;
    faults.enabled = true;
    faults.seed = fault_seed;
    faults.replica_down_rate = fault_rate;
    faults.replica_slow_rate = fault_rate;
    faults.slow_factor = 3;
    // A light request-level transient rate keeps retry + breaker paths in
    // play alongside the replica-level faults.
    faults.transient_rate = fault_rate / 4;
    injector.Configure(faults);
  } else {
    injector.Disable();
  }

  serve::ManualClock sim_clock;
  const std::vector<const cot::ChainPipeline*> pipelines(
      static_cast<size_t>(replicas), ctx.pipeline);
  serve::ReplicaPool pool(pipelines, PoolConfig(&sim_clock), ctx.fallback);
  serve::Router router(&pool, MakeRouterConfig());

  std::vector<std::future<vsd::Result<serve::ServeResult>>> futures;
  futures.reserve(arrivals.size());
  size_t next_arrival = 0;
  int64_t next_heartbeat = kHeartbeatMicros;
  // Generous bound: every event strictly advances virtual time or consumes
  // an arrival, so a spin here means a scheduling bug, not load.
  const int64_t max_steps = static_cast<int64_t>(arrivals.size()) * 64 + 4096;
  for (int64_t step = 0; step < max_steps; ++step) {
    const int64_t now = sim_clock.NowMicros();
    if (now >= next_heartbeat) {
      pool.Heartbeat();
      next_heartbeat += kHeartbeatMicros;
    }
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].at_micros <= now) {
      const Arrival& a = arrivals[next_arrival++];
      serve::RequestOptions options;
      options.session = a.session;
      options.tenant = a.tenant;
      options.qos = a.qos;
      futures.push_back(router.Submit(*(*ctx.served)[
          static_cast<size_t>(a.sample)], options));
    }
    pool.Pump();

    int64_t next = pool.NextEventMicros();
    if (next_arrival < arrivals.size()) {
      next = std::min(next, arrivals[next_arrival].at_micros);
    }
    if (next == serve::Replica::kNoEvent) break;  // Timeline drained.
    next = std::min(next, next_heartbeat);
    sim_clock.Set(std::max(now + 1, next));
  }
  const int64_t makespan_micros = sim_clock.NowMicros();
  pool.Shutdown();

  out->replicas = replicas;
  out->fault_rate = fault_rate;
  out->requests = static_cast<int64_t>(arrivals.size());
  std::vector<int64_t> latencies;
  int64_t correct = 0;
  int64_t answered = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    if (futures[i].wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      std::fprintf(stderr, "FAIL: request %zu never resolved (lost)\n", i);
      return false;
    }
    const vsd::Result<serve::ServeResult> result = futures[i].get();
    const Arrival& a = arrivals[i];
    if (result.ok()) {
      const serve::ServeResult& answer = result.value();
      if (answer.degradation == serve::DegradationLevel::kFull) {
        ++out->full;
      } else {
        ++out->degraded;
      }
      ++answered;
      latencies.push_back(answer.latency_micros);
      out->failovers += answer.failovers;
      const data::VideoSample* sample =
          (*ctx.served)[static_cast<size_t>(a.sample)];
      if ((answer.prob_stressed >= 0.5 ? 1 : 0) == sample->stress_label) {
        ++correct;
      }
      if (fault_rate == 0.0 && replicas == 1 &&
          answer.degradation == serve::DegradationLevel::kFull &&
          answer.prob_stressed !=
              (*ctx.reference)[static_cast<size_t>(a.sample)]) {
        std::fprintf(stderr,
                     "FAIL: faults-off serving diverged from direct "
                     "PredictBatch at request %zu (%.17g vs %.17g)\n",
                     i, answer.prob_stressed,
                     (*ctx.reference)[static_cast<size_t>(a.sample)]);
        return false;
      }
    } else if (result.status().code() == StatusCode::kUnavailable) {
      ++out->shed;  // Admission or backpressure: answered with a status.
    } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
      ++out->deadline;
    } else {
      std::fprintf(stderr, "FAIL: request %zu resolved with unexpected "
                           "error: %s\n",
                   i, result.status().ToString().c_str());
      return false;
    }
  }
  if (out->full + out->degraded + out->shed + out->deadline !=
      out->requests) {
    std::fprintf(stderr, "FAIL: outcome counts do not partition requests\n");
    return false;
  }
  const serve::ServeStatsSnapshot stats = pool.AggregateStats();
  const serve::PoolHealthSnapshot health = pool.HealthSnapshot();
  out->quarantines = health.quarantines;
  out->readmissions = health.readmissions;
  out->retries = stats.retries;
  out->breaker_short_circuits = stats.breaker_short_circuits;
  out->p50_micros = Percentile(latencies, 0.50);
  out->p99_micros = Percentile(latencies, 0.99);
  out->throughput_rps =
      makespan_micros > 0
          ? static_cast<double>(answered) *
                1e6 / static_cast<double>(makespan_micros)
          : 0.0;
  out->accuracy = answered > 0
                      ? static_cast<double>(correct) /
                            static_cast<double>(answered)
                      : 0.0;
  return true;
}

int Main(int argc, char** argv) {
  const BenchOptions options = ParseBenchArgs(argc, argv);
  int64_t p99_bound = -1;  // < 0: no assertion.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--assert-p99-under") == 0 && i + 1 < argc) {
      p99_bound = std::atoll(argv[++i]);
    }
  }
  PerfTimer timer;
  std::printf("=== Serve load: replica pool under open-loop traffic (%s) ===\n",
              options.quick ? "quick" : "full");

  BenchData data = MakeBenchData(options);
  const vlm::FoundationModel& base = PretrainedBase(options);
  const cot::ChainPipeline pipeline(&base, OursChainConfig(options));

  // First half fits the degradation fallback; arrivals draw from the rest.
  const int total = data.uvsd.size();
  const int split = total / 2;
  data::Dataset train{"uvsd-train", {data.uvsd.samples.begin(),
                                     data.uvsd.samples.begin() + split}};
  std::vector<const data::VideoSample*> served;
  for (int i = split; i < total; ++i) served.push_back(&data.uvsd.samples[i]);

  baselines::GaoSvm fallback;
  Rng fit_rng(options.seed + 17);
  fallback.Fit(train, &fit_rng);

  const std::vector<double> reference = pipeline.PredictBatch(served);

  const int per_tenant = options.quick ? 60 : 180;
  const std::vector<Arrival> arrivals = MakeArrivals(
      options.seed, per_tenant, static_cast<int>(served.size()));

  RunContext ctx;
  ctx.pipeline = &pipeline;
  ctx.fallback = &fallback;
  ctx.served = &served;
  ctx.reference = &reference;

  Table table({"Replicas", "FaultRate", "Requests", "Full", "Degraded",
               "Shed", "Failovers", "Quarantines", "P50Micros", "P99Micros",
               "ThroughputRps", "Accuracy"});
  std::vector<PointResult> points;
  const int replica_counts[] = {1, 2, 3};
  const double fault_rates[] = {0.0, 0.08};
  for (int replicas : replica_counts) {
    for (double rate : fault_rates) {
      PointResult point;
      const uint64_t fault_seed =
          options.seed + 1000003ULL * static_cast<uint64_t>(replicas);
      if (!RunPoint(ctx, arrivals, replicas, rate, fault_seed, &point)) {
        return 1;
      }
      if (rate == 0.0 && p99_bound >= 0 && point.p99_micros >= p99_bound) {
        std::fprintf(stderr,
                     "FAIL: faults-off p99 %lld us >= bound %lld us at "
                     "%d replicas\n",
                     static_cast<long long>(point.p99_micros),
                     static_cast<long long>(p99_bound), replicas);
        return 1;
      }
      points.push_back(point);
      table.AddRow({Int(point.replicas), Fmt("%.2f", point.fault_rate),
                    Int(point.requests), Int(point.full),
                    Int(point.degraded), Int(point.shed),
                    Int(point.failovers), Int(point.quarantines),
                    Int(point.p50_micros), Int(point.p99_micros),
                    Fmt("%.2f", point.throughput_rps),
                    Fmt("%.4f", point.accuracy)});
      std::printf("  done: %d replica(s) rate %.2f (%lld full, %lld "
                  "degraded, %lld shed, %lld failovers, p99 %lld us)\n",
                  point.replicas, point.fault_rate,
                  static_cast<long long>(point.full),
                  static_cast<long long>(point.degraded),
                  static_cast<long long>(point.shed),
                  static_cast<long long>(point.failovers),
                  static_cast<long long>(point.p99_micros));
    }
  }
  FaultInjector::Global().Disable();

  std::printf("\n%s\n", table.ToString().c_str());
  (void)table.WriteCsv("serve_load.csv");

  // Custom sidecar: ONLY virtual-time (deterministic) fields, so the JSON
  // is byte-identical across thread counts — wall time and thread config
  // deliberately stay out (stdout carries them for humans).
  std::string json = "{\n  \"bench\": \"serve_load\",\n  \"seed\": " +
                     std::to_string(options.seed) + ",\n  \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const PointResult& p = points[i];
    json += "    {\"replicas\": " + Int(p.replicas) +
            ", \"fault_rate\": " + Fmt("%.2f", p.fault_rate) +
            ", \"requests\": " + Int(p.requests) +
            ", \"full\": " + Int(p.full) +
            ", \"degraded\": " + Int(p.degraded) +
            ", \"shed\": " + Int(p.shed) +
            ", \"deadline\": " + Int(p.deadline) +
            ", \"failovers\": " + Int(p.failovers) +
            ", \"quarantines\": " + Int(p.quarantines) +
            ", \"readmissions\": " + Int(p.readmissions) +
            ", \"retries\": " + Int(p.retries) +
            ", \"breaker_short_circuits\": " + Int(p.breaker_short_circuits) +
            ", \"p50_micros\": " + Int(p.p50_micros) +
            ", \"p99_micros\": " + Int(p.p99_micros) +
            ", \"throughput_rps\": " + Fmt("%.4f", p.throughput_rps) +
            ", \"accuracy\": " + Fmt("%.4f", p.accuracy) + "}";
    json += i + 1 < points.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  if (!WriteSidecarFile("BENCH_serve_load.json", json)) return 1;
  std::printf("wall: %.2fs (excluded from sidecars by design)\n",
              timer.Seconds());
  return 0;
}

}  // namespace
}  // namespace vsd::bench

int main(int argc, char** argv) { return vsd::bench::Main(argc, argv); }
