// vsd_benchmark: runs one workload of the repository benchmark and prints
// its result as the last line of standard output. README.md documents the
// workloads and metrics; run.py builds this binary and runs it.
//
// Usage: vsd_benchmark --workload NAME --seed N --seconds S --trace 0|1
//                      [--out DIR] [--commit ID]
//
// A run sets up three times (setup_s is the median, at baseline core
// speed: core_speed.h), prepares the output checks, measures the workload
// once untraced, and checks the outputs.
// With --trace 1 it then sets up and measures again with spans on, runs
// the layer-probe pass, writes DIR/<workload>/trace.json and
// per_layer.json, and prints the per-layer metrics instead of the
// end-to-end ones. Every run writes a record to DIR/runs/ for `compare`.
// Exit code: 0 when every check passed, 1 when one failed, 2 on bad usage.

#include <sys/resource.h>
#include <sys/utsname.h>

#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/batching.h"
#include "common/faults.h"
#include "common/thread_pool.h"
#include "core_speed.h"
#include "json.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

#ifndef VSD_BENCH_BUILD_TYPE
#define VSD_BENCH_BUILD_TYPE "unknown"
#endif

namespace vsd::benchmark {
namespace {

constexpr int kSetupRepeats = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options->seconds > 0.0) ||
          options->seconds > 600.0) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      options->trace = value[0] == '1';
    } else if (flag == "--out") {
      options->out_dir = value;
    } else if (flag == "--commit") {
      options->commit = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string CpuBrand() {
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string out = brand;
  out.erase(0, out.find_first_not_of(' '));
  return out;
}

void WriteEnv(const Options& options, const Workload& workload,
              JsonWriter* json) {
  utsname name{};
  uname(&name);
  json->Key("env").BeginObject()
      .Key("machine").Value(std::string(name.sysname) + " " + name.release +
                            " " + name.machine)
      .Key("cpu").Value(CpuBrand())
      .Key("nproc").Value(static_cast<int64_t>(
          std::thread::hardware_concurrency()))
      .Key("compiler").Value(__VERSION__)
      .Key("build_type").Value(VSD_BENCH_BUILD_TYPE)
      .Key("pool_threads").Value(kPoolThreads)
      .Key("extra_threads").Value(workload.extra_threads())
      .Key("commit").Value(options.commit)
      .EndObject();
}

void WriteMetrics(const Metrics& metrics, JsonWriter* json) {
  json->BeginObject();
  for (const auto& [name, metric] : metrics) {
    json->Key(name).BeginObject()
        .Key("value").Value(metric.value)
        .Key("unit").Value(metric.unit)
        .EndObject();
  }
  json->EndObject();
}

Metrics EndToEnd(const PassResult& pass, double setup_s, double rss_mb) {
  return {{"latency_ms", {pass.latency_ms, "ms"}},
          {"throughput_per_s", {pass.throughput_per_s, "1/s"}},
          {"setup_s", {setup_s, "s"}},
          {"peak_rss_mb", {rss_mb, "MB"}}};
}

/// The result line: exactly correct, attempted, failed and metrics.
std::string ResultLine(bool correct, const PassResult& pass,
                       const Metrics& metrics) {
  JsonWriter json;
  json.BeginObject()
      .Key("correct").Value(correct)
      .Key("attempted").Value(pass.attempted)
      .Key("failed").Value(pass.failed)
      .Key("metrics");
  WriteMetrics(metrics, &json);
  json.EndObject();
  return json.str();
}

std::string PerLayerJson(const Options& options, const Workload& workload,
                         const Metrics& per_layer, const PassResult& traced,
                         const Metrics& untraced_e2e,
                         const Metrics& traced_e2e, double check_s) {
  const std::vector<Span> spans = Tracer::Get().Spans();
  JsonWriter json;
  json.BeginObject()
      .Key("workload").Value(options.workload)
      .Key("seed").Value(static_cast<int64_t>(options.seed))
      .Key("seconds").Value(options.seconds);
  WriteEnv(options, workload, &json);
  json.Key("metrics");
  WriteMetrics(per_layer, &json);
  json.Key("observed");
  WriteMetrics(traced.observed, &json);
  json.Key("bench.check_s").Value(check_s);
  json.Key("tracing_overhead").BeginObject();
  for (const auto& [name, metric] : untraced_e2e) {
    const double traced_value = traced_e2e.at(name).value;
    json.Key(name).BeginObject()
        .Key("untraced").Value(metric.value)
        .Key("traced").Value(traced_value)
        .Key("diff").Value(traced_value - metric.value)
        .Key("unit").Value(metric.unit)
        .EndObject();
  }
  json.EndObject();
  // Self time per span name, and per layer (the name's first component).
  std::map<std::string, int64_t> layer_self_ns;
  json.Key("spans").BeginObject();
  for (const auto& [name, t] : TotalsByName(spans)) {
    json.Key(name).BeginObject()
        .Key("count").Value(t.count)
        .Key("total_ms").Value(static_cast<double>(t.total_ns) / 1e6)
        .Key("self_ms").Value(static_cast<double>(t.self_ns) / 1e6)
        .EndObject();
    layer_self_ns[name.substr(0, name.find('.'))] += t.self_ns;
  }
  json.EndObject();
  json.Key("layer_self_ms").BeginObject();
  for (const auto& [layer, ns] : layer_self_ns) {
    json.Key(layer).Value(static_cast<double>(ns) / 1e6);
  }
  json.EndObject().EndObject();
  return json.str() + "\n";
}

void PrintMetrics(const char* title, const Metrics& metrics) {
  std::fprintf(stderr, "[benchmark] %s:\n", title);
  for (const auto& [name, metric] : metrics) {
    std::fprintf(stderr, "  %-48s %14.6g %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  }
}

/// Set-up times of every repetition; the stages in wall time.
struct SetupRuns {
  std::vector<double> total_s;  ///< At baseline core speed: setup_s.
  std::vector<double> wall_s;
  std::vector<double> data_s;
  std::vector<double> pretrain_s;
  std::vector<double> prepare_s;
};

/// Sets up `repeats` times. Set-up takes seconds on this thread alone (the
/// library pool has one thread), so its total is scaled like Train.
SetupRuns RunSetups(Workload* workload, uint64_t seed, int repeats) {
  SetupRuns runs;
  CoreSpeedSampler speed;
  for (int rep = 0; rep < repeats; ++rep) {
    (void)speed.TakeMeanUs();
    const int64_t t0 = NowNs();
    const SetupTimes stages = workload->Setup(seed);
    runs.wall_s.push_back(SecondsSince(t0));
    runs.total_s.push_back(
        AtBaselineSpeed(runs.wall_s.back(), speed.TakeMeanUs()));
    runs.data_s.push_back(stages.data_s);
    runs.pretrain_s.push_back(stages.pretrain_s);
    runs.prepare_s.push_back(stages.prepare_s);
  }
  return runs;
}

/// The run record `compare` reads: environment, set-up stages, observed
/// numbers, failed checks and the result line.
std::string RecordJson(const Options& options, const Workload& workload,
                       const SetupRuns& setup, double check_s,
                       const PassResult& pass,
                       const std::vector<std::string>& failures,
                       const std::string& result) {
  JsonWriter record;
  record.BeginObject()
      .Key("workload").Value(options.workload)
      .Key("seed").Value(static_cast<int64_t>(options.seed))
      .Key("seconds").Value(options.seconds)
      .Key("trace").Value(options.trace);
  WriteEnv(options, workload, &record);
  record.Key("setup").BeginObject().Key("total_s").BeginArray();
  for (double s : setup.total_s) record.Value(s);
  record.EndArray().Key("wall_s").BeginArray();
  for (double s : setup.wall_s) record.Value(s);
  record.EndArray()
      .Key("data_s").Value(Median(setup.data_s))
      .Key("pretrain_s").Value(Median(setup.pretrain_s))
      .Key("prepare_s").Value(Median(setup.prepare_s))
      .EndObject();
  record.Key("bench.check_s").Value(check_s);
  record.Key("observed");
  WriteMetrics(pass.observed, &record);
  record.Key("failures").BeginArray();
  for (const std::string& failure : failures) record.Value(failure);
  record.EndArray();
  record.Key("result").Raw(result);
  record.EndObject();
  return record.str() + "\n";
}

bool MakeDirectory(const std::string& dir) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) {
    std::fprintf(stderr, "[benchmark] cannot create %s: %s\n", dir.c_str(),
                 error.message().c_str());
  }
  return !error;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: vsd_benchmark --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--commit ID]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "[benchmark] unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  // Pin the library's process-wide knobs so the environment cannot move
  // the measurement.
  FaultInjector::Global().Disable();
  SetDefaultBatchSize(32);
  ThreadPool::SetGlobalThreads(kPoolThreads);

  const SetupRuns setup =
      RunSetups(workload.get(), options.seed, kSetupRepeats);
  double traced_setup_s = 0.0;
  if (options.trace) {
    Tracer::Get().Enable(true);
    {
      ScopedSpan span("bench.setup");
      traced_setup_s = RunSetups(workload.get(), options.seed, 1).total_s[0];
    }
    Tracer::Get().Enable(false);
  }

  int64_t t0 = NowNs();
  workload->PrepareChecks();
  double check_s = SecondsSince(t0);

  const PassResult pass = workload->Measure(options.seconds);
  const Metrics e2e = EndToEnd(pass, Median(setup.total_s), PeakRssMb());
  PrintMetrics("end-to-end (untraced)", e2e);

  std::vector<std::string> failures = pass.failures;
  PassResult traced;
  Metrics traced_e2e;
  Metrics per_layer;
  if (options.trace) {
    Tracer::Get().Enable(true);
    {
      ScopedSpan span("bench.measure");
      traced = workload->Measure(options.seconds);
    }
    traced_e2e = EndToEnd(traced, traced_setup_s, PeakRssMb());
    per_layer = RunProbes(workload->backbone(), options.seed);
    per_layer["vlm.pretrain_s"] = {Median(setup.pretrain_s), "s"};
    Tracer::Get().Enable(false);
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
    PrintMetrics("end-to-end (traced)", traced_e2e);
    PrintMetrics("per-layer", per_layer);
  }

  t0 = NowNs();
  workload->Check(&failures);
  check_s += SecondsSince(t0);
  PrintMetrics("observed (untraced)", pass.observed);
  std::fprintf(stderr, "[benchmark] bench.check_s %.3f\n", check_s);

  if (options.trace) {
    const std::string dir = options.out_dir + "/" + options.workload;
    std::fprintf(stderr, "[benchmark] writing %s/trace.json (%zu spans)\n",
                 dir.c_str(), Tracer::Get().Spans().size());
    if (!MakeDirectory(dir) ||
        !Tracer::Get().WriteChromeTrace(dir + "/trace.json") ||
        !WriteTextFile(dir + "/per_layer.json",
                       PerLayerJson(options, *workload, per_layer, traced, e2e,
                                    traced_e2e, check_s))) {
      failures.push_back("could not write the trace files");
    }
  }
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "[benchmark] CHECK FAILED: %s\n", failure.c_str());
  }

  const bool correct = failures.empty();
  const std::string result =
      ResultLine(correct, pass, options.trace ? per_layer : e2e);
  const std::string runs_dir = options.out_dir + "/runs";
  if (MakeDirectory(runs_dir)) {
    WriteTextFile(runs_dir + "/" + options.workload + "-seed" +
                      std::to_string(options.seed) + "-trace" +
                      (options.trace ? "1" : "0") + ".json",
                  RecordJson(options, *workload, setup, check_s, pass,
                             failures, result));
  }

  std::fflush(stderr);
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vsd::benchmark

int main(int argc, char** argv) { return vsd::benchmark::Main(argc, argv); }
