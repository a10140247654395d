// compare: sets of benchmark run records against each other.
//
// Usage: compare [--config BENCHMARK.json] --a PATH... --b PATH...
//
// Each PATH is a run record (written by vsd_benchmark to .bench_out/runs/)
// or a directory of them; traced records are skipped. For every
// (end-to-end metric, workload) pair found in both sets it prints each
// side's median and quartiles, the relative change of the median (> 0 is
// worse), how many index-paired runs B won, the metric's bound from the
// config, and a verdict by the rule in stats.h. Runs of one workload are
// paired in seed order. Exits 1 when any pair reads worse, else 0.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "json.h"
#include "stats.h"

namespace vsd::benchmark {
namespace {

struct MetricSpec {
  std::string unit;
  bool higher_is_better = false;
  double bound = 0.0;
};

/// workload -> metric -> values in seed order.
using RunSet = std::map<std::string, std::map<std::string, std::vector<double>>>;

std::optional<JsonValue> ReadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseJson(buffer.str());
}

bool LoadSpecs(const std::string& path,
               std::map<std::string, MetricSpec>* specs) {
  const std::optional<JsonValue> config = ReadJson(path);
  const JsonValue* list = config ? config->Find("end_to_end") : nullptr;
  if (list == nullptr || list->type != JsonValue::Type::kArray) return false;
  for (const JsonValue& entry : list->array) {
    const JsonValue* name = entry.Find("name");
    const JsonValue* unit = entry.Find("unit");
    const JsonValue* better = entry.Find("better");
    const JsonValue* bound = entry.Find("bound");
    if (name == nullptr || unit == nullptr || better == nullptr ||
        bound == nullptr) {
      return false;
    }
    (*specs)[name->string] = {unit->string, better->string == "higher",
                              bound->number};
  }
  return true;
}

/// Adds the untraced records under `paths` to `set`; false on a file that
/// is not a record.
bool LoadRuns(const std::vector<std::string>& paths, RunSet* set) {
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    if (std::filesystem::is_directory(path)) {
      for (const auto& entry : std::filesystem::directory_iterator(path)) {
        if (entry.path().extension() == ".json") {
          files.push_back(entry.path().string());
        }
      }
    } else {
      files.push_back(path);
    }
  }
  // workload -> seed -> metrics, so each workload's runs come out in seed
  // order.
  std::map<std::string, std::map<double, const JsonValue*>> by_seed;
  std::vector<JsonValue> records;
  records.reserve(files.size());
  for (const std::string& file : files) {
    std::optional<JsonValue> record = ReadJson(file);
    const JsonValue* metrics =
        record ? record->Find("result") : nullptr;
    metrics = metrics ? metrics->Find("metrics") : nullptr;
    if (metrics == nullptr || record->Find("workload") == nullptr ||
        record->Find("seed") == nullptr) {
      std::fprintf(stderr, "compare: %s is not a run record\n", file.c_str());
      return false;
    }
    const JsonValue* trace = record->Find("trace");
    if (trace != nullptr && trace->boolean) continue;
    records.push_back(std::move(*record));
  }
  for (const JsonValue& record : records) {
    by_seed[record.Find("workload")->string][record.Find("seed")->number] =
        record.Find("result")->Find("metrics");
  }
  for (const auto& [workload, runs] : by_seed) {
    for (const auto& [seed, metrics] : runs) {
      for (const auto& [name, metric] : metrics->object) {
        const JsonValue* value = metric.Find("value");
        if (value != nullptr && value->type == JsonValue::Type::kNumber) {
          (*set)[workload][name].push_back(value->number);
        }
      }
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  std::string config = "BENCHMARK.json";
  std::vector<std::string> a_paths;
  std::vector<std::string> b_paths;
  std::vector<std::string>* target = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--config" && i + 1 < argc) {
      config = argv[++i];
    } else if (arg == "--a") {
      target = &a_paths;
    } else if (arg == "--b") {
      target = &b_paths;
    } else if (target != nullptr) {
      target->push_back(arg);
    } else {
      a_paths.clear();  // Stray argument: print the usage.
      break;
    }
  }
  if (a_paths.empty() || b_paths.empty()) {
    std::fprintf(stderr,
                 "usage: compare [--config BENCHMARK.json] --a PATH... "
                 "--b PATH...\n");
    return 2;
  }
  std::map<std::string, MetricSpec> specs;
  if (!LoadSpecs(config, &specs)) {
    std::fprintf(stderr, "compare: cannot read end_to_end from %s\n",
                 config.c_str());
    return 2;
  }
  RunSet a;
  RunSet b;
  if (!LoadRuns(a_paths, &a) || !LoadRuns(b_paths, &b)) return 2;

  std::printf("%-13s %-17s %-8s %-34s %-34s %8s %6s %6s  %s\n", "workload",
              "metric", "unit", "A median [q1, q3]", "B median [q1, q3]",
              "change", "B won", "bound", "verdict");
  bool any_worse = false;
  for (const auto& [workload, metrics] : a) {
    for (const auto& [name, spec] : specs) {
      auto a_it = metrics.find(name);
      auto b_wl = b.find(workload);
      if (a_it == metrics.end() || b_wl == b.end()) continue;
      auto b_it = b_wl->second.find(name);
      if (b_it == b_wl->second.end()) continue;
      const Comparison c = Compare(a_it->second, b_it->second, spec.bound,
                                   spec.higher_is_better);
      any_worse |= c.verdict == Verdict::kWorse;
      char a_text[64];
      char b_text[64];
      std::snprintf(a_text, sizeof(a_text), "%.5g [%.5g, %.5g] n=%zu",
                    c.a.median, c.a.q1, c.a.q3, a_it->second.size());
      std::snprintf(b_text, sizeof(b_text), "%.5g [%.5g, %.5g] n=%zu",
                    c.b.median, c.b.q1, c.b.q3, b_it->second.size());
      char won[16];
      std::snprintf(won, sizeof(won), "%d/%d", c.wins, c.pairs);
      std::printf("%-13s %-17s %-8s %-34s %-34s %+7.2f%% %6s %6.3f  %s\n",
                  workload.c_str(), name.c_str(), spec.unit.c_str(), a_text,
                  b_text, 100.0 * c.worse_by, won, spec.bound,
                  VerdictName(c.verdict));
    }
  }
  return any_worse ? 1 : 0;
}

}  // namespace
}  // namespace vsd::benchmark

int main(int argc, char** argv) { return vsd::benchmark::Main(argc, argv); }
