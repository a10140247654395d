// Perf sidecar for the linter itself: times a full whole-program lint of
// the repo (per-file rules plus the include-graph and dataflow passes) and
// writes BENCH_lint.json, so CI tracks lint cost as the tree and the
// analyses grow. The sidecar carries an "analyses" block timing each pass
// separately (per-file rules, include graph, annotations, ref-invalidation)
// so a regression points at the analysis that caused it.
// Exits 1 if the tree is not lint-clean — the timing of a dirty run is not
// comparable.
//
// Usage: bench_lint [--quick] [--threads N]
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/batching.h"
#include "common/thread_pool.h"
#include "lint/annotations.h"
#include "lint/dataflow.h"
#include "lint/include_graph.h"
#include "lint/lexer.h"
#include "lint/lint.h"

int main(int argc, char** argv) {
  const vsd::bench::BenchOptions options =
      vsd::bench::ParseBenchArgs(argc, argv);
  const std::vector<std::string> subdirs = {"src", "bench", "tools", "tests",
                                            "examples"};
  const std::vector<std::string> files =
      vsd::lint::ListSourceFiles(VSD_SOURCE_DIR, subdirs);

  // Headline number: the full tree lint, exactly what CI runs.
  vsd::bench::PerfTimer total_timer;
  const std::vector<vsd::lint::Finding> findings =
      vsd::lint::LintTree(VSD_SOURCE_DIR, subdirs);
  const double wall = total_timer.Seconds();

  for (const vsd::lint::Finding& f : findings) {
    std::fprintf(stderr, "%s\n", f.ToString().c_str());
  }

  // Per-pass breakdown. These re-run the analyses through their public
  // entry points on one thread each, so the sum can exceed `wall` (which
  // shares lexing across rules and parallelizes per-file work); the value
  // is the relative cost per analysis, not a decomposition of `wall`.
  std::vector<std::pair<std::string, std::string>> contents;
  contents.reserve(files.size());
  for (const std::string& rel : files) {
    std::string text;
    if (vsd::lint::ReadFileToString(VSD_SOURCE_DIR, rel, &text)) {
      contents.emplace_back(rel, std::move(text));
    }
  }

  vsd::bench::PerfTimer per_file_timer;
  for (const auto& [rel, text] : contents) {
    (void)vsd::lint::LintContent(rel, text);
  }
  const double per_file_s = per_file_timer.Seconds();

  vsd::bench::PerfTimer include_timer;
  const vsd::lint::IncludeGraph include_graph =
      vsd::lint::BuildIncludeGraphFromTree(VSD_SOURCE_DIR, subdirs);
  (void)vsd::lint::CheckCycles(include_graph);
  const double include_s = include_timer.Seconds();

  vsd::lint::DataflowProgram program;
  for (const auto& [rel, text] : contents) {
    program.AddFile(rel, vsd::lint::Lex(text));
  }

  vsd::bench::PerfTimer annotations_timer;
  const vsd::lint::AnnotationIndex index =
      vsd::lint::BuildAnnotationIndex(program);
  (void)vsd::lint::CheckGuardedBy(program, index);
  (void)vsd::lint::CheckUnannotatedMutex(index);
  const double annotations_s = annotations_timer.Seconds();

  vsd::bench::PerfTimer ref_timer;
  (void)vsd::lint::CheckRefInvalidation(program);
  const double ref_s = ref_timer.Seconds();

  const double rate =
      wall > 0.0 ? static_cast<double>(files.size()) / wall : 0.0;
  char json[1024];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"bench\": \"lint\",\n"
                "  \"quick\": %s,\n"
                "  \"folds\": %d,\n"
                "  \"seed\": %llu,\n"
                "  \"threads\": %d,\n"
                "  \"batch_size\": %d,\n"
                "  \"samples\": %lld,\n"
                "  \"wall_time_s\": %.6f,\n"
                "  \"samples_per_sec\": %.3f,\n"
                "  \"analyses\": {\n"
                "    \"per_file_rules_s\": %.6f,\n"
                "    \"include_graph_s\": %.6f,\n"
                "    \"annotations_s\": %.6f,\n"
                "    \"ref_invalidation_s\": %.6f\n"
                "  }\n"
                "}\n",
                options.quick ? "true" : "false", options.folds,
                static_cast<unsigned long long>(options.seed),
                vsd::ThreadPool::GlobalThreads(), vsd::DefaultBatchSize(),
                static_cast<long long>(files.size()), wall, rate, per_file_s,
                include_s, annotations_s, ref_s);
  vsd::bench::WriteSidecarFile("BENCH_lint.json", json);
  std::printf(
      "bench_lint: %zu files, %zu finding(s), %.3fs total "
      "(per-file %.3fs, include %.3fs, annotations %.3fs, "
      "ref-invalidation %.3fs)\n",
      files.size(), findings.size(), wall, per_file_s, include_s,
      annotations_s, ref_s);
  return findings.empty() ? 0 : 1;
}
