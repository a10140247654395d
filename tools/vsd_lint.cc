// vsd_lint: repo-specific static analysis for the vsd codebase.
//
// Enforces the determinism and error-handling invariants the metrics tables
// depend on (see docs/INTERNALS.md, "Static analysis & sanitizers"):
// no raw std:: randomness outside src/common/rng.*, no exact float
// comparison in metric kernels, no wall-clock/thread-id/pointer-key
// nondeterminism in result paths, header hygiene, no unordered-container
// iteration in result paths — plus the whole-program checks: include-graph
// layering and cycles, nondeterminism taint flow, hot-path allocation (see
// src/lint/dataflow.h), annotation-enforced thread safety (guarded-by /
// unannotated-mutex), and reference invalidation across container
// mutation (see src/lint/annotations.h).
// The same run reports every `allow()` comment whose rule no longer fires
// on its line as a `stale-suppression` finding.
//
// Usage:
//   vsd_lint [--root DIR] [--fix] [--format=json|sarif] [--dump-graph]
//            [--list-rules] [SUBDIR...]
//
// With no SUBDIRs, lints src bench tools tests examples under --root
// (default: the current directory). Exit code 0 = clean, 1 = findings,
// 2 = usage error.
//
//   --fix             rewrite mechanical findings (include-order,
//                     header-guard) in place, then re-lint; the exit code
//                     reflects what is left after fixing.
//   --format=json     print findings as a JSON array (file/line/rule/
//                     message per finding) instead of text; the finding
//                     count still goes to stderr.
//   --format=sarif    print findings as a SARIF 2.1.0 log (for GitHub code
//                     scanning / IDE import); the finding count still goes
//                     to stderr.
//   --dump-graph      print the module-level include graph as DOT on stdout
//                     (for `dot -Tsvg` and docs/INTERNALS.md) and exit; the
//                     exit code is 1 if the graph has include cycles (a
//                     cyclic graph has no valid layering at all — not
//                     suppressible), 0 otherwise. Layering violations go
//                     through the normal lint run, where `allow(layering)`
//                     suppressions apply.
//   --list-rules      print the rule names, one per line, and exit.
//
// Suppress a finding with `// vsd-lint: allow(<rule>)` on the offending
// line or the line above (always include a reason in the comment).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "lint/fix.h"
#include "lint/include_graph.h"
#include "lint/lint.h"

int main(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> subdirs;
  bool fix = false;
  bool dump_graph = false;
  enum class Format { kText, kJson, kSarif };
  Format format = Format::kText;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
    } else if (std::strcmp(argv[i], "--fix") == 0) {
      fix = true;
    } else if (std::strcmp(argv[i], "--dump-graph") == 0) {
      dump_graph = true;
    } else if (std::strcmp(argv[i], "--format=json") == 0) {
      format = Format::kJson;
    } else if (std::strcmp(argv[i], "--format=sarif") == 0) {
      format = Format::kSarif;
    } else if (std::strcmp(argv[i], "--format=text") == 0) {
      format = Format::kText;
    } else if (std::strcmp(argv[i], "--list-rules") == 0) {
      for (const std::string& rule : vsd::lint::AllRules()) {
        std::printf("%s\n", rule.c_str());
      }
      return 0;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: vsd_lint [--root DIR] [--fix] [--format=json|sarif] "
          "[--dump-graph] [--list-rules] [SUBDIR...]\n");
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "vsd_lint: unknown flag '%s'\n", argv[i]);
      return 2;
    } else {
      subdirs.push_back(argv[i]);
    }
  }
  if (subdirs.empty()) subdirs = {"src", "bench", "tools", "tests", "examples"};

  if (dump_graph) {
    const vsd::lint::IncludeGraph graph =
        vsd::lint::BuildIncludeGraphFromTree(root, subdirs);
    std::fputs(vsd::lint::DumpDot(graph).c_str(), stdout);
    const std::vector<vsd::lint::Finding> cycles =
        vsd::lint::CheckCycles(graph);
    for (const auto& f : cycles) {
      std::fprintf(stderr, "%s\n", f.ToString().c_str());
    }
    if (!cycles.empty()) {
      std::fprintf(stderr, "vsd_lint: include graph has %zu cycle(s)\n",
                   cycles.size());
      return 1;
    }
    return 0;
  }


  if (fix) {
    for (const vsd::lint::FixedFile& f : vsd::lint::FixTree(root, subdirs)) {
      std::fprintf(stderr, "vsd_lint: fixed %s (%d fix(es))\n",
                   f.path.c_str(), f.fixes);
    }
  }

  const std::vector<vsd::lint::Finding> findings =
      vsd::lint::LintTree(root, subdirs);
  switch (format) {
    case Format::kJson:
      std::fputs(vsd::lint::FindingsToJson(findings).c_str(), stdout);
      break;
    case Format::kSarif:
      std::fputs(vsd::lint::FindingsToSarif(findings).c_str(), stdout);
      break;
    case Format::kText:
      for (const auto& f : findings) std::printf("%s\n", f.ToString().c_str());
      break;
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "vsd_lint: %zu finding(s)\n", findings.size());
    return 1;
  }
  return 0;
}
