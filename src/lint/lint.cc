#include "lint/lint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "lint/annotations.h"
#include "lint/dataflow.h"
#include "lint/include_graph.h"
#include "lint/lexer.h"

namespace vsd::lint {
namespace {

namespace fs = std::filesystem;

struct FileCtx {
  const std::string& path;
  const LexResult& lex;
  std::vector<Finding>* findings;

  void Report(int line, const char* rule, std::string message) const {
    findings->push_back(Finding{path, line, rule, std::move(message)});
  }
};

/// Paths whose output lands in reported tables/explanations/chains. The
/// determinism rules (unordered-iter, wall-clock, thread-id, pointer-key)
/// are scoped here: infrastructure may time and schedule, result code may
/// not observe the clock, the scheduler, or the address space.
bool InResultPath(const std::string& path) {
  static const char* const kResultPaths[] = {
      "src/core/",      "src/data/", "src/explain/", "src/cot/",
      "src/baselines/", "src/vlm/",  "bench/",
  };
  for (const char* p : kResultPaths) {
    if (StartsWith(path, p)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// raw-rand: the determinism contract (docs/INTERNALS.md) requires every
// stochastic component to draw from an explicit vsd::Rng. Any use of the
// <cstdlib>/<random> machinery outside src/common/rng.* introduces a second,
// unseeded entropy source and breaks bit-reproducibility.
// ---------------------------------------------------------------------------
void CheckRawRand(const FileCtx& ctx) {
  if (StartsWith(ctx.path, "src/common/rng.")) return;
  static const std::set<std::string> kBanned = {
      "rand",          "srand",          "rand_r",
      "random_device", "mt19937",        "mt19937_64",
      "minstd_rand",   "minstd_rand0",   "default_random_engine",
      "random_shuffle", "ranlux24_base", "ranlux48_base",
      "ranlux24",      "ranlux48",       "knuth_b",
  };
  const auto& toks = ctx.lex.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i])) continue;
    if (kBanned.find(toks[i].text) == kBanned.end()) continue;
    // Member access (config.rand, obj->rand) is some other class's member,
    // not the C library; `std::rand` / `::rand` / bare `rand` all still hit.
    if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
      continue;
    }
    ctx.Report(toks[i].line, "raw-rand",
               "'" + toks[i].text +
                   "' bypasses vsd::Rng; all randomness must flow through "
                   "src/common/rng.* so runs stay bit-reproducible");
  }
}

// ---------------------------------------------------------------------------
// float-eq: exact ==/!= on floating-point values inside the metric and math
// kernels is almost always a tolerance bug that shifts reported tables.
// Scoped to src/core/metrics.* and src/common/math_util.*; legitimate exact
// guards (e.g. `total == 0.0` before dividing) carry an explicit
// allow(float-eq) suppression comment with a reason.
// ---------------------------------------------------------------------------
void CheckFloatEq(const FileCtx& ctx) {
  if (!StartsWith(ctx.path, "src/core/metrics.") &&
      !StartsWith(ctx.path, "src/common/math_util.")) {
    return;
  }
  const auto& toks = ctx.lex.tokens;
  // Identifiers declared in this file with type double/float.
  std::set<std::string> float_vars;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i]) ||
        (toks[i].text != "double" && toks[i].text != "float")) {
      continue;
    }
    size_t m = i + 1;
    while (m < toks.size() &&
           (toks[m].text == "&" || toks[m].text == "*" ||
            toks[m].text == "const")) {
      ++m;
    }
    if (m < toks.size() && IsIdent(toks[m])) {
      float_vars.insert(toks[m].text);
    }
  }
  auto is_floaty = [&](const Token& t) {
    if (t.kind == TokenKind::kNumber) return t.is_float;
    if (IsIdent(t)) return float_vars.count(t.text) > 0;
    return false;
  };
  for (size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct ||
        (toks[i].text != "==" && toks[i].text != "!=")) {
      continue;
    }
    if (is_floaty(toks[i - 1]) || is_floaty(toks[i + 1])) {
      ctx.Report(toks[i].line, "float-eq",
                 "exact '" + toks[i].text +
                     "' on a floating-point value; compare against a "
                     "tolerance (see math_util) or suppress with a reason if "
                     "the exact comparison is intentional");
    }
  }
}

// ---------------------------------------------------------------------------
// header-guard: every header starts with #pragma once or a matching
// #ifndef/#define include-guard pair (the repo convention: VSD_<PATH>_H_).
// ---------------------------------------------------------------------------
void CheckHeaderGuard(const FileCtx& ctx) {
  if (!EndsWith(ctx.path, ".h")) return;
  const auto& dirs = ctx.lex.directives;
  if (!dirs.empty() && dirs[0].text == "#pragma once") return;
  if (dirs.size() >= 2 && StartsWith(dirs[0].text, "#ifndef") &&
      StartsWith(dirs[1].text, "#define")) {
    std::istringstream a(dirs[0].text), b(dirs[1].text);
    std::string kw_a, macro_a, kw_b, macro_b;
    a >> kw_a >> macro_a;
    b >> kw_b >> macro_b;
    if (!macro_a.empty() && macro_a == macro_b) return;
    ctx.Report(dirs[1].line, "header-guard",
               "include guard #define '" + macro_b +
                   "' does not match #ifndef '" + macro_a + "'");
    return;
  }
  ctx.Report(dirs.empty() ? 1 : dirs[0].line, "header-guard",
             "header must begin with '#pragma once' or an "
             "#ifndef/#define include guard");
}

// ---------------------------------------------------------------------------
// include-order: within a contiguous include block (no blank line or other
// directive in between), all includes are of one kind (<...> or "...") and
// sorted alphabetically. Blank lines separate groups, matching the repo
// style: own header / <system block> / "project block".
// ---------------------------------------------------------------------------
void CheckIncludeOrder(const FileCtx& ctx) {
  struct Inc {
    int line;
    char kind;  // '<' or '"'
    std::string target;
  };
  // Split includes into groups of directly adjacent lines.
  std::vector<std::vector<Inc>> groups;
  int prev_line = -10;
  bool prev_was_include = false;
  for (const auto& d : ctx.lex.directives) {
    if (!StartsWith(d.text, "#include")) {
      prev_was_include = false;
      continue;
    }
    size_t open = d.text.find_first_of("<\"", 8);
    if (open == std::string::npos) {
      prev_was_include = false;
      continue;  // Macro include; out of scope.
    }
    char kind = d.text[open];
    char closer = kind == '<' ? '>' : '"';
    size_t end = d.text.find(closer, open + 1);
    if (end == std::string::npos) end = d.text.size();
    Inc inc{d.line, kind, d.text.substr(open + 1, end - open - 1)};
    if (!prev_was_include || d.line != prev_line + 1 || groups.empty()) {
      groups.emplace_back();
    }
    groups.back().push_back(std::move(inc));
    prev_line = d.line;
    prev_was_include = true;
  }
  for (const auto& g : groups) {
    for (size_t i = 1; i < g.size(); ++i) {
      if (g[i].kind != g[0].kind) {
        ctx.Report(g[i].line, "include-order",
                   "include block mixes <...> and \"...\" includes; separate "
                   "system and project includes with a blank line");
        break;
      }
    }
    for (size_t i = 1; i < g.size(); ++i) {
      if (g[i].kind == g[i - 1].kind && g[i].target < g[i - 1].target) {
        ctx.Report(g[i].line, "include-order",
                   "'" + g[i].target + "' breaks alphabetical order (after '" +
                       g[i - 1].target + "')");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// unordered-iter: iterating an unordered container in code that produces
// results (metrics, explanations, chains, baselines, benches) makes output
// depend on hash-table layout — libstdc++ version, insertion order, even
// ASLR for pointer keys. Result paths must iterate ordered containers or
// sorted snapshots.
// ---------------------------------------------------------------------------
void CheckUnorderedIter(const FileCtx& ctx) {
  if (!InResultPath(ctx.path)) return;

  const auto& toks = ctx.lex.tokens;
  // Identifiers declared in this file as std::unordered_{map,set}<...>.
  std::set<std::string> unordered_vars;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i]) ||
        (toks[i].text != "unordered_map" && toks[i].text != "unordered_set" &&
         toks[i].text != "unordered_multimap" &&
         toks[i].text != "unordered_multiset")) {
      continue;
    }
    if (i + 1 >= toks.size() || toks[i + 1].text != "<") continue;
    size_t j = SkipAngles(toks, i + 1);
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const")) {
      ++j;
    }
    if (j < toks.size() && IsIdent(toks[j])) {
      unordered_vars.insert(toks[j].text);
    }
  }
  if (unordered_vars.empty()) return;

  // Range-for whose range expression names an unordered container.
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i]) || toks[i].text != "for" ||
        toks[i + 1].text != "(") {
      continue;
    }
    size_t open = i + 1;
    int depth = 1;
    size_t close = open + 1;
    size_t colon = 0;
    while (close < toks.size() && depth > 0) {
      if (toks[close].text == "(") ++depth;
      else if (toks[close].text == ")") --depth;
      if (depth == 0) break;
      if (depth == 1 && toks[close].text == ":" && colon == 0) colon = close;
      ++close;
    }
    if (colon == 0) continue;  // Classic for loop.
    for (size_t k = colon + 1; k < close; ++k) {
      if (IsIdent(toks[k]) && unordered_vars.count(toks[k].text)) {
        ctx.Report(toks[k].line, "unordered-iter",
                   "iterating unordered container '" + toks[k].text +
                       "' in a result-producing path; hash-table order is "
                       "not deterministic across platforms — use an ordered "
                       "container or a sorted snapshot");
        break;
      }
    }
  }
  // Explicit iterator walks: var.begin() / var.cbegin().
  for (size_t i = 2; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i]) ||
        (toks[i].text != "begin" && toks[i].text != "cbegin")) {
      continue;
    }
    if (toks[i - 1].text != "." && toks[i - 1].text != "->") continue;
    if (toks[i + 1].text != "(") continue;
    const Token& recv = toks[i - 2];
    if (IsIdent(recv) && unordered_vars.count(recv.text)) {
      ctx.Report(toks[i].line, "unordered-iter",
                 "iterator over unordered container '" + recv.text +
                     "' in a result-producing path; hash-table order is not "
                     "deterministic");
    }
  }
}

// ---------------------------------------------------------------------------
// per-sample-predict: calling a single-sample predict entry point from a
// loop in the bench or core-evaluation layers forfeits the batched spine —
// one model forward per batch collapses back into one forward per sample.
// Route the loop through PredictBatch/PredictLabelBatch/
// EvaluatePredictorBatched instead; genuinely per-sample protocols (e.g.
// retrieval that threads one rng stream across samples) carry an explicit
// allow(per-sample-predict) suppression comment with a reason.
// ---------------------------------------------------------------------------
void CheckPerSamplePredict(const FileCtx& ctx) {
  if (!StartsWith(ctx.path, "bench/") && !StartsWith(ctx.path, "src/core/")) {
    return;
  }
  static const std::set<std::string> kSingleCalls = {
      "Predict", "PredictLabel", "PredictProbStressed",
  };
  const auto& toks = ctx.lex.tokens;

  // Loop extents: for/while statements (header + braced body) and the
  // per-index callables handed to ParallelFor/ParallelMap/
  // EvaluatePredictor (each is a per-sample loop in disguise).
  std::vector<std::pair<size_t, size_t>> extents;
  for (const CallExtent& c :
       CallExtents(toks, 0, toks.size(),
                   {"for", "while", "ParallelFor", "ParallelMap",
                    "EvaluatePredictor"})) {
    size_t end = c.close;
    const bool is_loop = toks[c.head].text == "for" ||
                         toks[c.head].text == "while";
    if (is_loop && end + 1 < toks.size() && toks[end + 1].text == "{") {
      end = MatchForward(toks, end + 1, "{", "}");
    }
    extents.emplace_back(c.open, end);
  }
  if (extents.empty()) return;

  for (size_t k = 2; k + 1 < toks.size(); ++k) {
    if (!IsIdent(toks[k]) || !kSingleCalls.count(toks[k].text)) continue;
    const std::string& access = toks[k - 1].text;
    if (access != "." && access != "->") continue;
    if (toks[k + 1].text != "(") continue;
    bool in_loop = false;
    for (const auto& [begin, end] : extents) {
      if (k > begin && k < end) {
        in_loop = true;
        break;
      }
    }
    if (!in_loop) continue;
    ctx.Report(toks[k].line, "per-sample-predict",
               "'" + toks[k].text +
                   "()' called per sample inside a loop; use the batched "
                   "entry points (PredictBatch/PredictLabelBatch/"
                   "EvaluatePredictorBatched) so inference runs one forward "
                   "per batch, or suppress with a reason if the protocol is "
                   "inherently per-sample");
  }
}

// ---------------------------------------------------------------------------
// blocking-wait-no-deadline: the serving layer's liveness contract is that
// every accepted request resolves — which only holds if no code path can
// block forever. A bare one-argument condition_variable wait(lock) (no
// predicate) or a future get()/wait() parks the thread until someone else
// acts; under fault injection (stalled workers, dropped notifications) that
// someone may never come. Scoped to src/serve/: waits there must be bounded
// (wait_for/wait_until) or predicated (wait(lock, pred), which re-checks
// its condition on every wakeup so a lost notification costs one spurious
// pass, not a hang), and futures polled with wait_for before get().
// Intentional unbounded waits carry an explicit
// allow(blocking-wait-no-deadline) suppression comment with a reason.
// ---------------------------------------------------------------------------

/// Counts commas at paren depth 1 inside the call whose '(' is at
/// `open_paren` (i.e. between the call's own parentheses, not inside nested
/// calls/lambdas): a two-or-more-argument call has at least one.
int TopLevelCommas(const std::vector<Token>& toks, size_t open_paren) {
  int depth = 0;
  int commas = 0;
  for (size_t j = open_paren; j < toks.size(); ++j) {
    const std::string& t = toks[j].text;
    if (t == "(" || t == "[" || t == "{") {
      ++depth;
    } else if (t == ")" || t == "]" || t == "}") {
      --depth;
      if (depth <= 0) break;
    } else if (t == "," && depth == 1) {
      ++commas;
    }
  }
  return commas;
}

void CheckBlockingWait(const FileCtx& ctx) {
  if (!StartsWith(ctx.path, "src/serve/")) return;
  const auto& toks = ctx.lex.tokens;
  for (size_t k = 2; k + 1 < toks.size(); ++k) {
    if (!IsIdent(toks[k])) continue;
    const std::string& access = toks[k - 1].text;
    if (access != "." && access != "->") continue;
    if (toks[k + 1].text != "(") continue;
    if (toks[k].text == "wait") {
      // wait(lock, pred) is fine; only the predicate-less form can hang on
      // a lost notification.
      if (TopLevelCommas(toks, k + 1) >= 1) continue;
      ctx.Report(toks[k].line, "blocking-wait-no-deadline",
                 "predicate-less 'wait()' in the serving layer; pass a "
                 "predicate (wait(lock, pred)) or use wait_for/wait_until "
                 "so a lost notification or stalled producer cannot park "
                 "this thread forever");
    } else if (toks[k].text == "get") {
      // unique_ptr::get() and friends are everywhere; only a receiver that
      // names a future is a blocking retrieval.
      const Token& recv = toks[k - 2];
      if (IsIdent(recv) && recv.text.find("future") != std::string::npos) {
        ctx.Report(toks[k].line, "blocking-wait-no-deadline",
                   "'" + recv.text +
                       ".get()' blocks without a deadline; wait_for the "
                       "future first (or document why an unbounded block is "
                       "safe and suppress)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// wall-clock: a result that depends on when it was computed is not a result.
// Reading the wall clock (system_clock, ::time, localtime, ...) in a result
// path smuggles the current time into tables and explanations. steady_clock
// is deliberately not banned: it is monotonic, and bench timers / serve
// deadlines use it for durations that never enter result values.
// ---------------------------------------------------------------------------
void CheckWallClock(const FileCtx& ctx) {
  if (!InResultPath(ctx.path)) return;
  const auto& toks = ctx.lex.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i]) || !WallClockNames().count(toks[i].text)) continue;
    // Member access (cfg.time, obj->clock) is some other class's member.
    if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
      continue;
    }
    ctx.Report(toks[i].line, "wall-clock",
               "'" + toks[i].text +
                   "' reads the wall clock in a result path; results must "
                   "not depend on when they run — use steady_clock for "
                   "durations outside result values, or thread timestamps "
                   "in explicitly as data");
  }
}

// ---------------------------------------------------------------------------
// thread-id: which worker executes an index is a scheduling accident. Any
// result-path read of thread identity (this_thread::get_id, pthread_self)
// makes output depend on that accident. Results must be a pure function of
// the index; per-thread state belongs in per-index slots.
// ---------------------------------------------------------------------------
void CheckThreadId(const FileCtx& ctx) {
  if (!InResultPath(ctx.path)) return;
  const auto& toks = ctx.lex.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i]) || !ThreadIdNames().count(toks[i].text)) continue;
    ctx.Report(toks[i].line, "thread-id",
               "'" + toks[i].text +
                   "' observes thread identity in a result path; which "
                   "thread runs an index is scheduling-dependent — key "
                   "per-worker state by the iteration index instead");
  }
}

// ---------------------------------------------------------------------------
// pointer-key: std::map/std::set ordered by a pointer key iterate in address
// order, which ASLR re-rolls every run. In result paths that ordering leaks
// straight into output. Key by a stable id or index; if identity-keyed
// lookup (never iterated) is really wanted, that is what unordered_map is
// for — and unordered-iter polices its iteration separately.
// ---------------------------------------------------------------------------
void CheckPointerKey(const FileCtx& ctx) {
  if (!InResultPath(ctx.path)) return;
  static const std::set<std::string> kOrdered = {
      "map", "set", "multimap", "multiset",
  };
  const auto& toks = ctx.lex.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i]) || !kOrdered.count(toks[i].text)) continue;
    if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
      continue;  // obj.set(...) is a setter, not a container.
    }
    if (toks[i + 1].text != "<") continue;
    // Scan the key type: everything up to the first top-level comma (the
    // Compare/Allocator/mapped-type args never order iteration) or the
    // closing '>'.
    int depth = 1;
    bool pointer_key = false;
    size_t j = i + 2;
    while (j < toks.size() && depth > 0) {
      const std::string& t = toks[j].text;
      if (t == "<") ++depth;
      else if (t == ">") --depth;
      else if (t == ">>") depth -= 2;
      else if (t == "," && depth == 1) break;
      else if (t == "*" && depth == 1) pointer_key = true;
      ++j;
    }
    if (pointer_key) {
      ctx.Report(toks[i].line, "pointer-key",
                 "ordered '" + toks[i].text +
                     "' keyed by a pointer; iteration follows addresses, "
                     "which ASLR re-rolls every run — key by a stable id or "
                     "index instead");
    }
  }
}

// ---------------------------------------------------------------------------
// kernel-bypass: every multiply-accumulate inner loop in the model layers
// must go through the kernels in tensor/kernels.h so it picks up the SIMD
// and int8 backends and stays inside the bit-identity contract. A raw
// `out[...] += a * b` loop in src/tensor/, src/nn/, or src/vlm/ outside
// the kernel TUs is a hand-rolled matmul/conv that the kernel layer can
// neither vectorize nor quantize. Kernel implementations themselves
// (src/tensor/kernels*) are exempt — they are the one place such loops
// belong.
// ---------------------------------------------------------------------------
void CheckKernelBypass(const FileCtx& ctx) {
  const bool scoped = StartsWith(ctx.path, "src/tensor/") ||
                      StartsWith(ctx.path, "src/nn/") ||
                      StartsWith(ctx.path, "src/vlm/");
  if (!scoped || StartsWith(ctx.path, "src/tensor/kernels")) return;
  const auto& toks = ctx.lex.tokens;
  for (size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct || toks[i].text != "+=") continue;
    if (toks[i - 1].text != "]") continue;  // Accumulate into a subscript.
    // The RHS (up to the statement end) must multiply two values — the
    // multiply-accumulate shape of a matmul/conv inner loop. `*` is a
    // multiply (not a deref) when it follows a value token.
    bool has_mul = false;
    for (size_t j = i + 2; j < toks.size() && toks[j].text != ";"; ++j) {
      if (toks[j].kind != TokenKind::kPunct || toks[j].text != "*") continue;
      const Token& prev = toks[j - 1];
      if (IsIdent(prev) || prev.kind == TokenKind::kNumber ||
          prev.text == ")" || prev.text == "]") {
        has_mul = true;
        break;
      }
    }
    if (!has_mul) continue;
    ctx.Report(toks[i].line, "kernel-bypass",
               "raw multiply-accumulate loop outside the kernel layer; "
               "route matmul-shaped work through tensor/kernels.h (SIMD/int8 "
               "backends, bit-identity contract) instead of a hand-rolled "
               "float loop");
  }
}

}  // namespace

std::string Finding::ToString() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

const std::vector<std::string>& AllRules() {
  static const std::vector<std::string> kRules = {
      "raw-rand",       "float-eq",      "header-guard",
      "include-order",  "unordered-iter", "per-sample-predict",
      "blocking-wait-no-deadline", "wall-clock", "thread-id",
      "pointer-key",    "layering",      "include-cycle",
      "nondet-taint",   "hot-path-alloc", "kernel-bypass",
      "guarded-by",     "unannotated-mutex", "ref-invalidation",
  };
  return kRules;
}

namespace {

/// A `// vsd-lint: allow(rule)` comment suppresses findings on its own line
/// and on the following line. Shared by the per-file and tree-level paths.
bool IsSuppressed(const Finding& f,
                  const std::map<int, std::set<std::string>>& suppressions) {
  for (int line : {f.line, f.line - 1}) {
    auto it = suppressions.find(line);
    if (it != suppressions.end() && it->second.count(f.rule)) return true;
  }
  return false;
}

/// All per-file checks over an already-lexed file, raw (no suppression
/// filtering, unsorted). The whole-program rules (layering, include-cycle
/// and the dataflow rules) need the full tree and live in ProgramFindings /
/// LintTree.
std::vector<Finding> CollectFileFindings(const std::string& path,
                                         const LexResult& lex) {
  std::vector<Finding> findings;
  FileCtx ctx{path, lex, &findings};
  CheckRawRand(ctx);
  CheckFloatEq(ctx);
  CheckHeaderGuard(ctx);
  CheckIncludeOrder(ctx);
  CheckUnorderedIter(ctx);
  CheckPerSamplePredict(ctx);
  CheckBlockingWait(ctx);
  CheckWallClock(ctx);
  CheckThreadId(ctx);
  CheckPointerKey(ctx);
  CheckKernelBypass(ctx);
  for (Finding& f : CheckNondetTaint(path, lex)) {
    findings.push_back(std::move(f));
  }
  return findings;
}

/// The whole-program dataflow rules, raw.
std::vector<Finding> ProgramFindings(const DataflowProgram& program) {
  std::vector<Finding> findings = CheckHotPathAlloc(program);
  const AnnotationIndex ann = BuildAnnotationIndex(program);
  for (Finding& f : CheckGuardedBy(program, ann)) {
    findings.push_back(std::move(f));
  }
  for (Finding& f : CheckUnannotatedMutex(ann)) {
    findings.push_back(std::move(f));
  }
  for (Finding& f : CheckRefInvalidation(program)) {
    findings.push_back(std::move(f));
  }
  return findings;
}

}  // namespace

std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content) {
  const LexResult lex = Lex(content);
  std::vector<Finding> findings = CollectFileFindings(path, lex);
  // One-file program, so the dataflow rules work on fixtures too.
  DataflowProgram program;
  program.AddFile(path, lex);
  for (Finding& f : ProgramFindings(program)) findings.push_back(std::move(f));

  std::vector<Finding> kept;
  for (Finding& f : findings) {
    if (!IsSuppressed(f, lex.suppressions)) kept.push_back(std::move(f));
  }
  std::stable_sort(kept.begin(), kept.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return kept;
}

std::vector<std::string> ListSourceFiles(
    const std::string& root, const std::vector<std::string>& subdirs) {
  std::vector<std::string> files;
  for (const std::string& sub : subdirs) {
    fs::path dir = fs::path(root) / sub;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (it->is_directory() &&
          StartsWith(it->path().filename().string(), "build")) {
        it.disable_recursion_pending();
        continue;
      }
      if (!it->is_regular_file()) continue;
      std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      files.push_back(fs::relative(it->path(), root).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool ReadFileToString(const std::string& root, const std::string& rel,
                      std::string* out) {
  std::ifstream in(fs::path(root) / rel, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

namespace {

/// One file's lex and raw (unsuppressed, unsorted) per-file findings.
struct LintedFile {
  bool ok = false;  ///< False when the file could not be read.
  LexResult lex;
  std::vector<Finding> raw;
};

/// Raw findings of a set of files before any suppression: every per-file
/// finding plus the tree-level rules (layering, include-cycle and the
/// dataflow rules), with each readable file's suppression table.
struct RawTree {
  std::vector<Finding> raw;
  std::map<std::string, std::map<int, std::set<std::string>>> suppressions;
  std::vector<std::string> unreadable;
};

/// The collection LintTree and AuditFiles share. Lexing and per-file rules
/// run on the global thread pool (each index writes only its own slot);
/// `read(i, &text)` fetches file i and must be safe to call concurrently.
/// The merge is serial in `paths` order, so any VSD_THREADS count gives
/// the same RawTree.
RawTree CollectRaw(const std::vector<std::string>& paths,
                   const std::function<bool(size_t, std::string*)>& read) {
  std::vector<LintedFile> per = ParallelMap<LintedFile>(
      static_cast<int64_t>(paths.size()), [&](int64_t i) {
        LintedFile out;
        std::string content;
        if (!read(static_cast<size_t>(i), &content)) return out;
        out.ok = true;
        out.lex = Lex(content);
        out.raw = CollectFileFindings(paths[i], out.lex);
        return out;
      });
  RawTree tree;
  IncludeGraphBuilder builder;
  DataflowProgram program;
  for (size_t i = 0; i < paths.size(); ++i) {
    if (!per[i].ok) {
      tree.unreadable.push_back(paths[i]);
      continue;
    }
    builder.AddFile(paths[i], per[i].lex);
    program.AddFile(paths[i], per[i].lex);
    tree.suppressions[paths[i]] = std::move(per[i].lex.suppressions);
    for (Finding& f : per[i].raw) tree.raw.push_back(std::move(f));
  }
  const IncludeGraph graph = builder.Build();
  for (auto* check : {&CheckLayering, &CheckCycles}) {
    for (Finding& f : (*check)(graph)) tree.raw.push_back(std::move(f));
  }
  for (Finding& f : ProgramFindings(program)) tree.raw.push_back(std::move(f));
  return tree;
}

/// Every `allow(<rule>)` comment that matches no raw finding of its rule
/// on its own line or the next one, as a "stale-suppression" finding, in
/// (file, line) order. Not part of AllRules: a stale comment cannot be
/// suppressed, only deleted.
std::vector<Finding> StaleSuppressions(const RawTree& tree) {
  std::map<std::string, std::map<int, std::set<std::string>>> live;
  for (const Finding& f : tree.raw) live[f.file][f.line].insert(f.rule);
  const std::vector<std::string>& known = AllRules();
  std::vector<Finding> stale;
  for (const auto& [path, table] : tree.suppressions) {
    for (const auto& [line, rules] : table) {
      for (const std::string& rule : rules) {
        // A suppression of a rule that does not exist never suppressed
        // anything (doc comments quoting the syntax parse this way), and a
        // typo'd rule name is already exposed by the lint run itself — the
        // unsuppressed finding still fires there.
        if (std::find(known.begin(), known.end(), rule) == known.end()) {
          continue;
        }
        // The comment's two-line window, seen from the comment's side: a
        // finding on `line` or `line + 1` keeps it live.
        if (IsSuppressed(Finding{path, line + 1, rule, ""}, live[path])) {
          continue;
        }
        stale.push_back(Finding{
            path, line, "stale-suppression",
            "'// vsd-lint: allow(" + rule + ")' matches no '" + rule +
                "' finding on this line or the next; the rule stopped "
                "firing here — delete the comment (or fix the rule name)"});
      }
    }
  }
  return stale;
}

}  // namespace

std::vector<Finding> LintTree(const std::string& root,
                              const std::vector<std::string>& subdirs) {
  const std::vector<std::string> files = ListSourceFiles(root, subdirs);
  RawTree tree = CollectRaw(files, [&](size_t i, std::string* text) {
    return ReadFileToString(root, files[i], text);
  });
  std::vector<Finding> findings;
  for (const std::string& path : tree.unreadable) {
    findings.push_back(Finding{path, 0, "io-error", "cannot read file"});
  }
  // Per-file suppression tables apply to the tree-level findings too (e.g.
  // a reasoned allow(layering) on an #include line).
  for (const Finding& f : tree.raw) {
    if (!IsSuppressed(f, tree.suppressions[f.file])) findings.push_back(f);
  }
  for (Finding& f : StaleSuppressions(tree)) findings.push_back(std::move(f));
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.file != b.file ? a.file < b.file
                                             : a.line < b.line;
                   });
  return findings;
}

std::vector<Finding> AuditFiles(
    const std::vector<std::pair<std::string, std::string>>& files) {
  std::vector<std::string> paths;
  for (const auto& file : files) paths.push_back(file.first);
  return StaleSuppressions(CollectRaw(paths, [&](size_t i, std::string* text) {
    *text = files[i].second;
    return true;
  }));
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FindingsToJson(const std::vector<Finding>& findings) {
  const auto& escape = JsonEscape;
  std::string out = "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"file\": \"" + escape(f.file) +
           "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"" +
           escape(f.rule) + "\", \"message\": \"" + escape(f.message) + "\"}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

std::string FindingsToSarif(const std::vector<Finding>& findings) {
  // Minimal SARIF 2.1.0: enough for GitHub code scanning to render each
  // finding as an inline annotation. Hand-built like FindingsToJson so the
  // bytes are deterministic.
  std::string out;
  out += "{\n";
  out += "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"version\": \"2.1.0\",\n";
  out += "  \"runs\": [\n";
  out += "    {\n";
  out += "      \"tool\": {\n";
  out += "        \"driver\": {\n";
  out += "          \"name\": \"vsd_lint\",\n";
  out += "          \"rules\": [\n";
  const std::vector<std::string>& rules = AllRules();
  for (size_t i = 0; i < rules.size(); ++i) {
    out += "            {\"id\": \"" + JsonEscape(rules[i]) + "\"}";
    out += i + 1 < rules.size() ? ",\n" : "\n";
  }
  out += "          ]\n";
  out += "        }\n";
  out += "      },\n";
  if (findings.empty()) {
    out += "      \"results\": []\n";
    out += "    }\n";
    out += "  ]\n";
    out += "}\n";
    return out;
  }
  out += "      \"results\": [\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    // SARIF requires startLine >= 1; tree-level findings (io-error) use 0.
    const int line = f.line > 0 ? f.line : 1;
    out += "        {\"ruleId\": \"" + JsonEscape(f.rule) +
           "\", \"level\": \"error\", \"message\": {\"text\": \"" +
           JsonEscape(f.message) +
           "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           JsonEscape(f.file) +
           "\"}, \"region\": {\"startLine\": " + std::to_string(line) +
           "}}}]}";
    out += i + 1 < findings.size() ? ",\n" : "\n";
  }
  out += "      ]\n";
  out += "    }\n";
  out += "  ]\n";
  out += "}\n";
  return out;
}

}  // namespace vsd::lint
