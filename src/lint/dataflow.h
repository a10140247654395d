#ifndef VSD_LINT_DATAFLOW_H_
#define VSD_LINT_DATAFLOW_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.h"
#include "lint/lint.h"

/// Lightweight intraprocedural dataflow on top of the lexer (no parser, no
/// types — see docs/INTERNALS.md "Dataflow analyses"). The engine recovers
/// function extents from the token stream, builds a whole-program function
/// table with call-site resolution, and runs three analyses over it:
///
///  * lock-order     — whole-program lock-acquisition graph; an edge A -> B
///                     means B is acquired while A is held (including through
///                     one level of resolved direct calls); any cycle is a
///                     potential deadlock.
///  * nondet-taint   — values derived from nondeterministic sources (wall
///                     clocks, thread ids, shared-Rng draws in ParallelFor
///                     bodies, pointer-to-integer casts) are propagated
///                     through assignments, arithmetic, and container inserts
///                     until they reach a result sink (CSV/metrics writers,
///                     BENCH_* sidecars, returns from src/core/ and bench/).
///  * hot-path-alloc — heap allocations reachable from
///                     GraphExecutor::Execute (one call level deep), inside
///                     src/tensor/kernels, or inside ParallelFor bodies in
///                     src/explain/: the static twin of the runtime counting
///                     operator-new contract in tests/graph_exec_test.cc.
namespace vsd::lint {

/// One function definition recovered from the token stream. Recovery is a
/// heuristic (identifier + balanced parens + optional specifiers/ctor-init
/// list + braced body); declarations, calls, and control-flow headers are
/// excluded by shape and keyword. Macro-style bodies (TEST(A, B) { ... })
/// are recovered under the macro's name, which is harmless.
struct DfFunction {
  std::string file;       ///< Repo-relative path the function lives in.
  std::string qualifier;  ///< "GraphExecutor" for GraphExecutor::Execute.
  std::string name;       ///< Unqualified name ("Execute", "~ThreadPool").
  int line = 0;           ///< Line of the function name.
  size_t body_open = 0;   ///< Token index of the body '{'.
  size_t body_close = 0;  ///< Token index of the matching '}'.
  std::set<std::string> params;  ///< Parameter names.

  std::string QualifiedName() const {
    return qualifier.empty() ? name : qualifier + "::" + name;
  }
};

/// Recovers all function definitions in a token stream (see DfFunction).
std::vector<DfFunction> ExtractFunctions(const std::string& file,
                                         const std::vector<Token>& toks);

// Token-walk utilities shared with the annotation analyses
// (lint/annotations.h). Semantics are pinned by tests/dataflow_test.cc.

/// Keywords that can precede '(' without being a call or definition head.
const std::set<std::string>& HeadKeywords();

/// Receiver chain ending at token `e`, walked back through . / -> (and a
/// leading `this->`), e.g. "entry.mu". Empty when the receiver is dynamic
/// (call or subscript result) or not an identifier.
std::string WalkBackChain(const std::vector<Token>& toks, size_t e);

/// Canonical graph identity for a mutex named by `chain` inside `fn`:
/// locals/statics are per-function, members are per-class, everything else
/// (file-scope globals seen from free functions) is per-file.
std::string LockId(const DfFunction& fn, const std::set<std::string>& locals,
                   const std::string& chain);

/// RAII guard class names treated as lock acquisitions (lock_guard,
/// unique_lock, shared_lock, scoped_lock).
const std::set<std::string>& GuardTypes();

/// True when the call head at `k` sits under a std-like qualifier (std::,
/// chrono::, this_thread::, fs::, filesystem::, testing::), judged by the
/// leftmost `A::` of its qualifier chain. Such calls never name project
/// functions, so call linking skips them.
bool IsStdQualified(const std::vector<Token>& toks, size_t k);

/// Mutex argument chains of a guard constructor: top-level comma-separated
/// args in (open, close), std lock tags skipped, dynamic expressions
/// dropped.
std::vector<std::string> GuardArgChains(const std::vector<Token>& toks,
                                        size_t open, size_t close);

/// Names declared as locals inside [body_open, body_close): `Type name ...`
/// shapes, including static locals. Used to scope lock identities and to
/// distinguish per-function statics from class members.
std::set<std::string> CollectBodyLocals(const std::vector<Token>& toks,
                                        size_t body_open, size_t body_close);

/// One lock held at a point of a function body (see ScanFunctionLocks).
struct HeldLock {
  std::string id;
  std::string guard;  ///< Guard variable; empty for manual/REQUIRES holds.
  int depth = 0;      ///< Brace depth at declaration (guards pop with it).
  bool manual = false;  ///< Manual or REQUIRES: never popped by scope exit.
};

/// Callbacks of the held-set walk, each given the locks held at that point.
struct LockScanHooks {
  /// Each acquisition, before it joins the held set.
  std::function<void(const std::string& id, int line,
                     const std::vector<HeldLock>& held)>
      on_acquire;
  /// Each bare or ::-qualified call head (never std-like) made while
  /// holding at least one lock: a candidate for one-level call linking.
  std::function<void(const std::string& name, int line,
                     const std::vector<HeldLock>& held)>
      on_call;
  /// Each identifier at token `k` that the walk does not consume as a
  /// guard declaration or a lock()/unlock() call.
  std::function<void(size_t k, const std::vector<HeldLock>& held)> on_ident;
};

/// Walks `fn`'s body tracking the held set: guard declarations (popped
/// with their brace depth), manual lock()/unlock() windows, and `initial`
/// (VSD_REQUIRES contracts: held on entry, never popped). A re-lock
/// through a guard variable is skipped; a re-lock of a held id by name is
/// another acquisition and another entry.
void ScanFunctionLocks(const std::vector<Token>& toks, const DfFunction& fn,
                       const LockScanHooks& hooks,
                       const std::set<std::string>& initial = {});

/// Whole-program function table over the same file walk as the include
/// graph. Call sites are resolved by name only for bare and ::-qualified
/// calls (member calls through . / -> are never linked — the receiver's
/// type is unknown): same-class candidates win, then same-file, then a
/// unique cross-file match; ambiguous names resolve to nothing rather than
/// risk a false edge.
class DataflowProgram {
 public:
  /// Registers a lexed file. Call in sorted path order for deterministic
  /// function/edge ordering downstream.
  void AddFile(const std::string& path, const LexResult& lex);

  const std::vector<std::string>& files() const { return files_; }
  const std::vector<Token>& tokens(const std::string& file) const;
  const std::vector<DfFunction>& functions() const { return functions_; }

  /// Candidate definitions for a call to `name` made from `caller`, or
  /// empty if unknown or ambiguous. All returned candidates share one file
  /// (overloads), so callers may union over them.
  std::vector<const DfFunction*> Resolve(const DfFunction& caller,
                                         const std::string& name) const;

 private:
  std::vector<std::string> files_;
  std::map<std::string, std::vector<Token>> tokens_;
  std::vector<DfFunction> functions_;
  std::map<std::string, std::vector<size_t>> by_name_;
};

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

/// Edge in the lock-acquisition graph: `to` is acquired (at file:line) while
/// `from` is held. `via` names the callee when the acquisition happens one
/// call level away rather than lexically inside the holder.
struct LockEdge {
  std::string from;
  std::string to;
  std::string file;
  int line = 0;
  std::string via;
};

struct LockGraph {
  std::vector<std::string> nodes;  ///< Sorted canonical lock identities.
  std::vector<LockEdge> edges;     ///< Deduped by (from, to), sorted.
};

/// Lock identities are canonical strings: members lock as "Class::name",
/// locals/statics as "Function::name", file-scope mutexes in free functions
/// as "file::name" — consistent naming is what makes cycles comparable
/// across functions.
LockGraph BuildLockGraph(const DataflowProgram& program);

/// Cycles in the acquisition graph, one "lock-order" finding per distinct
/// cycle at the edge that closes it.
std::vector<Finding> CheckLockOrder(const LockGraph& graph);

/// DOT export for `vsd_lint --dump-lock-graph` (mirrors DumpDot for the
/// include graph). Call-linked edges are dashed.
std::string DumpLockDot(const LockGraph& graph);

/// Lex + AddFile over the standard tree walk, then BuildLockGraph.
LockGraph BuildLockGraphFromTree(const std::string& root,
                                 const std::vector<std::string>& subdirs);

// ---------------------------------------------------------------------------
// nondet-taint
// ---------------------------------------------------------------------------

// The nondeterminism source table. The lexical wall-clock, thread-id and
// rng-fork rules (lint.cc) and nondet-taint all read it; each keeps its own
// path scope and match condition.

/// Wall-clock reads (system_clock, ::time, localtime, ...). steady_clock is
/// absent: it times durations that never enter result values.
const std::set<std::string>& WallClockNames();

/// Thread-identity reads (this_thread::get_id, pthread_self, gettid).
const std::set<std::string>& ThreadIdNames();

/// Draws from a shared Rng inside ParallelFor/ParallelMap calls that start
/// in [begin, end): the token index of each draw method (`Uniform` in
/// `rng.Uniform()`), listed once even when loops nest. A receiver declared
/// inside the call (`Rng r`, `auto& r`) or a per-index expression
/// (`streams[i].Uniform()`, `MakeRng(i).Next()`) is not shared.
std::vector<size_t> SharedRngDraws(const std::vector<Token>& toks,
                                   size_t begin, size_t end);

/// A nondeterministic source occurrence inside one function body.
struct TaintSource {
  size_t token = 0;  ///< Token index of the source.
  int line = 0;
  std::string what;  ///< Human description ("wall clock 'system_clock'").
};

/// All nondeterministic sources in `fn`'s body: wall-clock reads, thread
/// ids, pointer-to-integer casts, and shared-Rng draws inside ParallelFor/
/// ParallelMap call extents.
std::vector<TaintSource> FindNondetSources(const std::string& path,
                                           const std::vector<Token>& toks,
                                           const DfFunction& fn);

/// Forward taint propagation over `fn`'s body: a variable is tainted when a
/// source or an already-tainted identifier appears on the right of an
/// assignment/compound-assignment targeting it, or in the arguments of a
/// container mutator (push_back/insert/...) it receives. Iterated to a
/// fixpoint, so ordering between statements is conservative (taint sticks).
/// Returns var name -> originating source.
std::map<std::string, TaintSource> PropagateTaint(
    const std::vector<Token>& toks, const DfFunction& fn,
    const std::vector<TaintSource>& seeds);

/// The nondet-taint rule over one lexed file (intraprocedural): sources
/// propagated to result sinks — AddRow/WriteCsv/WriteJson calls anywhere,
/// and `return` values in src/core/ and bench/.
std::vector<Finding> CheckNondetTaint(const std::string& path,
                                      const LexResult& lex);

// ---------------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------------

/// The hot-path-alloc rule: heap allocations (new, make_unique/make_shared,
/// growing container calls, string growth) inside GraphExecutor::Execute
/// and its one-level resolved callees, inside any function in
/// src/tensor/kernels.*, or inside ParallelFor/ParallelMap call extents in
/// src/explain/ files.
std::vector<Finding> CheckHotPathAlloc(const DataflowProgram& program);

}  // namespace vsd::lint

#endif  // VSD_LINT_DATAFLOW_H_
