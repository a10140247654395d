#include "lint/dataflow.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/annotations.h"
#include "lint/lexer.h"
#include "lint/lint.h"

namespace vsd::lint {
namespace {

// All fixtures live in raw strings: the repo's own lint run sees them as
// single string tokens, so fixture code can freely violate every rule.

const DfFunction* FindFn(const std::vector<DfFunction>& fns,
                         const std::string& qualified) {
  for (const DfFunction& fn : fns) {
    if (fn.QualifiedName() == qualified) return &fn;
  }
  return nullptr;
}

// ----------------------------------------------------- function recovery ----

TEST(ExtractFunctionsTest, RecoversFreeFunctionsMethodsCtorsAndDtors) {
  const LexResult lex = Lex(R"cc(
    int Add(int a, int b) { return a + b; }
    void Widget::Draw() const { Render(); }
    Widget::Widget() : x_(0), y_{1} { Init(); }
    Widget::~Widget() { Close(); }
  )cc");
  const std::vector<DfFunction> fns = ExtractFunctions("a.cc", lex.tokens);
  ASSERT_EQ(fns.size(), 4u);
  EXPECT_EQ(fns[0].QualifiedName(), "Add");
  EXPECT_TRUE(fns[0].params.count("a"));
  EXPECT_TRUE(fns[0].params.count("b"));
  EXPECT_EQ(fns[1].QualifiedName(), "Widget::Draw");
  EXPECT_EQ(fns[2].QualifiedName(), "Widget::Widget");
  EXPECT_EQ(fns[3].name, "~Widget");
  EXPECT_EQ(fns[3].qualifier, "Widget");
}

TEST(ExtractFunctionsTest, SkipsDeclarationsControlFlowAndCalls) {
  const LexResult lex = Lex(R"cc(
    void Declared(int x);
    void Body() {
      if (Check()) { Work(); }
      while (Check()) { Work(); }
      for (int i = 0; i < 3; ++i) { Work(); }
      switch (Mode()) { default: break; }
    }
  )cc");
  const std::vector<DfFunction> fns = ExtractFunctions("a.cc", lex.tokens);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "Body");
}

TEST(ExtractFunctionsTest, BodyExtentCoversTheWholeBraceRange) {
  const LexResult lex = Lex(R"cc(
    int Nested() {
      { int inner = 1; }
      return 0;
    }
  )cc");
  const std::vector<DfFunction> fns = ExtractFunctions("a.cc", lex.tokens);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_LT(fns[0].body_open, fns[0].body_close);
  EXPECT_EQ(lex.tokens[fns[0].body_open].text, "{");
  EXPECT_EQ(lex.tokens[fns[0].body_close].text, "}");
  // The close brace is the fixture's last real token (the lexer appends an
  // empty sentinel).
  EXPECT_EQ(fns[0].body_close + 2, lex.tokens.size());
}

TEST(CollectBodyLocalsTest, FindsTypedDeclarationsOnly) {
  const LexResult lex = Lex(R"cc(
    void F(int arg) {
      int count = 0;
      std::mutex mu;
      auto* ptr = &count;
      count = arg;
    }
  )cc");
  const std::vector<DfFunction> fns = ExtractFunctions("a.cc", lex.tokens);
  ASSERT_EQ(fns.size(), 1u);
  const std::set<std::string> locals =
      CollectBodyLocals(lex.tokens, fns[0].body_open, fns[0].body_close);
  EXPECT_TRUE(locals.count("count"));
  EXPECT_TRUE(locals.count("mu"));
  EXPECT_TRUE(locals.count("ptr"));
  // Plain assignments and parameters are not declarations.
  EXPECT_FALSE(locals.count("arg"));
}

// -------------------------------------------------------- call resolution ----

TEST(DataflowProgramTest, ResolvePrefersClassThenFileAndDropsAmbiguous) {
  DataflowProgram program;
  program.AddFile("a.cc", Lex(R"cc(
    void Helper() { }
    void A::Helper() { }
    void A::Run() { Helper(); Dup(); Unique(); }
  )cc"));
  program.AddFile("b.cc", Lex(R"cc(
    void Dup() { }
  )cc"));
  program.AddFile("c.cc", Lex(R"cc(
    void Dup() { }
    void Unique() { }
  )cc"));

  const DfFunction* run = FindFn(program.functions(), "A::Run");
  ASSERT_NE(run, nullptr);

  // Same-class candidate beats the same-file free function.
  std::vector<const DfFunction*> helper = program.Resolve(*run, "Helper");
  ASSERT_EQ(helper.size(), 1u);
  EXPECT_EQ(helper[0]->QualifiedName(), "A::Helper");

  // Defined in two other files with no tiebreaker: ambiguous, no link.
  EXPECT_TRUE(program.Resolve(*run, "Dup").empty());

  // A unique cross-file definition resolves.
  std::vector<const DfFunction*> unique = program.Resolve(*run, "Unique");
  ASSERT_EQ(unique.size(), 1u);
  EXPECT_EQ(unique[0]->file, "c.cc");
}

// ----------------------------------------------------------- held-set walk ----

// The LockGraphTest cases pin ScanFunctionLocks, the held-set walk the
// former lock-order graph was built from and guarded-by checks accesses
// against.

// The held set at each `Probe` identifier in `qualified`'s body, in token
// order. `initial` seeds it the way a VSD_REQUIRES contract does.
std::vector<std::vector<HeldLock>> HeldAtProbes(
    const DataflowProgram& program, const std::string& qualified,
    const std::set<std::string>& initial = {}) {
  std::vector<std::vector<HeldLock>> probes;
  const DfFunction* fn = FindFn(program.functions(), qualified);
  if (fn == nullptr) {
    ADD_FAILURE() << "no function " << qualified;
    return probes;
  }
  const std::vector<Token>& toks = program.tokens(fn->file);
  ScanFunctionLocks(
      toks, *fn,
      [&](size_t k, const std::vector<HeldLock>& held) {
        if (toks[k].text == "Probe") probes.push_back(held);
      },
      initial);
  return probes;
}

// Lock ids of a held set, in acquisition order.
std::vector<std::string> Ids(const std::vector<HeldLock>& held) {
  std::vector<std::string> ids;
  for (const HeldLock& h : held) ids.push_back(h.id);
  return ids;
}

using Strings = std::vector<std::string>;

TEST(LockGraphTest, SequentialScopesDoNotMakeAnEdge) {
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    std::mutex a;
    std::mutex b;
    void Sequential() {
      { std::lock_guard<std::mutex> ga(a); Probe(); }
      { std::lock_guard<std::mutex> gb(b); Probe(); }
      Probe();
    }
  )cc"));
  // Each guard pops with its block: `a` is never held while `b` is.
  const auto probes = HeldAtProbes(program, "Sequential");
  ASSERT_EQ(probes.size(), 3u);
  EXPECT_EQ(Ids(probes[0]), Strings{"x.cc::a"});
  EXPECT_EQ(Ids(probes[1]), Strings{"x.cc::b"});
  EXPECT_TRUE(probes[2].empty());
}

TEST(LockGraphTest, ScopedLockArgumentsAcquireAtomically) {
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    std::mutex a;
    std::mutex b;
    void Both() {
      { std::scoped_lock g(a, std::adopt_lock, b); Probe(); }
      Probe();
    }
  )cc"));
  // One declaration holds every argument (lock tags skipped) under one
  // guard, and all of them pop together.
  const auto probes = HeldAtProbes(program, "Both");
  ASSERT_EQ(probes.size(), 2u);
  EXPECT_EQ(Ids(probes[0]), (Strings{"x.cc::a", "x.cc::b"}));
  for (const HeldLock& h : probes[0]) {
    EXPECT_EQ(h.guard, "g");
    EXPECT_EQ(h.depth, 1);
    EXPECT_FALSE(h.manual);
  }
  EXPECT_TRUE(probes[1].empty());
}

TEST(LockGraphTest, ManualUnlockReleasesTheLock) {
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    std::mutex a;
    std::mutex b;
    void Released() {
      a.lock();
      a.unlock();
      std::lock_guard<std::mutex> gb(b);
      Probe();
    }
    void StillHeld() {
      { a.lock(); }
      std::lock_guard<std::mutex> gb(b);
      Probe();
      a.unlock();
      Probe();
    }
  )cc"));
  // Released dropped `a` before taking `b`.
  const auto released = HeldAtProbes(program, "Released");
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(Ids(released[0]), Strings{"x.cc::b"});

  // A manual hold outlives the block it was taken in, until unlock().
  const auto still = HeldAtProbes(program, "StillHeld");
  ASSERT_EQ(still.size(), 2u);
  EXPECT_EQ(Ids(still[0]), (Strings{"x.cc::a", "x.cc::b"}));
  EXPECT_TRUE(still[0][0].manual);
  EXPECT_EQ(still[0][0].guard, "");
  EXPECT_EQ(Ids(still[1]), Strings{"x.cc::b"});
}

TEST(LockGraphTest, DeferredGuardRelockAcquiresItsMutex) {
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    std::mutex a;
    std::mutex b;
    void Relock() {
      std::unique_lock<std::mutex> lock(a);
      lock.unlock();
      Probe();
      lock.lock();
      lock.lock();
      std::lock_guard<std::mutex> gb(b);
      Probe();
    }
  )cc"));
  // The guard variable's unlock() releases `a`; its lock() takes `a` back
  // (not a lock named after the guard), once while it is held.
  const auto probes = HeldAtProbes(program, "Relock");
  ASSERT_EQ(probes.size(), 2u);
  EXPECT_TRUE(probes[0].empty());
  EXPECT_EQ(Ids(probes[1]), (Strings{"x.cc::a", "x.cc::b"}));
  EXPECT_EQ(probes[1][0].guard, "lock");
}

TEST(LockGraphTest, MemberMutexesAreCanonicalizedPerClass) {
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    void Pool::Submit() {
      std::lock_guard<std::mutex> g1(submit_mu_);
      std::lock_guard<std::mutex> g2(mu_);
      Probe();
    }
  )cc"));
  const auto probes = HeldAtProbes(program, "Pool::Submit");
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_EQ(Ids(probes[0]), (Strings{"Pool::submit_mu_", "Pool::mu_"}));
}

TEST(LockGraphTest, RequiresAnnotationSeedsTheHeldSet) {
  // A VSD_REQUIRES(mu_) function acquires nothing itself, but mu_ is held
  // for its whole body: before, under and after any lock it takes inside.
  DataflowProgram program;
  program.AddFile("x.cc", Lex(R"cc(
    class Pool {
     public:
      void DrainLocked() VSD_REQUIRES(mu_) {
        { std::lock_guard<std::mutex> g(log_mu_); Probe(); }
        Probe();
      }

     private:
      std::mutex mu_;
      std::mutex log_mu_;
    };
  )cc"));
  const AnnotationIndex index = BuildAnnotationIndex(program);
  const MethodContract* contract = index.ContractFor("Pool", "DrainLocked");
  ASSERT_NE(contract, nullptr);
  EXPECT_EQ(contract->requires_held, std::set<std::string>{"Pool::mu_"});

  const auto probes =
      HeldAtProbes(program, "Pool::DrainLocked", contract->requires_held);
  ASSERT_EQ(probes.size(), 2u);
  EXPECT_EQ(Ids(probes[0]), (Strings{"Pool::mu_", "Pool::log_mu_"}));
  EXPECT_EQ(Ids(probes[1]), Strings{"Pool::mu_"});
  EXPECT_TRUE(probes[1][0].manual);
}

// ------------------------------------------------------------ nondet-taint ----

TEST(FindNondetSourcesTest, ClocksCastsAndSharedRngDrawsAreSources) {
  const LexResult lex = Lex(R"cc(
    void F(Rng& rng, Item* item, std::vector<double>& vals) {
      const auto tick = std::chrono::system_clock::now();
      const auto key = reinterpret_cast<uintptr_t>(item);
      ParallelFor(8, [&](int64_t i) {
        vals[i] = rng.Uniform();
      });
    }
  )cc");
  const std::vector<DfFunction> fns = ExtractFunctions("a.cc", lex.tokens);
  ASSERT_EQ(fns.size(), 1u);
  const std::vector<TaintSource> seeds =
      FindNondetSources("a.cc", lex.tokens, fns[0]);
  ASSERT_EQ(seeds.size(), 3u);
  EXPECT_NE(seeds[0].what.find("system_clock"), std::string::npos);
  EXPECT_NE(seeds[1].what.find("uintptr_t"), std::string::npos);
  EXPECT_NE(seeds[2].what.find("rng.Uniform"), std::string::npos);
}

TEST(FindNondetSourcesTest, NamesAloneAreNotSources) {
  const LexResult lex = Lex(R"cc(
    void F(Rng& rng) {
      int time = 3;        // A local *named* time is not a clock read.
      int clock = time;
      double x = rng.Uniform();  // Draw outside ParallelFor: not shared.
    }
  )cc");
  const std::vector<DfFunction> fns = ExtractFunctions("a.cc", lex.tokens);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_TRUE(FindNondetSources("a.cc", lex.tokens, fns[0]).empty());
}

// -------------------------------------------------------- shared-Rng draws ----

// The RngForkRule cases pin SharedRngDraws over whole snippets, the check
// the former lexical rng-fork rule ran; it is now one of nondet-taint's
// sources. A draw from an Rng captured into a ParallelFor/ParallelMap body
// is shared unless the body declares the receiver or indexes it per call.

// The draw-method token of each shared draw in `src`.
std::vector<std::string> SharedDraws(const std::string& src) {
  const LexResult lex = Lex(src);
  std::vector<std::string> draws;
  for (size_t k : SharedRngDraws(lex.tokens, 0, lex.tokens.size())) {
    draws.push_back(lex.tokens[k].text);
  }
  return draws;
}

TEST(RngForkRule, FlagsSharedRngDrawInsideParallelFor) {
  EXPECT_EQ(SharedDraws(R"cc(
    void F(Rng& rng, std::vector<double>* out) {
      ParallelFor(8, [&](int64_t i) { (*out)[i] = rng.Uniform(); });
    }
  )cc"), Strings{"Uniform"});
  // A draw inside nested loops is listed once, not once per loop.
  EXPECT_EQ(SharedDraws(R"cc(
    void F(Rng& rng, std::vector<double>* out) {
      ParallelFor(8, [&](int64_t i) {
        ParallelFor(8, [&](int64_t j) { (*out)[8 * i + j] = rng.Uniform(); });
      });
    }
  )cc"), Strings{"Uniform"});
}

TEST(RngForkRule, FlagsPointerDrawAndForkInsideBody) {
  EXPECT_EQ(SharedDraws(R"cc(
    ParallelFor(n, [&](int64_t i) { out[i] = rng->Next(); });
  )cc"), Strings{"Next"});
  // Fork() mutates the parent, so even forking *inside* the body races.
  EXPECT_EQ(SharedDraws(R"cc(
    ParallelFor(n, [&](int64_t i) { Rng child = rng.Fork(); });
  )cc"), Strings{"Fork"});
}

TEST(RngForkRule, AllowsPreForkedStreamsAndBodyLocals) {
  EXPECT_TRUE(SharedDraws(R"cc(
    void F(Rng* rng, std::vector<double>* out) {
      std::vector<Rng> streams;
      for (int s = 0; s < 8; ++s) streams.push_back(rng->Fork());
      ParallelFor(8, [&](int64_t i) { (*out)[i] = streams[i].Uniform(); });
      ParallelFor(8, [&](int64_t i) {
        Rng local(1234 + i);
        (*out)[i] = local.Normal();
      });
      const std::vector<double> v = ParallelMap<double>(8, [&](int64_t i) {
        Rng& s = streams[i];
        return s.Uniform();
      });
    }
  )cc").empty());
}

TEST(PropagateTaintTest, TaintFlowsThroughAssignmentsAndContainerInserts) {
  const LexResult lex = Lex(R"cc(
    void F(std::vector<double>& out) {
      const auto tick = std::chrono::system_clock::now();
      const double base = Convert(tick);
      double scaled = base * 2.0;
      out.push_back(scaled);
      double clean = 1.0;
    }
  )cc");
  const std::vector<DfFunction> fns = ExtractFunctions("a.cc", lex.tokens);
  ASSERT_EQ(fns.size(), 1u);
  const std::vector<TaintSource> seeds =
      FindNondetSources("a.cc", lex.tokens, fns[0]);
  ASSERT_EQ(seeds.size(), 1u);
  const std::map<std::string, TaintSource> taint =
      PropagateTaint(lex.tokens, fns[0], seeds);
  EXPECT_TRUE(taint.count("tick"));
  EXPECT_TRUE(taint.count("base"));    // Through a call wrapper.
  EXPECT_TRUE(taint.count("scaled"));  // Through arithmetic.
  EXPECT_TRUE(taint.count("out"));     // Container mutator taints receiver.
  EXPECT_FALSE(taint.count("clean"));
}

TEST(CheckNondetTaintTest, LaunderedWallClockReachingAddRowIsAFinding) {
  const LexResult lex = Lex(R"cc(
    void Report(Table& table) {
      const auto now = std::chrono::system_clock::now();
      const double stamp = ToSeconds(now);
      table.AddRow("run", stamp);
    }
  )cc");
  const std::vector<Finding> findings =
      CheckNondetTaint("tools/report.cc", lex);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "nondet-taint");
  EXPECT_NE(findings[0].message.find("system_clock"), std::string::npos);
  EXPECT_NE(findings[0].message.find("AddRow"), std::string::npos);
}

TEST(CheckNondetTaintTest, ReturnIsASinkOnlyInCoreAndBench) {
  const LexResult lex = Lex(R"cc(
    double Stamp() {
      const double t = static_cast<double>(std::time(nullptr));
      return t;
    }
  )cc");
  EXPECT_EQ(CheckNondetTaint("src/core/stamp.cc", lex).size(), 1u);
  EXPECT_EQ(CheckNondetTaint("bench/stamp.cc", lex).size(), 1u);
  EXPECT_TRUE(CheckNondetTaint("src/serve/stamp.cc", lex).empty());
}

TEST(CheckNondetTaintTest, DeterministicDataIntoSinksIsClean) {
  const LexResult lex = Lex(R"cc(
    void Report(Table& table, const Metrics& m) {
      const double f1 = m.f1;
      table.AddRow("ours", f1);
    }
  )cc");
  EXPECT_TRUE(CheckNondetTaint("src/core/report.cc", lex).empty());
}

// ---------------------------------------------------------- hot-path-alloc ----

TEST(HotPathAllocTest, KernelsFileFunctionsAreScannedDirectly) {
  DataflowProgram program;
  program.AddFile("src/tensor/kernels.cc", Lex(R"cc(
    void MatMul(std::vector<float>& out) {
      out.push_back(1.0f);
    }
  )cc"));
  const std::vector<Finding> findings = CheckHotPathAlloc(program);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hot-path-alloc");
  EXPECT_NE(findings[0].message.find("push_back"), std::string::npos);
  EXPECT_NE(findings[0].message.find("MatMul"), std::string::npos);
}

TEST(HotPathAllocTest, BackendKernelFilesAreScannedToo) {
  // The vector kernels sit in kernels_simd.cc (compiled once per vector
  // width), two calls below Execute; a scratch buffer grown there, per
  // thread or per call, allocates inside the zero-allocation contract.
  DataflowProgram program;
  program.AddFile("src/tensor/kernels_simd.cc", Lex(R"cc(
    void Im2ColInto(const float* x, float* out, int size) {
      thread_local std::vector<float> plane;
      plane.resize(size);
    }
  )cc"));
  const std::vector<Finding> findings = CheckHotPathAlloc(program);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/tensor/kernels_simd.cc");
  EXPECT_NE(findings[0].message.find("resize"), std::string::npos);
  EXPECT_NE(findings[0].message.find("Im2ColInto"), std::string::npos);
}

TEST(HotPathAllocTest, ExecuteBodyAndItsDirectCalleesAreScanned) {
  DataflowProgram program;
  program.AddFile("src/nn/graph_exec.cc", Lex(R"cc(
    void Stage(std::vector<int>& v) { v.push_back(1); }
    void GraphExecutor::Execute() {
      float* buf = new float[16];
      Stage(scratch_);
    }
  )cc"));
  const std::vector<Finding> findings = CheckHotPathAlloc(program);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_NE(findings[0].message.find("'new'"), std::string::npos);
  EXPECT_NE(findings[1].message.find("reachable from GraphExecutor::Execute"),
            std::string::npos);
}

TEST(HotPathAllocTest, OnlyExplainParallelForBodiesAreHot) {
  DataflowProgram program;
  program.AddFile("src/explain/run.cc", Lex(R"cc(
    void Run(std::vector<int>& out) {
      ParallelFor(4, [&](int64_t i) {
        std::string s = std::to_string(i);
      });
      out.push_back(2);
    }
  )cc"));
  program.AddFile("src/core/other.cc", Lex(R"cc(
    void Other(std::vector<int>& out) {
      ParallelFor(4, [&](int64_t i) { out[i] = 1; });
      out.push_back(3);
    }
  )cc"));
  // An allocation inside nested loops is one finding, not one per loop.
  program.AddFile("src/explain/nested.cc", Lex(R"cc(
    void Nested(std::vector<int>& out) {
      ParallelFor(4, [&](int64_t i) {
        ParallelFor(4, [&](int64_t j) { out.push_back(j); });
      });
    }
  )cc"));
  const std::vector<Finding> findings = CheckHotPathAlloc(program);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "src/explain/run.cc");
  EXPECT_NE(findings[0].message.find("to_string"), std::string::npos);
  EXPECT_EQ(findings[1].file, "src/explain/nested.cc");
  EXPECT_NE(findings[1].message.find("push_back"), std::string::npos);
}

// ------------------------------------------------------------- meta checks ----

// The static twin of the runtime zero-allocation contract: nothing on the
// GraphExecutor::Execute path may allocate, not even behind a suppression.
TEST(DataflowMetaTest, ExecutePathHasNoHotPathAllocations) {
  DataflowProgram program;
  for (const std::string& rel : ListSourceFiles(
           VSD_SOURCE_DIR, {"src", "bench", "tools", "tests", "examples"})) {
    std::string content;
    if (ReadFileToString(VSD_SOURCE_DIR, rel, &content)) {
      program.AddFile(rel, Lex(content));
    }
  }
  for (const Finding& f : CheckHotPathAlloc(program)) {
    if (f.message.find("Execute") != std::string::npos) {
      ADD_FAILURE() << f.ToString();
    }
  }
}

}  // namespace
}  // namespace vsd::lint
