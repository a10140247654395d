#include "lint/annotations.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/dataflow.h"
#include "lint/lexer.h"

namespace vsd::lint {
namespace {

std::vector<ClassExtent> Extents(const std::string& src) {
  return FindClassExtents(Lex(src).tokens);
}

AnnotationIndex Index(const std::string& src) {
  DataflowProgram program;
  program.AddFile("src/x/c.cc", Lex(src));
  return BuildAnnotationIndex(program);
}

// ------------------------------------------------------- class extents ----

TEST(FindClassExtentsTest, RecoversClassesStructsAndNesting) {
  const std::vector<ClassExtent> extents = Extents(R"cc(
    class Outer {
      struct Inner {
        int x;
      };
      int y;
    };
    struct Free { int z; };
  )cc");
  ASSERT_EQ(extents.size(), 3u);
  EXPECT_EQ(extents[0].name, "Outer");
  EXPECT_EQ(extents[1].name, "Inner");
  EXPECT_EQ(extents[2].name, "Free");
  // Inner's body nests strictly inside Outer's.
  EXPECT_GT(extents[1].body_open, extents[0].body_open);
  EXPECT_LT(extents[1].body_close, extents[0].body_close);
}

TEST(FindClassExtentsTest, SkipsEnumsForwardDeclsAndElaboratedUses) {
  const std::vector<ClassExtent> extents = Extents(R"cc(
    enum class Color { kRed };
    class Fwd;
    class Fwd* MakeFwd();
    class Real : public Base<int>, private Other {
      int x;
    };
  )cc");
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0].name, "Real");
}

TEST(FindClassExtentsTest, NestedNameKeysByLastComponent) {
  const std::vector<ClassExtent> extents = Extents(R"cc(
    struct Pool::Work {
      int chunks;
    };
  )cc");
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents[0].name, "Work");
}

// ----------------------------------------------------- annotation index ----

TEST(AnnotationIndexTest, CollectsGuardedFieldsMutexesAndContracts) {
  const AnnotationIndex index = Index(R"cc(
    class Replica {
     public:
      void CutLocked() VSD_REQUIRES(mu_);
      void Process() VSD_EXCLUDES(mu_);
      void Lock() VSD_ACQUIRES(mu_);

     private:
      mutable std::mutex mu_;
      std::mutex idle_mu_;
      int pending_ VSD_GUARDED_BY(mu_) = 0;
      bool stop_ VSD_GUARDED_BY(mu_) = false;
    };
  )cc");
  const ClassAnnotations* cls = index.ForClass("Replica");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(cls->file, "src/x/c.cc");
  ASSERT_EQ(cls->guarded.size(), 2u);
  EXPECT_EQ(cls->guarded.at("pending_"), "Replica::mu_");
  EXPECT_EQ(cls->guarded.at("stop_"), "Replica::mu_");
  ASSERT_EQ(cls->mutexes.size(), 2u);
  EXPECT_EQ(cls->mutexes[0].name, "mu_");
  EXPECT_EQ(cls->mutexes[1].name, "idle_mu_");

  const MethodContract* cut = index.ContractFor("Replica", "CutLocked");
  ASSERT_NE(cut, nullptr);
  EXPECT_EQ(cut->requires_held.count("Replica::mu_"), 1u);
  const MethodContract* process = index.ContractFor("Replica", "Process");
  ASSERT_NE(process, nullptr);
  EXPECT_EQ(process->excludes.count("Replica::mu_"), 1u);
  const MethodContract* lock = index.ContractFor("Replica", "Lock");
  ASSERT_NE(lock, nullptr);
  EXPECT_EQ(lock->acquires.count("Replica::mu_"), 1u);
}

TEST(AnnotationIndexTest, ContractSurvivesTrailingSpecifiers) {
  const AnnotationIndex index = Index(R"cc(
    class C {
      int64_t NextLocked(int64_t now) const noexcept VSD_REQUIRES(mu_);
      std::mutex mu_;
      int n_ VSD_GUARDED_BY(mu_) = 0;
    };
  )cc");
  const MethodContract* contract = index.ContractFor("C", "NextLocked");
  ASSERT_NE(contract, nullptr);
  EXPECT_EQ(contract->requires_held.count("C::mu_"), 1u);
}

TEST(AnnotationIndexTest, OutOfClassDefinitionGetsTheClassContract) {
  const AnnotationIndex index = Index(R"cc(
    class C {
      void DrainLocked() VSD_REQUIRES(mu_);
      std::mutex mu_;
      int n_ VSD_GUARDED_BY(mu_) = 0;
    };
    void C::DrainLocked() { n_ += 1; }
  )cc");
  // The contract declared in the class applies to the out-of-class body:
  // qualifier lookup by last component.
  const MethodContract* contract = index.ContractFor("C", "DrainLocked");
  ASSERT_NE(contract, nullptr);
  EXPECT_EQ(contract->requires_held.count("C::mu_"), 1u);
}

TEST(AnnotationIndexTest, UnknownClassAndMethodReturnNull) {
  const AnnotationIndex index = Index("class C { int x; };");
  EXPECT_EQ(index.ForClass("Missing"), nullptr);
  EXPECT_EQ(index.ContractFor("C", "Missing"), nullptr);
}

// ---------------------------------------------------------- rule checks ----

TEST(CheckGuardedByTest, FindingNamesFieldLockAndFunction) {
  DataflowProgram program;
  program.AddFile("src/x/c.cc", Lex(R"cc(
    class Counter {
     public:
      int Peek() { return n_; }

     private:
      std::mutex mu_;
      int n_ VSD_GUARDED_BY(mu_) = 0;
    };
  )cc"));
  const AnnotationIndex index = BuildAnnotationIndex(program);
  const std::vector<Finding> findings = CheckGuardedBy(program, index);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "guarded-by");
  EXPECT_NE(findings[0].message.find("'n_'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("Counter::mu_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("Peek"), std::string::npos);
}

TEST(CheckGuardedByTest, GuardedAccessInOutOfClassBodyIsTracked) {
  DataflowProgram program;
  program.AddFile("src/x/c.h", Lex(R"cc(
    class Counter {
     public:
      void Inc();

     private:
      std::mutex mu_;
      int n_ VSD_GUARDED_BY(mu_) = 0;
    };
  )cc"));
  program.AddFile("src/x/c.cc", Lex(R"cc(
    void Counter::Inc() {
      std::lock_guard<std::mutex> lock(mu_);
      n_ += 1;
    }
  )cc"));
  const AnnotationIndex index = BuildAnnotationIndex(program);
  EXPECT_TRUE(CheckGuardedBy(program, index).empty());
}

// guarded-by and lock-order share one held-set walk, which counts a
// re-lock by name of a mutex a guard holds as one more hold: it outlives
// the guard's scope (a recursive mutex stays locked there) until an
// unlock() releases every hold of it.
TEST(CheckGuardedByTest, NamedRelockOutlivesItsGuardScope) {
  DataflowProgram program;
  program.AddFile("src/x/c.cc", Lex(R"cc(
    class Counter {
     public:
      void Inc() {
        {
          std::lock_guard<std::recursive_mutex> lock(mu_);
          mu_.lock();
        }
        n_ += 1;
        mu_.unlock();
        n_ += 2;
      }

     private:
      std::recursive_mutex mu_;
      int n_ VSD_GUARDED_BY(mu_) = 0;
    };
  )cc"));
  const AnnotationIndex index = BuildAnnotationIndex(program);
  const std::vector<Finding> findings = CheckGuardedBy(program, index);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 11);
}

TEST(CheckUnannotatedMutexTest, OnlySrcClassesWithZeroGuardedFieldsFlag) {
  DataflowProgram program;
  program.AddFile("src/x/c.cc", Lex(R"cc(
    class Bare { std::mutex mu_; int n_; };
    class Annotated {
      std::mutex mu_;
      std::mutex aux_mu_;
      int n_ VSD_GUARDED_BY(mu_) = 0;
    };
  )cc"));
  program.AddFile("tools/t.cc", Lex(R"cc(
    class ToolBare { std::mutex mu_; int n_; };
  )cc"));
  const AnnotationIndex index = BuildAnnotationIndex(program);
  const std::vector<Finding> findings = CheckUnannotatedMutex(index);
  // Bare's mu_ flags; Annotated has a guarded field (aux_mu_ rides along
  // as the class is covered); ToolBare is outside src/.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unannotated-mutex");
  EXPECT_EQ(findings[0].file, "src/x/c.cc");
  EXPECT_NE(findings[0].message.find("'Bare'"), std::string::npos);
}

TEST(CheckRefInvalidationTest, TensorStorageCountsAsContiguous) {
  DataflowProgram program;
  program.AddFile("src/x/c.cc", Lex(R"cc(
    void F() {
      Tensor t;
      float* data = &t.data[0];
      t.data.resize(16);
      data[0] = 1.0f;
    }
  )cc"));
  const std::vector<Finding> findings = CheckRefInvalidation(program);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "ref-invalidation");
}

}  // namespace
}  // namespace vsd::lint
