#ifndef VSD_LINT_ANNOTATIONS_H_
#define VSD_LINT_ANNOTATIONS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/dataflow.h"
#include "lint/lexer.h"
#include "lint/lint.h"

/// Annotation-enforced thread-safety and reference-invalidation analyses,
/// built on the dataflow engine (lint/dataflow.h). The annotation macros
/// themselves live in src/common/annotations.h and expand to nothing; this
/// module reads them back out of the token stream:
///
///  * guarded-by         — every read/write of a VSD_GUARDED_BY(mu) field
///                         must happen with mu held (guard declaration,
///                         manual lock/unlock window, or VSD_REQUIRES on
///                         the enclosing function); resolvable calls to
///                         VSD_REQUIRES functions without the lock, or to
///                         VSD_EXCLUDES functions with it, are findings.
///  * unannotated-mutex  — a std::mutex member in src/ whose class has no
///                         VSD_GUARDED_BY fields guards nothing the linter
///                         can check; annotate or allow() with a reason.
///  * ref-invalidation   — a reference/pointer/iterator bound directly
///                         into vector or Tensor storage (`v[i]`, `&v[i]`,
///                         `v.data()`, `v.back()`) that stays live across a
///                         mutating call on the same container
///                         (push_back/resize/Append/clear/...). A binding
///                         made through an accessor call, the shape of the
///                         Conv2d::BuildGraph use-after-free
///                         (`builder->node(x).shape`), is not tracked:
///                         ASan catches it in graph_exec_test.
namespace vsd::lint {

/// One class/struct body recovered from the token stream. `name` is the
/// last component for nested definitions (`struct Outer::Inner`). Nested
/// extents all appear; innermost-containing wins for attribution.
struct ClassExtent {
  std::string name;
  int line = 0;
  size_t body_open = 0;   ///< Token index of the class body '{'.
  size_t body_close = 0;  ///< Token index of the matching '}'.
};

/// All class/struct definitions in a token stream (skips `enum class`,
/// forward declarations, and elaborated type specifiers).
std::vector<ClassExtent> FindClassExtents(const std::vector<Token>& toks);

/// Lock contract on one member function, parsed from trailing
/// VSD_REQUIRES/VSD_EXCLUDES annotations. Lock names are canonical
/// ("Replica::mu_").
struct MethodContract {
  std::set<std::string> requires_held;  ///< Caller must hold these.
  std::set<std::string> excludes;       ///< Caller must NOT hold these.
};

struct MutexMember {
  std::string name;
  int line = 0;
};

/// Everything annotation-relevant about one class.
struct ClassAnnotations {
  std::string file;  ///< File the class body was found in.
  int line = 0;
  /// Field name -> canonical lock id required to touch it.
  std::map<std::string, std::string> guarded;
  /// Mutex-typed members (std::mutex / shared_mutex / recursive_mutex...).
  std::vector<MutexMember> mutexes;
  /// Method name -> lock contract.
  std::map<std::string, MethodContract> methods;
};

/// Whole-program index of annotations, keyed by class name. Classes with
/// the same name in different files merge (same policy as call resolution:
/// the tree keeps class names unique).
class AnnotationIndex {
 public:
  void AddFile(const std::string& path, const std::vector<Token>& toks);

  /// Annotations for `cls` (bare class name), or nullptr.
  const ClassAnnotations* ForClass(const std::string& cls) const;

  /// Contract for qualifier::name (qualifier matched by last component),
  /// or nullptr when the method carries no annotation.
  const MethodContract* ContractFor(const std::string& qualifier,
                                    const std::string& name) const;

  const std::map<std::string, ClassAnnotations>& classes() const {
    return classes_;
  }

 private:
  std::map<std::string, ClassAnnotations> classes_;
};

/// Index over every file already registered in `program`.
AnnotationIndex BuildAnnotationIndex(const DataflowProgram& program);

/// The guarded-by rule (see file comment).
std::vector<Finding> CheckGuardedBy(const DataflowProgram& program,
                                    const AnnotationIndex& index);

/// The unannotated-mutex rule: one finding per mutex member, at the mutex
/// declaration line, for src/ classes with zero VSD_GUARDED_BY fields.
std::vector<Finding> CheckUnannotatedMutex(const AnnotationIndex& index);

/// The ref-invalidation rule (see file comment).
std::vector<Finding> CheckRefInvalidation(const DataflowProgram& program);

}  // namespace vsd::lint

#endif  // VSD_LINT_ANNOTATIONS_H_
