#ifndef VSD_COMMON_ANNOTATIONS_H_
#define VSD_COMMON_ANNOTATIONS_H_

/// Thread-safety annotation macros, enforced by `vsd_lint` (rules
/// `guarded-by` and `unannotated-mutex`, src/lint/annotations.h) rather
/// than by the compiler: the macros expand to nothing, so they cost zero
/// at compile time and work on every toolchain, while the linter reads
/// them back out of the token stream and checks every access against them
/// whole-program. See docs/INTERNALS.md "Thread-safety annotations" for
/// the recipe.
///
///   class Counter {
///    public:
///     void Add() {
///       std::lock_guard<std::mutex> lock(mu_);
///       ++count_;  // ok: mu_ held
///     }
///
///    private:
///     void BumpLocked() VSD_REQUIRES(mu_);   // caller must hold mu_
///     std::mutex mu_;
///     int64_t count_ VSD_GUARDED_BY(mu_) = 0;
///   };
///
/// Unlike clang's `__attribute__((guarded_by(...)))` family these are not
/// tied to -Wthread-safety, so they work under GCC too. Lock-order
/// deadlocks are left to ThreadSanitizer, which reports an inversion on
/// any schedule that takes both orders.

/// On a data member: every read or write must happen while `mu` is held
/// (via a lock guard, a manual lock()/unlock() window, or a
/// `VSD_REQUIRES(mu)` contract on the enclosing function).
#define VSD_GUARDED_BY(mu)

/// On a member function: the caller must already hold `mu` when calling.
/// The function body is checked as if `mu` were held on entry, and every
/// resolvable call site is checked for actually holding it.
#define VSD_REQUIRES(mu)

/// On a member function: the caller must NOT hold `mu` (the function
/// acquires it itself; calling with `mu` held self-deadlocks a
/// non-recursive mutex).
#define VSD_EXCLUDES(mu)

#endif  // VSD_COMMON_ANNOTATIONS_H_
