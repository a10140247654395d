// Counting replacements for the global allocation functions. This TU is
// deliberately NOT part of vsd_common: linking it into a binary replaces
// `operator new` process-wide, which only allocation-regression tests
// should do (tests/CMakeLists.txt adds it to graph_exec_test). Every
// allocation bumps the counter in alloc_stats.h; the underlying storage
// still comes from malloc/free, so sanitizer interception keeps working.
#include <cstdlib>
#include <new>

#include "common/alloc_stats.h"

namespace {

[[maybe_unused]] const bool kHookMarked =
    (vsd::internal::MarkAllocHookInstalled(), true);

/// Counted allocations return null on failure; the throwing forms wrap
/// them in OrThrow.
void* CountedAlloc(std::size_t size) {
  vsd::internal::RecordAlloc();
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  vsd::internal::RecordAlloc();
  void* ptr = nullptr;
  const auto bytes = static_cast<std::size_t>(align);
  if (posix_memalign(&ptr, bytes, size == 0 ? bytes : size) != 0) {
    return nullptr;
  }
  return ptr;
}

void* OrThrow(void* ptr) {
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

// All twenty replaceable forms are defined here. A form left out resolves
// to the runtime's (ASan's, in a sanitizer build), which allocates past
// the counter; ASan then sees our free()-based delete release that memory
// and aborts with alloc-dealloc-mismatch (std::stable_sort takes its
// temporary buffer from the nothrow new).
void* operator new(std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new[](std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new(std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(ptr);
}
