// Replaces the global operator new/delete with malloc/free wrappers that
// count every allocation. Linked only into the allocation-gate test
// binary (see CMakeLists.txt): a replaced operator new applies to the
// whole program it is linked into, so it must never reach the library.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "alloc_counter.h"

namespace {

std::atomic<int64_t> allocations{0};

void* CountedAlloc(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t alignment = static_cast<std::size_t>(align);
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) == 0) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace fastcommit::test_support {

int64_t AllocationCount() {
  return allocations.load(std::memory_order_relaxed);
}

}  // namespace fastcommit::test_support

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
