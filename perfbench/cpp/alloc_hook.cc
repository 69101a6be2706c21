// Global operator new/delete of the traced binary only: while counting is
// on, adds up the bytes every allocation asks for, so the traced run can
// report what one Assign call allocates. Counting is off elsewhere, so the
// traced fit does not pay for a shared counter. The untraced binary keeps
// the default allocator.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocated{0};

void* Allocate(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocated.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size == 0 ? 1 : size);
  } else if (posix_memalign(&p, align, size == 0 ? 1 : size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

void CountAllocations(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t AllocatedBytes() {
  return g_allocated.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return Allocate(size, 0); }
void* operator new[](std::size_t size) { return Allocate(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<std::size_t>(align));
}
// The nothrow forms too (std::stable_sort's buffer uses them), so every
// allocation is released by the matching free below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return Allocate(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, align, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
