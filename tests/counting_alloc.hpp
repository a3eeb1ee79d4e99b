// Global allocation counter for the zero-allocation tests. Include from
// exactly one translation unit per test binary: it replaces the global
// operator new/delete.
//
// Counting every allocation in the binary is crude but exact — each
// measured window contains nothing but the code under test. Every form is
// replaced, the nothrow ones included (std::stable_sort's temporary buffer
// uses them), so each allocation pairs with a free()-based delete and
// sanitizers see no alloc-dealloc mismatch.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<long> g_allocCount{0};
std::atomic<std::size_t> g_largestAlloc{0};  ///< largest single request

void* counted_malloc(std::size_t sz) noexcept {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  std::size_t prev = g_largestAlloc.load(std::memory_order_relaxed);
  while (sz > prev && !g_largestAlloc.compare_exchange_weak(prev, sz)) {
  }
  return std::malloc(sz ? sz : 1);
}

void* counted_new(std::size_t sz) {
  if (void* p = counted_malloc(sz)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t sz) { return counted_new(sz); }
void* operator new[](std::size_t sz) { return counted_new(sz); }
void* operator new(std::size_t sz, const std::nothrow_t&) noexcept {
  return counted_malloc(sz);
}
void* operator new[](std::size_t sz, const std::nothrow_t&) noexcept {
  return counted_malloc(sz);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
