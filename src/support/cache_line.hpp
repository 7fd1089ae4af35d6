// Cache-line placement for per-shard hot state.
//
// A sharded server builds every shard's manager, content source and
// summary accumulator on the control thread, one after another, and then
// each worker thread writes its own shards' state every step. Whether two
// shards' state lands on one cache line depends on what the heap held
// before, so throughput moved with unrelated setup code. State written per
// step is therefore kept on lines of its own: its classes are aligned to
// kCacheLineBytes, and its small per-task arrays use CacheLineVector.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace speedqm {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Allocates whole, aligned cache lines, so no other object shares one.
template <class T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t lines =
        (n * sizeof(T) + kCacheLineBytes - 1) / kCacheLineBytes;
    return static_cast<T*>(::operator new(
        lines * kCacheLineBytes, std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  template <class U>
  bool operator==(const CacheLineAllocator<U>&) const noexcept {
    return true;
  }
  template <class U>
  bool operator!=(const CacheLineAllocator<U>&) const noexcept {
    return false;
  }
};

template <class T>
using CacheLineVector = std::vector<T, CacheLineAllocator<T>>;

}  // namespace speedqm
