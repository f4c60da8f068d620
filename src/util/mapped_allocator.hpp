// Page-mapped allocator for large, long-lived tables.
//
// glibc's malloc serves a request of 128 KiB or more with its own mmap, but
// after the first such block is freed it raises that threshold to the
// block's size (up to 32 MiB), so from then on same-sized requests come from
// the brk heap. Heap blocks that are freed stay resident, and where the next
// one lands depends on every small allocation made in between: compiling a
// 33 MB kernel once per batch left the process's peak RSS anywhere from
// +0 to +6 MB, run to run. MappedAllocator hands blocks of kMinMappedBytes
// or more straight to mmap/munmap, which keeps them out of malloc's
// bookkeeping: their pages go back to the OS on free, and the peak RSS is
// the sum of what is live. Smaller blocks use operator new as usual.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <vector>

namespace circles::util {

/// Smallest block MappedAllocator maps directly (glibc's default mmap
/// threshold).
inline constexpr std::size_t kMinMappedBytes = std::size_t{1} << 17;

template <typename T>
struct MappedAllocator {
  using value_type = T;

  MappedAllocator() = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}

  T* allocate(std::size_t count) {
    if (count > static_cast<std::size_t>(-1) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    const std::size_t bytes = count * sizeof(T);
    if (bytes < kMinMappedBytes) {
      return static_cast<T*>(::operator new(bytes));
    }
    void* block = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (block == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_HUGEPAGE
    // Fresh pages fault in one by one, where a recycled heap block would
    // already be resident; 2 MiB pages cut that cost about in half (a
    // 33 MB kernel: ~25 -> ~12 ms). Advisory: without THP nothing changes.
    ::madvise(block, bytes, MADV_HUGEPAGE);
#endif
    return static_cast<T*>(block);
  }

  void deallocate(T* block, std::size_t count) noexcept {
    const std::size_t bytes = count * sizeof(T);
    if (bytes < kMinMappedBytes) {
      ::operator delete(block);
    } else {
      ::munmap(block, bytes);
    }
  }

  template <typename U>
  bool operator==(const MappedAllocator<U>&) const noexcept {
    return true;
  }
};

/// A std::vector whose large buffers are page-mapped.
template <typename T>
using MappedVector = std::vector<T, MappedAllocator<T>>;

}  // namespace circles::util
