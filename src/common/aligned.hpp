// Over-aligned allocator for hot read-only buffers.
//
// std::allocator only guarantees alignof(T), so where a kernel's operand
// lands relative to cache lines depends on the heap's state at allocation
// time — and the kernel's speed with it. AlignedAllocator pins the start of
// the buffer to an `Align`-byte boundary (64 = one cache line, one AVX-512
// vector), making that placement a property of the code instead of the run.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace reramdl {

template <typename T, std::size_t Align = 64>
struct AlignedAllocator {
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "Align must be a power of two no smaller than alignof(T)");
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Align}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Align});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
};

template <typename T, std::size_t Align = 64>
using AlignedVector = std::vector<T, AlignedAllocator<T, Align>>;

}  // namespace reramdl
