// Cache-line / SIMD aligned storage for field data.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

namespace lqcd {

/// Alignment used for all field allocations. 64 bytes matches the KNC
/// cache line / vector register width the paper targets and is one full
/// cache line on x86 hosts.
inline constexpr std::size_t kFieldAlignment = 64;

/// Minimal C++17 aligned allocator so std::vector storage can be handed
/// directly to SIMD kernels without peeling loops.
template <class T, std::size_t Align = kFieldAlignment>
struct AlignedAllocator {
  using value_type = T;

  // The non-type Align parameter defeats allocator_traits' automatic
  // rebind deduction, so spell it out.
  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_alloc();
    void* p = std::aligned_alloc(Align, round_up(n * sizeof(T)));
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <class U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
  template <class U>
  bool operator!=(const AlignedAllocator<U, Align>&) const noexcept {
    return false;
  }

 private:
  // std::aligned_alloc requires size to be a multiple of the alignment.
  static std::size_t round_up(std::size_t bytes) noexcept {
    return (bytes + Align - 1) / Align * Align;
  }
};

template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace lqcd

/// Portable "vectorize this loop" hint for the unit-stride lane kernels.
/// Expands to `#pragma omp simd` when OpenMP is enabled; otherwise to
/// nothing (plain `#pragma omp` would trip -Wunknown-pragmas under
/// -Werror on non-OpenMP builds).
#if defined(_OPENMP)
#define LQCD_PRAGMA_SIMD _Pragma("omp simd")
#else
#define LQCD_PRAGMA_SIMD
#endif
