#pragma once

// A std::vector whose resize leaves new scalar elements unset.

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace gg {

/// std::allocator whose value-initialising construct() default-initialises
/// instead, so resize(n) of a vector of scalars leaves the new elements
/// unset: the parallel pass that writes every element touches the memory
/// first, instead of a serial zero-fill.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A per-row array that one pass writes in full after sizing it.
template <class T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace gg
