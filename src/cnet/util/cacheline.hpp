// Cache-line padding utilities (Core Guidelines CP.31 locality notes):
// shared atomics that different threads update concurrently are placed on
// distinct cache lines to avoid false sharing.
//
// util is the one place that aligns memory. Every padded block built at
// set-up (slot lines, balancer nodes, tenant and ID-cache tables) comes
// from a LineBlock: plain ::operator new with one line of slack, the first
// line aligned by hand. The aligned operator new (std::align_val_t) costs
// three to four times a plain allocation of the same size under glibc, and
// a warm quota or cluster build makes dozens of these blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>

#include "cnet/util/ensure.hpp"

namespace cnet::util {

// Fixed rather than std::hardware_destructive_interference_size: the value
// participates in the library ABI and GCC warns that the std constant can
// drift with -mtune. 64 bytes is correct for every x86-64 and most AArch64.
inline constexpr std::size_t kCacheLine = 64;

// A value padded out to its own cache line.
template <class T>
struct alignas(kCacheLine) Padded {
  T value{};
};

// Raw storage for `count` objects of `size` bytes each (a whole number of
// cache lines), starting at the cache-line boundary first(). Owns the
// allocation and frees the pointer operator new returned.
class LineBlock {
 public:
  LineBlock(std::size_t count, std::size_t size)
      : raw_(allocate(count, size)) {}

  std::byte* first() const noexcept {
    const auto at = reinterpret_cast<std::uintptr_t>(raw_.get());
    return static_cast<std::byte*>(raw_.get()) + (-at & (kCacheLine - 1));
  }

 private:
  struct Free {
    void operator()(void* raw) const noexcept { ::operator delete(raw); }
  };

  static void* allocate(std::size_t count, std::size_t size) {
    CNET_REQUIRE(
        count <= (std::numeric_limits<std::size_t>::max() - kCacheLine) / size,
        "line block too large");
    return ::operator new(count * size + kCacheLine);
  }

  std::unique_ptr<void, Free> raw_;
};

// A fixed-length array of padded elements in one LineBlock: `size`
// value-initialized elements on construction, destroyed on destruction.
template <class T>
class LineArray {
  static_assert(alignof(T) == kCacheLine && sizeof(T) % kCacheLine == 0,
                "elements are padded cache lines");

 public:
  explicit LineArray(std::size_t size)
      : block_(size, sizeof(T)),
        data_(construct(block_.first(), size)),
        size_(size) {}
  ~LineArray() { std::destroy_n(data_, size_); }

  LineArray(const LineArray&) = delete;
  LineArray& operator=(const LineArray&) = delete;

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  std::size_t size() const noexcept { return size_; }
  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

 private:
  static T* construct(std::byte* at, std::size_t size) {
    std::uninitialized_value_construct_n(reinterpret_cast<T*>(at), size);
    return std::launder(reinterpret_cast<T*>(at));
  }

  LineBlock block_;
  T* data_;
  std::size_t size_;
};

}  // namespace cnet::util
