// Per-thread-hint slot lines: every object that keeps per-hint state keeps
// it in one array of cache-line-padded lines, each line holding N 64-bit
// fields. Threads scatter their updates across the lines by thread hint, so
// recording an event never becomes a contention point itself, and the
// fields one operation touches (a reconfig reader count and the owner's
// tallies beside it) land on one line. Full reads sum one field over every
// line and are expected to be rare (end-of-run reporting, a commit's
// quiescence scan). The line count is a power of two, so picking a line is
// a mask, not a divide; by default it is two lines per core, rounded up
// (util/scatter.hpp), and hints beyond it share lines, which the sums
// already cover.
//
// An owner with padded per-object lines of its own (a network counter's
// exit cells) places them ahead of the slot lines as `Head` lines, so the
// whole block is one zeroed util::LineBlock: a plain allocation whose first
// line is aligned by hand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#include "cnet/util/atomic.hpp"
#include "cnet/util/bitops.hpp"
#include "cnet/util/cacheline.hpp"
#include "cnet/util/ensure.hpp"
#include "cnet/util/scatter.hpp"

namespace cnet::util {

template <std::size_t N>
struct alignas(kCacheLine) SlotLine {
  static_assert(N >= 1 && N * sizeof(Atomic<std::uint64_t>) <= kCacheLine,
                "a slot line holds one to eight 64-bit fields");
  Atomic<std::uint64_t> field[N];
};

template <std::size_t N, class Head = void>
class SlotArray {
 public:
  using Line = SlotLine<N>;
  using HeadLine = std::conditional_t<std::is_void_v<Head>, Line, Head>;
  static_assert(sizeof(HeadLine) == kCacheLine &&
                    alignof(HeadLine) == kCacheLine,
                "head lines are padded cache lines");
  static_assert(std::is_trivially_destructible_v<Line> &&
                    std::is_trivially_destructible_v<HeadLine>,
                "the block is freed without running destructors");

  // `slots` zeroed lines; the default width is util::scatter_slots().
  explicit SlotArray(std::size_t slots = scatter_slots())
    requires std::is_void_v<Head>
      : SlotArray(0, slots, Tag{}) {}
  // `heads` value-initialized head lines, then `slots` zeroed lines.
  SlotArray(std::size_t heads, std::size_t slots)
    requires(!std::is_void_v<Head>)
      : SlotArray(heads, slots, Tag{}) {}

  void add(std::size_t field, std::size_t thread_hint,
           std::uint64_t v) noexcept(!kSchedCheckEnabled) {
    if (v != 0) {
      line(thread_hint).field[field].fetch_add(v, std::memory_order_relaxed);
    }
  }

  std::uint64_t total(std::size_t field) const
      noexcept(!kSchedCheckEnabled) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i <= mask_; ++i) {
      sum += lines_[i].field[field].load(std::memory_order_relaxed);
    }
    return sum;
  }

  // The line `thread_hint` scatters to; line(i) for i < size() is line i.
  Line& line(std::size_t thread_hint) noexcept {
    return lines_[thread_hint & mask_];
  }
  std::size_t size() const noexcept { return mask_ + 1; }

  HeadLine& head(std::size_t i) noexcept
    requires(!std::is_void_v<Head>)
  {
    return heads_[i];
  }
  const HeadLine& head(std::size_t i) const noexcept
    requires(!std::is_void_v<Head>)
  {
    return heads_[i];
  }

 private:
  struct Tag {};

  SlotArray(std::size_t heads, std::size_t slots, Tag)
      : block_(heads + checked(slots), kCacheLine), mask_(slots - 1) {
    std::byte* at = block_.first();
    std::uninitialized_value_construct_n(reinterpret_cast<HeadLine*>(at),
                                         heads);
    heads_ = std::launder(reinterpret_cast<HeadLine*>(at));
    at += heads * kCacheLine;
    std::uninitialized_value_construct_n(reinterpret_cast<Line*>(at), slots);
    lines_ = std::launder(reinterpret_cast<Line*>(at));
  }

  static std::size_t checked(std::size_t slots) {
    CNET_REQUIRE(is_pow2(slots), "slot count must be a power of two");
    return slots;
  }

  LineBlock block_;
  HeadLine* heads_ = nullptr;
  Line* lines_ = nullptr;
  std::size_t mask_;
};

}  // namespace cnet::util
