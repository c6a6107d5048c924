// Padded per-slot event tallies, shared by every counter backend that
// reports contention (CAS retries / lock waits) and, since the elimination
// layer, traversal counts. Threads scatter their updates across `slots`
// cache-line-padded atomics keyed by thread hint, so recording an event
// never becomes a contention point itself; full reads sum the slots and are
// expected to be rare (end-of-run reporting). The slot count is a power of
// two, so picking a slot is a mask, not a divide; by default it is two slots
// per core, rounded up (util/scatter.hpp), and hints beyond it share slots,
// which the sums already cover.
#pragma once

#include <cstdint>
#include <vector>

#include "cnet/util/atomic.hpp"
#include "cnet/util/bitops.hpp"
#include "cnet/util/cacheline.hpp"
#include "cnet/util/ensure.hpp"
#include "cnet/util/scatter.hpp"

namespace cnet::util {

class StallSlots {
 public:
  // The default width is util::scatter_slots(): two slots per core, rounded
  // up to a power of two.
  explicit StallSlots(std::size_t slots = scatter_slots())
      : slots_(slots), mask_(slots - 1) {
    CNET_REQUIRE(is_pow2(slots), "stall slot count must be a power of two");
  }

  void add(std::size_t thread_hint,
           std::uint64_t stalls) noexcept(!kSchedCheckEnabled) {
    if (stalls != 0) {
      slots_[thread_hint & mask_].value.fetch_add(stalls,
                                                  std::memory_order_relaxed);
    }
  }

  std::uint64_t total() const noexcept(!kSchedCheckEnabled) {
    std::uint64_t sum = 0;
    for (const auto& slot : slots_) {
      sum += slot.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  std::vector<Padded<Atomic<std::uint64_t>>> slots_;
  std::size_t mask_;
};

}  // namespace cnet::util
