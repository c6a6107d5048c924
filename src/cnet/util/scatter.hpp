// The scatter width of every per-thread slot array (util::SlotArray
// tallies and svc::ReconfigEngine reader counts). A thread picks its slot by
// masking its thread hint, not by the CPU it runs on, so hints h and
// h + width share a slot and contend whenever both threads run at once.
// The width is twice the host's CPU count, rounded up to a power of two
// and capped at kMaxScatterSlots, so up to two threads per core share no
// slot (one slot per core cost central-backend admits about a fifth of
// their rate with 8 threads on 4 CPUs), while each array stays a few
// cache lines instead of kMaxScatterSlots. Hints that share a slot stay
// correct: every reader of a slot array sums or scans all its slots.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "cnet/util/bitops.hpp"
#include "cnet/util/sched_point.hpp"

namespace cnet::util {

inline constexpr std::size_t kMaxScatterSlots = 64;

// The pure rule, for `cpus` reported CPUs. 0 means the count is unknown,
// which keeps the full width.
constexpr std::size_t scatter_slots_for(unsigned cpus) noexcept {
  if (cpus == 0) return kMaxScatterSlots;
  return std::min<std::size_t>(next_pow2(2 * std::uint64_t{cpus}),
                               kMaxScatterSlots);
}

// The rule applied to this host, computed once: libstdc++ answers
// hardware_concurrency() by reading sysfs, which must not run per
// construction. Under the schedule checker every slot a scan reads is one
// explored step, so the width is 2 to keep driver state spaces small.
inline std::size_t scatter_slots() noexcept {
  if constexpr (kSchedCheckEnabled) return 2;
  static const std::size_t slots =
      scatter_slots_for(std::thread::hardware_concurrency());
  return slots;
}

}  // namespace cnet::util
