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
//
// The default counting-network shape follows the host the same way (see
// counting_shape_for below).
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

// Shape C(width_in, width_out) of the default counting network.
struct CountingShape {
  std::size_t width_in;
  std::size_t width_out;
};

// The widest default network: the repo's workhorse C(8,24).
inline constexpr std::size_t kMaxDefaultCountingWidth = 8;

// The pure rule, for `cpus` reported CPUs: w = clamp(next_pow2(cpus), 2, 8)
// and t = w·lg w, the paper's C(w, w·lg w) family. Depth (lg²w + lg w)/2
// depends on w alone (Theorem 4.1), and the 4·lg²w + lg w term of the
// Theorem 6.7 contention bound dominates while few processes run, so a
// host with few CPUs gets a shallower network: C(4,8) on 3–4 CPUs has half
// the depth of C(8,24) and 8 balancers instead of 48. 0 means the count is
// unknown, which keeps C(8,24).
constexpr CountingShape counting_shape_for(unsigned cpus) noexcept {
  const std::size_t w =
      cpus == 0 ? kMaxDefaultCountingWidth
                : std::clamp<std::size_t>(next_pow2(cpus), 2,
                                          kMaxDefaultCountingWidth);
  return {w, w * ilog2(w)};
}

// The rule applied to this host, computed once. Under the schedule checker
// the shape stays C(8,24), so driver state spaces do not follow the host.
inline CountingShape counting_shape() noexcept {
  if constexpr (kSchedCheckEnabled) return counting_shape_for(0);
  static const CountingShape shape =
      counting_shape_for(std::thread::hardware_concurrency());
  return shape;
}

}  // namespace cnet::util
