// Barrier synchronization on top of a shared counter — one of the two
// motivating applications in paper §1.1 (the other, load balancing, is in
// examples/load_balancing.cpp).
//
// Each arrival performs one Fetch&Increment; the value determines the
// arrival's phase (value / parties). The last arriver of a phase publishes
// the next epoch, never moving it backwards; everyone else waits on the
// epoch word (atomic::wait, or a util::sched_yield() loop in a
// CNET_SCHED_CHECK build, so the checker schedules the waiters). Any
// Counter works; with a counting-network counter the hot spot is the epoch
// broadcast, not the arrival counter.
#pragma once

#include <cstdint>
#include <memory>

#include "cnet/runtime/counter.hpp"
#include "cnet/util/atomic.hpp"
#include "cnet/util/cacheline.hpp"

namespace cnet::rt {

class CountingBarrier {
 public:
  // `parties` threads must call arrive_and_wait per phase; takes shared
  // ownership of the counter (which must start at value 0).
  CountingBarrier(std::shared_ptr<Counter> counter, std::size_t parties);

  // Blocks until all parties of the current phase arrived.
  // Returns the phase index that just completed (0-based).
  std::int64_t arrive_and_wait(std::size_t thread_hint);

  // The published epoch: every phase below it has completed and released
  // its waiters. Never decreases.
  std::int64_t completed_phases() const {
    return epoch_.value.load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<Counter> counter_;
  std::size_t parties_;
  util::Padded<util::Atomic<std::int64_t>> epoch_{};
};

}  // namespace cnet::rt
