// Barrier synchronization on top of a shared counter — one of the two
// motivating applications in paper §1.1 (the other, load balancing, is in
// examples/load_balancing.cpp).
//
// Each arrival performs one Fetch&Increment; the value determines the
// arrival's phase (value / parties). The last arriver of a phase publishes
// the next epoch, never moving it backwards; everyone else spins on the
// epoch word. Any Counter works; with a counting-network counter the hot
// spot is the epoch broadcast, not the arrival counter.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "cnet/runtime/counter.hpp"
#include "cnet/util/cacheline.hpp"

namespace cnet::rt {

class CountingBarrier {
 public:
  // `parties` threads must call arrive_and_wait per phase; takes shared
  // ownership of the counter (which must start at value 0).
  CountingBarrier(std::shared_ptr<Counter> counter, std::size_t parties);

  // Blocks (spin + yield) until all parties of the current phase arrived.
  // Returns the phase index that just completed (0-based).
  std::int64_t arrive_and_wait(std::size_t thread_hint);

 private:
  std::shared_ptr<Counter> counter_;
  std::size_t parties_;
  util::Padded<std::atomic<std::int64_t>> epoch_{};
};

}  // namespace cnet::rt
