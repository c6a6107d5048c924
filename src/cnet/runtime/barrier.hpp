// Barrier synchronization on top of a shared counter — one of the two
// motivating applications in paper §1.1.
//
// Each arrival performs one Fetch&Increment. The participant's own arrival
// count gives the arrival's phase; the ticket only decides who publishes:
// the holder of a ticket ≡ parties − 1 (mod parties) publishes the next
// epoch, ticket / parties + 1, never moving it backwards. Everyone else
// waits on the epoch word (atomic::wait, or a util::sched_yield() loop in
// a CNET_SCHED_CHECK build, so the checker schedules the waiters).
//
// This needs only that value v is never handed out before v + 1 tokens
// have entered the counter, which every Counter here gives, counting
// networks included (their values are quiescently consistent, not
// linearizable). No phase-(r+1) arrival can enter before phase r is
// released, so the first publish of r + 1 takes (r+1)·parties entered
// tokens — every arrival of phases 0..r. Taking the phase from the ticket
// instead would be wrong: a phase-(r+1) token may overtake a phase-r token
// still in the network and take a phase-r ticket. With a counting-network
// counter the hot spot is the epoch broadcast, not the arrival counter.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cnet/runtime/counter.hpp"
#include "cnet/util/atomic.hpp"
#include "cnet/util/cacheline.hpp"

namespace cnet::rt {

class CountingBarrier {
 public:
  // `parties` threads must call arrive_and_wait per phase; takes shared
  // ownership of the counter (which must start at value 0).
  CountingBarrier(std::shared_ptr<Counter> counter, std::size_t parties);

  // Blocks until all parties of the caller's current phase arrived.
  // `thread_hint` in [0, parties) names the participant, and each
  // participant arrives from one thread at a time. Returns the phase index
  // that just completed (0-based): the participant's own arrival count.
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
  // Per participant: its arrivals so far, which is the phase of its next
  // arrival. Only the participant itself touches its entry.
  std::vector<std::int64_t> arrivals_;
};

}  // namespace cnet::rt
