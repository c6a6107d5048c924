#include "cnet/runtime/barrier.hpp"

#include "cnet/util/ensure.hpp"

namespace cnet::rt {

CountingBarrier::CountingBarrier(std::shared_ptr<Counter> counter,
                                 std::size_t parties)
    : counter_(std::move(counter)), parties_(parties) {
  CNET_REQUIRE(counter_ != nullptr, "barrier needs a counter");
  CNET_REQUIRE(parties_ >= 1, "barrier needs at least one party");
}

std::int64_t CountingBarrier::arrive_and_wait(std::size_t thread_hint) {
  const std::int64_t ticket = counter_->fetch_increment(thread_hint);
  const std::int64_t phase = ticket / static_cast<std::int64_t>(parties_);
  const bool last =
      ticket % static_cast<std::int64_t>(parties_) ==
      static_cast<std::int64_t>(parties_) - 1;
  if (last) {
    // Publish max(epoch, phase + 1): with a counter whose values are not
    // linearizable (a counting network), a delayed last arriver of an
    // earlier phase may get here after a later phase's, and a plain store
    // would move the epoch back under that phase's waiters.
    std::int64_t seen = epoch_.value.load(std::memory_order_relaxed);
    while (seen <= phase &&
           !epoch_.value.compare_exchange_weak(seen, phase + 1,
                                               std::memory_order_release)) {
    }
    epoch_.value.notify_all();
  } else {
    std::int64_t seen = epoch_.value.load(std::memory_order_acquire);
    while (seen <= phase) {
      if constexpr (util::kSchedCheckEnabled) {
        util::sched_yield();
      } else {
        epoch_.value.wait(seen, std::memory_order_acquire);
      }
      seen = epoch_.value.load(std::memory_order_acquire);
    }
  }
  return phase;
}

}  // namespace cnet::rt
