#include "cnet/runtime/barrier.hpp"

#include "cnet/util/ensure.hpp"

namespace cnet::rt {

CountingBarrier::CountingBarrier(std::shared_ptr<Counter> counter,
                                 std::size_t parties)
    : counter_(std::move(counter)), parties_(parties), arrivals_(parties) {
  CNET_REQUIRE(counter_ != nullptr, "barrier needs a counter");
  CNET_REQUIRE(parties_ >= 1, "barrier needs at least one party");
}

std::int64_t CountingBarrier::arrive_and_wait(std::size_t thread_hint) {
  CNET_REQUIRE(thread_hint < parties_, "participant out of range");
  const std::int64_t phase = arrivals_[thread_hint]++;
  const std::int64_t ticket = counter_->fetch_increment(thread_hint);
  const auto parties = static_cast<std::int64_t>(parties_);
  if (ticket % parties == parties - 1) {
    // Publish max(epoch, ticket / parties + 1). The first publish of an
    // epoch already needs every arrival of the phases below it, and a
    // publish never moves the epoch back.
    const std::int64_t next = ticket / parties + 1;
    std::int64_t seen = epoch_.value.load(std::memory_order_relaxed);
    while (seen < next &&
           !epoch_.value.compare_exchange_weak(seen, next,
                                               std::memory_order_release)) {
    }
    epoch_.value.notify_all();
  }
  std::int64_t seen = epoch_.value.load(std::memory_order_acquire);
  while (seen <= phase) {
    if constexpr (util::kSchedCheckEnabled) {
      util::sched_yield();
    } else {
      epoch_.value.wait(seen, std::memory_order_acquire);
    }
    seen = epoch_.value.load(std::memory_order_acquire);
  }
  return phase;
}

}  // namespace cnet::rt
