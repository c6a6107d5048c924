#include "cnet/runtime/barrier.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "cnet/core/counting.hpp"
#include "cnet/runtime/central.hpp"
#include "cnet/runtime/network_counter.hpp"

namespace cnet::rt {
namespace {

TEST(Barrier, RejectsBadArguments) {
  EXPECT_THROW(CountingBarrier(nullptr, 2), std::invalid_argument);
  EXPECT_THROW(CountingBarrier(std::make_shared<AtomicCounter>(), 0),
               std::invalid_argument);
}

TEST(Barrier, SinglePartyNeverBlocks) {
  CountingBarrier barrier(std::make_shared<AtomicCounter>(), 1);
  for (std::int64_t phase = 0; phase < 10; ++phase) {
    EXPECT_EQ(barrier.arrive_and_wait(0), phase);
  }
}

// The barrier property: no thread may enter phase k+1 before every thread
// finished phase k. We detect violations with a per-phase arrival count.
void run_phase_discipline_test(std::shared_ptr<Counter> counter) {
  constexpr std::size_t kParties = 6;
  constexpr std::int64_t kPhases = 50;
  CountingBarrier barrier(std::move(counter), kParties);
  std::atomic<std::int64_t> in_phase[kPhases + 1] = {};
  std::atomic<bool> violation{false};

  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kParties; ++t) {
      workers.emplace_back([&, t] {
        for (std::int64_t phase = 0; phase < kPhases; ++phase) {
          in_phase[phase].fetch_add(1);
          const std::int64_t completed = barrier.arrive_and_wait(t);
          if (completed != phase) violation.store(true);
          // After the barrier, every party must have entered this phase.
          if (in_phase[phase].load() != kParties) violation.store(true);
        }
      });
    }
  }
  EXPECT_FALSE(violation.load());
  for (std::int64_t phase = 0; phase < kPhases; ++phase) {
    EXPECT_EQ(in_phase[phase].load(), static_cast<std::int64_t>(kParties));
  }
}

TEST(Barrier, PhaseDisciplineWithAtomicCounter) {
  run_phase_discipline_test(std::make_shared<AtomicCounter>());
}

TEST(Barrier, PhaseDisciplineWithCountingNetwork) {
  run_phase_discipline_test(std::make_shared<NetworkCounter>(
      core::make_counting(4, 8), "C(4,8)"));
}

TEST(Barrier, PhaseDisciplineWithMutexCounter) {
  run_phase_discipline_test(std::make_shared<MutexCounter>());
}

// Hands out a fixed script of tickets, in call order: a counting network's
// values need not come out in arrival order, and this replays one such
// order deterministically.
class ScriptedCounter final : public Counter {
 public:
  explicit ScriptedCounter(std::vector<std::int64_t> script)
      : script_(std::move(script)) {}

  std::int64_t fetch_increment(std::size_t) override {
    const std::lock_guard lock(mu_);
    return script_.at(next_++);
  }
  std::string name() const override { return "scripted"; }

 private:
  std::mutex mu_;
  std::vector<std::int64_t> script_;
  std::size_t next_ = 0;
};

// The last arriver of phase 1 (ticket 3) publishes first; the last arriver
// of phase 0 (ticket 1) comes late. The epoch must not move back, or the
// phase-1 waiter (ticket 2) sleeps for good. Ticket 5 completes phase 2 so
// the waiter always joins, even when the epoch did move back.
TEST(Barrier, LateLastArriverOfEarlierPhaseKeepsEpochMonotone) {
  CountingBarrier barrier(
      std::make_shared<ScriptedCounter>(std::vector<std::int64_t>{3, 1, 2, 5}),
      2);
  EXPECT_EQ(barrier.arrive_and_wait(0), 1);
  EXPECT_EQ(barrier.arrive_and_wait(1), 0);
  std::promise<std::int64_t> waited;
  std::future<std::int64_t> result = waited.get_future();
  std::jthread waiter(
      [&] { waited.set_value(barrier.arrive_and_wait(0)); });
  const bool returned =
      result.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  EXPECT_TRUE(returned) << "the phase-1 waiter slept: the epoch moved back";
  EXPECT_EQ(barrier.arrive_and_wait(1), 2);
  EXPECT_EQ(result.get(), 1);
}

}  // namespace
}  // namespace cnet::rt
