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
// order deterministically. A ticket v stands for a token that left the
// network after at least v + 1 tokens entered it; the tokens of arrivals
// that call later count as entered but still in flight.
class ScriptedCounter final : public Counter {
 public:
  explicit ScriptedCounter(std::vector<std::int64_t> script)
      : script_(std::move(script)) {}

  void fetch_increment_batch(std::size_t, std::size_t k,
                             std::int64_t* out_values) override {
    const std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < k; ++i) {
      const std::int64_t v = script_.at(next_++);
      if (out_values != nullptr) out_values[i] = v;
    }
  }
  std::string name() const override { return "scripted"; }

  // Tickets handed out so far.
  std::size_t calls() {
    const std::lock_guard lock(mu_);
    return next_;
  }

 private:
  std::mutex mu_;
  std::vector<std::int64_t> script_;
  std::size_t next_ = 0;
};

// Waits up to two seconds for `calls` tickets to have been handed out.
bool await_calls(ScriptedCounter& counter, std::size_t calls) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (counter.calls() < calls) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// A legal order of two rounds of two parties. Participant 1 takes ticket 0
// and sleeps; participant 0, the last arriver of phase 0, publishes late,
// under that sleeper. In phase 1 participant 1 takes ticket 3 (participant
// 0's phase-1 token has entered and is still in flight) and publishes
// before participant 0 takes ticket 2. The epoch only ever moves forward,
// and each arrival returns its own phase.
TEST(Barrier, LateLastArriverOfEarlierPhaseKeepsEpochMonotone) {
  auto counter =
      std::make_shared<ScriptedCounter>(std::vector<std::int64_t>{0, 1, 3, 2});
  CountingBarrier barrier(counter, 2);
  std::promise<std::int64_t> waited;
  std::future<std::int64_t> result = waited.get_future();
  std::jthread sleeper(
      [&] { waited.set_value(barrier.arrive_and_wait(1)); });
  ASSERT_TRUE(await_calls(*counter, 1));
  EXPECT_EQ(barrier.completed_phases(), 0);
  EXPECT_EQ(barrier.arrive_and_wait(0), 0);
  EXPECT_EQ(barrier.completed_phases(), 1);
  const bool returned =
      result.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  ASSERT_TRUE(returned) << "the phase-0 sleeper was never released";
  EXPECT_EQ(result.get(), 0);
  EXPECT_EQ(barrier.arrive_and_wait(1), 1);
  EXPECT_EQ(barrier.completed_phases(), 2);
  EXPECT_EQ(barrier.arrive_and_wait(0), 1);
  EXPECT_EQ(barrier.completed_phases(), 2);
}

// The overtaking order: participant 1's phase-0 token is still in the
// network when participant 0, already released from phase 0 by ticket 1,
// sends its phase-1 token past it and takes ticket 0. Participant 1 then
// takes tickets 2 and 3. Each arrival's phase is its participant's own
// arrival count, so participant 0's second arrival waits for phase 1 and
// participant 1's first arrival returns at once. A barrier that takes the
// phase from ticket / parties gets both wrong: participant 0's second
// arrival returns phase 0 at once, and participant 1's first waits for a
// phase-1 publish that never comes. Extra tickets let this test rescue
// that sleeper by arriving as participant 0, so every thread joins.
TEST(Barrier, PhaseComesFromTheParticipantNotTheTicket) {
  auto counter = std::make_shared<ScriptedCounter>(
      std::vector<std::int64_t>{1, 0, 2, 3, 4, 5, 6, 7});
  CountingBarrier barrier(counter, 2);
  std::int64_t phases0[2] = {-1, -1};
  std::int64_t phases1[2] = {-1, -1};
  std::promise<void> done0, done1;
  std::future<void> joined0 = done0.get_future();
  std::future<void> joined1 = done1.get_future();
  std::jthread p0([&] {
    for (std::int64_t& phase : phases0) phase = barrier.arrive_and_wait(0);
    done0.set_value();
  });
  ASSERT_TRUE(await_calls(*counter, 2));
  std::jthread p1([&] {
    for (std::int64_t& phase : phases1) phase = barrier.arrive_and_wait(1);
    done1.set_value();
  });
  while (joined1.wait_for(std::chrono::seconds(2)) !=
         std::future_status::ready) {
    ADD_FAILURE() << "participant 1 sleeps on a phase it already completed";
    (void)barrier.arrive_and_wait(0);
  }
  ASSERT_EQ(joined0.wait_for(std::chrono::seconds(2)),
            std::future_status::ready);
  EXPECT_EQ(phases0[0], 0);
  EXPECT_EQ(phases0[1], 1) << "participant 0 left phase 1 before it ended";
  EXPECT_EQ(phases1[0], 0);
  EXPECT_EQ(phases1[1], 1);
  EXPECT_EQ(barrier.completed_phases(), 2);
}

TEST(Barrier, RejectsAParticipantOutOfRange) {
  CountingBarrier barrier(std::make_shared<AtomicCounter>(), 1);
  EXPECT_THROW((void)barrier.arrive_and_wait(1), std::invalid_argument);
}

}  // namespace
}  // namespace cnet::rt
