// Schedule-checker driver: CountingBarrier over a counting network.
//
// The barrier's epoch is util::Atomic, and under CNET_SCHED_CHECK a waiter
// loops on util::sched_yield() instead of sleeping in atomic::wait, so
// every epoch load, every publish CAS and every wait round is one explored
// step. A waiter that can never be released spins past the explorer's
// step limit, and the driver aborts as a livelock with no replay string.
//
// The hazard is a late publish: the last arriver of phase 0 takes its
// ticket and stalls, phase 1 fills up and publishes epoch 2, and the stalled
// arriver then publishes epoch 1. A plain store there moves the epoch back
// under a phase-1 waiter that has not yet looked, and that waiter never
// leaves. The publish is a CAS loop up to max(epoch, phase + 1), which this
// driver must find clean: late_publish checks the epoch itself, and
// two_phases checks that the waiter is released.
#include <cstdint>
#include <memory>

#include "cnet/check/driver.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/runtime/barrier.hpp"
#include "cnet/runtime/network_counter.hpp"
#include "cnet/util/ensure.hpp"

namespace {

using cnet::check::Expect;
using cnet::check::Scenario;
using cnet::check::TestContext;
using cnet::rt::CountingBarrier;
using cnet::rt::NetworkCounter;

// One party, so each arrival completes its own phase: two arrivals on
// C(2,2), and once both return the epoch reads 2 whichever publish came
// last.
void late_publish(TestContext& ctx) {
  auto barrier = std::make_shared<CountingBarrier>(
      std::make_shared<NetworkCounter>(cnet::core::make_counting(2, 2),
                                       "C(2,2)"),
      1);
  for (std::size_t t = 0; t < 2; ++t) {
    ctx.spawn([barrier, t] { barrier->arrive_and_wait(t); });
  }
  ctx.join_all();
  CNET_ENSURE(barrier->completed_phases() == 2,
              "a late publish moved the epoch back");
}

// Two phases of two parties on C(2,2). Ticket 0 is taken before the
// threads start: it stands in for phase 0's first arrival, which only
// waits and is released by either publish. Leaving its wait out keeps one
// waiter in the race; two waiters would release each other's yields and
// spin against each other without bound. Every other arrival must return,
// one from phase 0 and two from phase 1.
void two_phases(TestContext& ctx) {
  auto counter = std::make_shared<NetworkCounter>(
      cnet::core::make_counting(2, 2), "C(2,2)");
  counter->fetch_increment(0);
  auto barrier = std::make_shared<CountingBarrier>(counter, 2);
  auto phase = std::make_shared<std::int64_t[]>(3);
  for (std::size_t t = 0; t < 3; ++t) {
    ctx.spawn([barrier, phase, t] { phase[t] = barrier->arrive_and_wait(t); });
  }
  ctx.join_all();
  std::int64_t ones = 0;
  for (std::size_t t = 0; t < 3; ++t) {
    CNET_ENSURE(phase[t] == 0 || phase[t] == 1,
                "an arrival completed a phase that never ran");
    ones += phase[t];
  }
  CNET_ENSURE(ones == 2, "phase 1 did not take two arrivals");
  CNET_ENSURE(barrier->completed_phases() == 2,
              "the epoch does not count both phases");
}

}  // namespace

int main(int argc, char** argv) {
  return cnet::check::run_scenarios(
      {
          Scenario{"late_publish", Expect::kClean, late_publish},
          Scenario{"two_phases", Expect::kClean, two_phases},
      },
      argc, argv);
}
