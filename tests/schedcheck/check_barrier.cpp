// Schedule-checker driver: CountingBarrier over a counting network.
//
// The barrier's epoch is util::Atomic, and under CNET_SCHED_CHECK a waiter
// loops on util::sched_yield() instead of sleeping in atomic::wait, so
// every epoch load, every publish CAS and every wait round is one explored
// step. A waiter that can never be released spins past the explorer's
// step limit, and the driver aborts as a livelock with no replay string.
//
// Each scenario runs two participants (thread hints 0 and 1) on C(2,2),
// one balancer, so at most one arrival at a time waits on an epoch no one
// has published: the other participant holds the publishing ticket.
//
// The hazard is overtaking: participant 0, released from phase 0, sends
// its phase-1 token past participant 1's phase-0 token, still between the
// balancer and its exit cell, and takes ticket 0. An arrival's phase must
// come from its participant's own arrival count, not from ticket /
// parties, or participant 0 leaves phase 1 at once and participant 1 waits
// for a phase it already completed.
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

std::shared_ptr<CountingBarrier> two_party_barrier() {
  return std::make_shared<CountingBarrier>(
      std::make_shared<NetworkCounter>(cnet::core::make_counting(2, 2),
                                       "C(2,2)"),
      2);
}

// Both participants arrive `rounds` times; every arrival must return its
// own phase, and the epoch must end at `rounds`.
void run_rounds(TestContext& ctx, std::int64_t rounds) {
  auto barrier = two_party_barrier();
  auto wrong = std::make_shared<std::int64_t[]>(2);
  for (std::size_t t = 0; t < 2; ++t) {
    ctx.spawn([barrier, wrong, rounds, t] {
      for (std::int64_t phase = 0; phase < rounds; ++phase) {
        if (barrier->arrive_and_wait(t) != phase) ++wrong[t];
      }
    });
  }
  ctx.join_all();
  CNET_ENSURE(wrong[0] == 0 && wrong[1] == 0,
              "an arrival returned a phase other than its own");
  CNET_ENSURE(barrier->completed_phases() == rounds,
              "the epoch does not count every phase");
}

// One phase: one participant publishes, the other is released.
void one_phase(TestContext& ctx) { run_rounds(ctx, 1); }

// Two phases: the overtaking order above is one of the explored schedules.
void overtaking(TestContext& ctx) { run_rounds(ctx, 2); }

}  // namespace

int main(int argc, char** argv) {
  return cnet::check::run_scenarios(
      {
          Scenario{"one_phase", Expect::kClean, one_phase},
          Scenario{"overtaking", Expect::kClean, overtaking},
      },
      argc, argv);
}
