// cnet::check schedule codec + explorer surface, in every build flavor.
//
// The schedule string is the checker's exchange format — printed in
// assertion messages, pasted into --replay, stored in bug reports — so its
// codec is pinned in the normal suite (it has no dependence on the
// CNET_SCHED_CHECK seam). The exploration entry points are exercised
// adaptively: in a seam build they run a real two-thread interleaving
// sweep; in a normal build they must refuse loudly rather than "explore"
// a single uninstrumented schedule and report false confidence. The
// livelock cases need the seam and are skipped without it.
#include "cnet/check/explorer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cnet/util/atomic.hpp"
#include "cnet/util/sched_point.hpp"

namespace cnet::check {
namespace {

TEST(ScheduleCodec, EmptyRoundTrip) {
  EXPECT_EQ(encode_schedule({}), "cnet-sched-v1;");
  EXPECT_TRUE(parse_schedule("cnet-sched-v1;").empty());
}

TEST(ScheduleCodec, RoundTripsSwitches) {
  const std::vector<ScheduleSwitch> switches{{3, 1}, {9, 0}, {12, 2}};
  const std::string text = encode_schedule(switches);
  EXPECT_EQ(text, "cnet-sched-v1;3@1,9@0,12@2");
  const auto parsed = parse_schedule(text);
  ASSERT_EQ(parsed.size(), switches.size());
  for (std::size_t i = 0; i < switches.size(); ++i) {
    EXPECT_EQ(parsed[i].step, switches[i].step);
    EXPECT_EQ(parsed[i].thread, switches[i].thread);
  }
}

TEST(ScheduleCodec, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_schedule(""), std::invalid_argument);
  EXPECT_THROW((void)parse_schedule("sched;3@1"), std::invalid_argument);
  EXPECT_THROW((void)parse_schedule("cnet-sched-v1;3"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_schedule("cnet-sched-v1;@1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_schedule("cnet-sched-v1;3@"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_schedule("cnet-sched-v1;3x@1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_schedule("cnet-sched-v1;3@1x"),
               std::invalid_argument);
  // Steps must be strictly increasing: two switches cannot share a step.
  EXPECT_THROW((void)parse_schedule("cnet-sched-v1;9@1,3@0"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_schedule("cnet-sched-v1;3@1,3@0"),
               std::invalid_argument);
}

TEST(Explorer, RejectsBadOptions) {
  Options opts;
  opts.max_executions = 0;
  EXPECT_THROW((void)Explorer(opts), std::invalid_argument);
  Options inverted;
  inverted.max_steps = 100;
  inverted.hard_step_limit = 10;
  EXPECT_THROW((void)Explorer(inverted), std::invalid_argument);
}

TEST(Explorer, ExploreMatchesBuildFlavor) {
  Explorer explorer;
  const Body body = [](TestContext& ctx) {
    auto word = std::make_shared<util::Atomic<int>>(0);
    ctx.spawn([word] { word->fetch_add(1); });
    ctx.spawn([word] { word->fetch_add(1); });
    ctx.join_all();
    if (word->load() != 2) throw std::logic_error("lost update");
  };
  if (!util::kSchedCheckEnabled) {
    // Without the seam an "exploration" would be one uncontrolled run
    // reporting schedule coverage it does not have — it must refuse.
    EXPECT_THROW((void)explorer.explore(body), std::invalid_argument);
    return;
  }
  const Result r = explorer.explore(body);
  EXPECT_FALSE(r.failed) << r.message;
  // Two racing RMWs on one word: more than one distinct schedule exists.
  EXPECT_GT(r.executions, 1u);
  // An empty schedule exactly replays an execution with no switches at
  // all — a single-threaded body. (Multi-threaded schedules record every
  // switch, forced ones included, so the string alone pins the order; a
  // string that omits a switch the execution needs is a replay failure,
  // covered by the driver-level kViolation round-trips.)
  const Body solo = [](TestContext&) {};
  const Result rr = explorer.replay(encode_schedule({}), solo);
  EXPECT_FALSE(rr.failed) << rr.message;
  EXPECT_EQ(rr.executions, 1u);
}

// A waiter that can never leave its util::sched_yield() loop: past the
// hard step limit the explorer unwinds it and reports a replayable failure
// instead of aborting the process.
void expect_livelock_replays(const Body& body) {
  if (!util::kSchedCheckEnabled) {
    GTEST_SKIP() << "the yield seam is compiled out of this build";
  }
  Options opts;
  opts.max_steps = 200;
  opts.hard_step_limit = 200;
  Explorer explorer(opts);
  const Result r = explorer.explore(body);
  ASSERT_TRUE(r.failed);
  EXPECT_NE(r.message.find("hard_step_limit"), std::string::npos)
      << r.message;
  EXPECT_EQ(r.schedule.rfind("cnet-sched-v1;", 0), 0u) << r.schedule;
  EXPECT_EQ(r.executions, 1u);

  const Result rr = explorer.replay(r.schedule, body);
  ASSERT_TRUE(rr.failed);
  EXPECT_EQ(rr.message, r.message);
  EXPECT_EQ(rr.failure_step, r.failure_step);
  EXPECT_EQ(rr.schedule, r.schedule);
}

TEST(Explorer, LoneYieldSpinnerFailsWithAReplayString) {
  expect_livelock_replays([](TestContext&) {
    for (;;) util::sched_yield();
  });
}

TEST(Explorer, JoinedYieldSpinnerFailsWithAReplayString) {
  expect_livelock_replays([](TestContext& ctx) {
    ctx.spawn([] {
      for (;;) util::sched_yield();
    });
    ctx.join_all();
  });
}

}  // namespace
}  // namespace cnet::check
