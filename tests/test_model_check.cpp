// Exhaustive execution-space exploration: every schedule of small
// instances. This is the strongest correctness statement in the suite —
// Theorem 4.2's guarantee checked over ALL interleavings, not just random
// ones — plus the exact adversarial contention cont(B, n, m) used to
// calibrate the wavefront-convoy heuristic.
#include "cnet/sim/model_check.hpp"

#include <gtest/gtest.h>

#include "cnet/baselines/bitonic.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/sim/schedulers.hpp"
#include "cnet/sim/token_sim.hpp"

namespace cnet::sim {
namespace {

topo::Topology one_balancer_one_wire() {
  topo::Builder b;
  const auto in = b.add_network_inputs(1);
  b.set_outputs(b.add_balancer(in, 2));
  return std::move(b).build();
}

TEST(ModelCheck, RejectsBadConfig) {
  const auto net = one_balancer_one_wire();
  ModelCheckConfig cfg;
  cfg.total_tokens = 0;
  EXPECT_THROW((void)explore_all_executions(net, cfg),
               std::invalid_argument);
}

TEST(ModelCheck, SingleBalancerHasOneScheduleAndExactStalls) {
  // All tokens funnel through one balancer: FIFO leaves a single maximal
  // execution with exactly n(n-1)/2 stalls.
  const auto net = one_balancer_one_wire();
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u}) {
    ModelCheckConfig cfg;
    cfg.concurrency = n;
    cfg.total_tokens = n;
    const auto r = explore_all_executions(net, cfg);
    EXPECT_EQ(r.executions, 1u) << n;
    EXPECT_TRUE(r.all_exact);
    EXPECT_EQ(r.max_total_stalls, n * (n - 1) / 2) << n;
    EXPECT_EQ(r.min_total_stalls, r.max_total_stalls);
    EXPECT_FALSE(r.inversion_possible);
  }
}

TEST(ModelCheck, PassThroughWireHasOneSchedule) {
  // A wire straight from input to output: every token exits on injection
  // and its process moves on at once, so no balancer ever fires.
  topo::Builder b;
  b.set_outputs(b.add_network_inputs(1));
  const auto net = std::move(b).build();
  ModelCheckConfig cfg;
  cfg.concurrency = 2;
  cfg.total_tokens = 5;
  const auto r = explore_all_executions(net, cfg);
  EXPECT_EQ(r.executions, 1u);
  EXPECT_TRUE(r.all_exact);
  EXPECT_EQ(r.max_total_stalls, 0u);
  EXPECT_FALSE(r.inversion_possible);
}

TEST(ModelCheck, TwoTokensThroughC22) {
  const auto net = core::make_counting(2, 2);
  ModelCheckConfig cfg;
  cfg.concurrency = 2;
  cfg.total_tokens = 2;
  const auto r = explore_all_executions(net, cfg);
  EXPECT_EQ(r.executions, 1u);  // one queue, FIFO: a single schedule
  EXPECT_TRUE(r.all_exact);
  EXPECT_EQ(r.max_total_stalls, 1u);
}

// Every interleaving of small C(w,t) instances hands out exactly 0..m-1,
// and none shows an inversion. The pinned schedule-space size and stall
// envelope guard the explorer itself.
struct Instance {
  std::size_t w, t, n, m;
  std::uint64_t executions, max_stalls, min_stalls;
};

class ModelCheckExact : public ::testing::TestWithParam<Instance> {};

TEST_P(ModelCheckExact, AllExecutionsYieldExactValues) {
  const auto [w, t, n, m, executions, max_stalls, min_stalls] = GetParam();
  ModelCheckConfig cfg;
  cfg.concurrency = n;
  cfg.total_tokens = m;
  const auto r = explore_all_executions(core::make_counting(w, t), cfg);
  EXPECT_TRUE(r.all_exact)
      << "some schedule broke Fetch&Increment exactness";
  EXPECT_EQ(r.executions, executions);
  EXPECT_EQ(r.max_total_stalls, max_stalls);
  EXPECT_EQ(r.min_total_stalls, min_stalls);
  EXPECT_FALSE(r.inversion_possible);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelCheckExact,
    ::testing::Values(Instance{2, 2, 2, 3, 1, 2, 2},
                      Instance{2, 4, 3, 3, 1, 3, 3},
                      Instance{4, 4, 2, 3, 84, 2, 0},
                      Instance{4, 4, 3, 3, 399, 3, 1},
                      Instance{4, 4, 2, 4, 588, 2, 0},
                      Instance{4, 4, 3, 4, 6919, 5, 1},
                      Instance{4, 8, 2, 4, 592, 2, 0},
                      Instance{4, 8, 3, 4, 7571, 5, 1},
                      Instance{4, 4, 3, 5, 119699, 7, 1}),
    [](const auto& pinfo) {
      return "w" + std::to_string(pinfo.param.w) + "t" +
             std::to_string(pinfo.param.t) + "n" +
             std::to_string(pinfo.param.n) + "m" +
             std::to_string(pinfo.param.m);
    });

TEST(ModelCheck, BitonicSmallInstanceExact) {
  ModelCheckConfig cfg;
  cfg.concurrency = 3;
  cfg.total_tokens = 4;
  const auto r =
      explore_all_executions(baselines::make_bitonic(4), cfg);
  EXPECT_TRUE(r.all_exact);
}

TEST(ModelCheck, ExactWorstCaseKnownValues) {
  // Pinned exact adversarial contention for figure-sized instances
  // (regression guards for the exploration itself).
  const auto net = core::make_counting(4, 4);
  {
    ModelCheckConfig cfg;
    cfg.concurrency = 3;
    cfg.total_tokens = 3;
    const auto r = explore_all_executions(net, cfg);
    EXPECT_EQ(r.executions, 399u);
    EXPECT_EQ(r.min_total_stalls, 1u);
    EXPECT_EQ(r.max_total_stalls, 3u);
  }
  {
    ModelCheckConfig cfg;
    cfg.concurrency = 2;
    cfg.total_tokens = 3;
    const auto r = explore_all_executions(net, cfg);
    EXPECT_EQ(r.executions, 84u);
    EXPECT_EQ(r.min_total_stalls, 0u);
    EXPECT_EQ(r.max_total_stalls, 2u);
  }
}

TEST(ModelCheck, GoldenScheduleSpaceDepthTwo) {
  // Pinned schedule-space size and exact worst/best-case stall counts for
  // the depth-2 network C(4,8) — a golden for the *explorer itself*: a
  // change to queue ordering, the choice enumeration, or the stall
  // accounting shifts either the execution count or the stall envelope and
  // fails here before any downstream claim (contention tables, adversary
  // calibration) silently drifts.
  const auto net = core::make_counting(4, 8);
  {
    ModelCheckConfig cfg;
    cfg.concurrency = 2;
    cfg.total_tokens = 3;
    const auto r = explore_all_executions(net, cfg);
    EXPECT_EQ(r.executions, 84u);
    EXPECT_EQ(r.min_total_stalls, 0u);
    EXPECT_EQ(r.max_total_stalls, 2u);
    EXPECT_TRUE(r.all_exact);
  }
  {
    ModelCheckConfig cfg;
    cfg.concurrency = 3;
    cfg.total_tokens = 4;
    const auto r = explore_all_executions(net, cfg);
    EXPECT_EQ(r.executions, 7571u);
    EXPECT_EQ(r.min_total_stalls, 1u);
    EXPECT_EQ(r.max_total_stalls, 5u);
    EXPECT_TRUE(r.all_exact);
  }
}

// The wavefront-convoy heuristic can never beat the exhaustive optimum,
// and on convoy-friendly instances it should land close to it.
TEST(ModelCheck, HeuristicAdversaryBoundedByExactOptimum) {
  const auto net = core::make_counting(4, 4);
  for (const auto& [n, m] :
       {std::pair<std::size_t, std::size_t>{3, 3}, {3, 4}, {4, 5}}) {
    ModelCheckConfig cfg;
    cfg.concurrency = n;
    cfg.total_tokens = m;
    const auto exact = explore_all_executions(net, cfg);

    SimConfig sim_cfg{.concurrency = n, .total_tokens = m};
    WavefrontConvoyScheduler sched;
    const auto heuristic = simulate(net, sim_cfg, sched);
    EXPECT_LE(heuristic.total_stalls, exact.max_total_stalls)
        << "n=" << n << " m=" << m;
    EXPECT_GE(heuristic.total_stalls, exact.min_total_stalls);
    // On these instances the convoy should reach at least half the
    // optimum adversary's stalls.
    EXPECT_GE(2 * heuristic.total_stalls, exact.max_total_stalls)
        << "n=" << n << " m=" << m;
  }
}

TEST(ModelCheck, NoInversionAtSmallScale) {
  // Non-linearizability (§1.4.2) needs enough tokens to lap the output
  // cells; exhaustively, no inversion exists yet at these sizes — the
  // witnesses found by tests/test_linearizability.cpp require larger m.
  for (const auto& [n, m] :
       {std::pair<std::size_t, std::size_t>{3, 4}, {4, 5}}) {
    ModelCheckConfig cfg;
    cfg.concurrency = n;
    cfg.total_tokens = m;
    const auto r =
        explore_all_executions(core::make_counting(4, 4), cfg);
    EXPECT_FALSE(r.inversion_possible) << "n=" << n << " m=" << m;
  }
}

TEST(ModelCheck, ExecutionCapThrows) {
  ModelCheckConfig cfg;
  cfg.concurrency = 3;
  cfg.total_tokens = 5;
  cfg.max_executions = 10;  // far below the real count
  EXPECT_THROW(
      (void)explore_all_executions(core::make_counting(4, 4), cfg),
      std::invalid_argument);
}

}  // namespace
}  // namespace cnet::sim
