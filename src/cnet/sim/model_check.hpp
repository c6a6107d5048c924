// Exhaustive execution-space exploration for small networks.
//
// The paper's contention measure is a supremum over all executions induced
// by an adversary scheduler (§1.2). For figure-sized networks and a handful
// of tokens we can enumerate *every* execution by depth-first search over
// scheduler choices, which yields:
//   * a proof (for the instance) that the Fetch&Increment values are
//     exactly 0..m-1 in every maximal execution — Theorem 4.2 strengthened
//     from quiescent states to all interleavings;
//   * the exact worst-case stall count, i.e. cont(B, n, m) itself, against
//     which the wavefront-convoy heuristic can be calibrated;
//   * whether any execution contains a linearizability inversion.
//
// The search keeps no model of its own: every execution is a full run of
// sim::simulate (token_sim.hpp) under a scheduler that replays a prefix of
// choices, so the explorer and the simulator cannot drift apart. Cost is
// exponential in tokens x depth, and each schedule is simulated from the
// start; intended for w <= 4-ish, m <= 4.
#pragma once

#include <cstdint>

#include "cnet/topology/topology.hpp"

namespace cnet::sim {

struct ModelCheckConfig {
  std::size_t concurrency = 2;
  std::size_t total_tokens = 2;
  // Hard cap on explored executions (throws if exceeded) so a mistaken
  // call on a large instance fails fast instead of hanging.
  std::uint64_t max_executions = 50'000'000;
};

struct ModelCheckResult {
  std::uint64_t executions = 0;        // maximal executions explored
  bool all_exact = true;               // every execution ended with 0..m-1
  std::uint64_t max_total_stalls = 0;  // exact cont(B, n, m)
  std::uint64_t min_total_stalls = 0;  // best-case schedule
  bool inversion_possible = false;     // non-linearizable witness exists
};

ModelCheckResult explore_all_executions(const topo::Topology& net,
                                        const ModelCheckConfig& cfg);

}  // namespace cnet::sim
