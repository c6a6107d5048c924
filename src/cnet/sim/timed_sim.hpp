// Discrete-event timed simulation of a balancing network as a closed
// queueing system — the model behind the experimental study the paper
// cites ([19,20]: simulation + a real 10-workstation system).
//
// Every balancer is a FIFO server that takes `service_time` to process one
// token (optionally exponentially distributed); wires add `wire_delay`;
// token i belongs to process i mod n, and each process injects its next
// token `think_time` after the previous one exits. The servers are the
// shared des::BalancerServers (discrete_event.hpp) that the multicore
// NetworkModel also runs on; this driver adds only the closed loop. Throughput in a closed network is n divided by the
// mean cycle time, so shorter queues translate directly into higher
// sustained throughput: widening the N_c block of C(w,t) adds servers
// exactly where tokens spend most of their time, which is the mechanism
// behind the paper's §1.3.2 intuition and the crossover measured in the
// cited experiments.
#pragma once

#include <cstdint>

#include "cnet/topology/topology.hpp"

namespace cnet::sim {

struct TimedConfig {
  std::size_t concurrency = 1;   // n processes (closed loop)
  std::size_t total_tokens = 0;  // m tokens overall (>= 1)
  double service_time = 1.0;     // per balancer transition
  double wire_delay = 0.0;       // producer -> consumer travel time
  double think_time = 0.0;       // process pause between operations
  bool exponential_service = false;  // exp(service_time) instead of fixed
  std::uint64_t seed = 1998;
};

struct TimedResult {
  double makespan = 0.0;     // time when the last token exits
  double throughput = 0.0;   // total_tokens / makespan
  double mean_latency = 0.0; // mean token time from injection to exit
  double max_latency = 0.0;
  double mean_queue_wait = 0.0;  // mean total queueing time per token
};

TimedResult simulate_timed(const topo::Topology& net,
                           const TimedConfig& cfg);

}  // namespace cnet::sim
