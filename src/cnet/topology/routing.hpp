// A Topology's wiring compiled into flat routing tables: the one form every
// network walker reads, whether it shepherds real tokens (the runtime's
// CompiledShape) or simulated ones (token_sim, and the discrete-event
// BalancerServers under timed_sim and the multicore NetworkModel).
//
// A destination is one int32: `>= 0` is the index of the balancer the wire
// feeds, `< 0` is `~output` for a wire that leaves the network on output
// position `output`. Balancer b's port p leads to route[route_base[b] + p],
// and network input wire i leads to entry[i].
#pragma once

#include <cstdint>
#include <vector>

#include "cnet/topology/topology.hpp"

namespace cnet::topo {

struct Routing {
  explicit Routing(const Topology& net);

  // Per balancer, in the topology's (topological) index order.
  std::vector<std::uint32_t> fanout;
  std::vector<std::uint32_t> route_base;
  // Per balancer output port, then per network input wire.
  std::vector<std::int32_t> route;
  std::vector<std::int32_t> entry;

  std::size_t num_balancers() const noexcept { return fanout.size(); }
  std::size_t width_in() const noexcept { return entry.size(); }

  // Where balancer `b`'s output port `port` leads.
  std::int32_t next(std::uint32_t b, std::uint32_t port) const noexcept {
    return route[route_base[b] + port];
  }
};

}  // namespace cnet::topo
