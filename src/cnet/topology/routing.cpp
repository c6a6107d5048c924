#include "cnet/topology/routing.hpp"

namespace cnet::topo {

Routing::Routing(const Topology& net) {
  const std::size_t nb = net.num_balancers();
  fanout.resize(nb);
  route_base.resize(nb);
  std::size_t total_ports = 0;
  for (std::uint32_t b = 0; b < nb; ++b) {
    const auto& bal = net.balancer(BalancerId{b});
    fanout[b] = static_cast<std::uint32_t>(bal.fan_out());
    route_base[b] = static_cast<std::uint32_t>(total_ports);
    total_ports += bal.fan_out();
  }
  route.resize(total_ports);

  auto encode = [&](WireId wire) -> std::int32_t {
    const WireEnd& end = net.consumer(wire);
    if (end.kind == WireEnd::Kind::kNetworkOutput) {
      return ~static_cast<std::int32_t>(end.port);
    }
    return static_cast<std::int32_t>(end.balancer.value);
  };
  for (std::uint32_t b = 0; b < nb; ++b) {
    const auto& bal = net.balancer(BalancerId{b});
    for (std::size_t port = 0; port < bal.fan_out(); ++port) {
      route[route_base[b] + port] = encode(bal.outputs[port]);
    }
  }
  entry.reserve(net.width_in());
  for (const WireId in : net.input_wires()) entry.push_back(encode(in));
}

}  // namespace cnet::topo
