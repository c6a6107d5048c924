#include "cnet/runtime/compiled_network.hpp"

#include <utility>

#include "cnet/util/ensure.hpp"

namespace cnet::rt {

const char* balancer_mode_name(BalancerMode mode) noexcept {
  return mode == BalancerMode::kFetchAdd ? "fetch-add" : "cas-retry";
}

CompiledShape::CompiledShape(const topo::Topology& net)
    : width_out_(net.width_out()) {
  const std::size_t num_nodes = net.num_balancers();
  fanout_.resize(num_nodes);
  route_base_.resize(num_nodes);
  std::size_t total_ports = 0;
  for (std::uint32_t b = 0; b < num_nodes; ++b) {
    const auto& bal = net.balancer(topo::BalancerId{b});
    fanout_[b] = static_cast<std::uint32_t>(bal.fan_out());
    route_base_[b] = static_cast<std::uint32_t>(total_ports);
    total_ports += bal.fan_out();
  }
  route_.resize(total_ports);

  auto encode = [&](topo::WireId wire) -> std::int32_t {
    const auto& end = net.consumer(wire);
    if (end.kind == topo::WireEnd::Kind::kNetworkOutput) {
      return ~static_cast<std::int32_t>(end.port);
    }
    return static_cast<std::int32_t>(end.balancer.value);
  };
  for (std::uint32_t b = 0; b < num_nodes; ++b) {
    const auto& bal = net.balancer(topo::BalancerId{b});
    for (std::size_t port = 0; port < bal.fan_out(); ++port) {
      const std::int32_t dest = encode(bal.outputs[port]);
      // Balancer creation order is topological (topology.hpp): batch
      // traversal propagates counts in index order and relies on it.
      CNET_ENSURE(dest < 0 || dest > static_cast<std::int32_t>(b),
                  "balancer indices must be topologically ordered");
      route_[route_base_[b] + port] = dest;
    }
  }
  entry_.reserve(net.width_in());
  for (const topo::WireId in : net.input_wires()) {
    entry_.push_back(encode(in));
  }
}

CompiledNetwork::CompiledNetwork(const topo::Topology& net)
    : CompiledNetwork(std::make_shared<const CompiledShape>(net)) {}

CompiledNetwork::CompiledNetwork(std::shared_ptr<const CompiledShape> shape)
    : shape_(std::move(shape)),
      num_nodes_(shape_->num_balancers()),
      width_in_(shape_->width_in()),
      width_out_(shape_->width_out()),
      nodes_(std::make_unique<Node[]>(num_nodes_)),
      route_(shape_->route_.data()),
      entry_(shape_->entry_.data()) {
  for (std::size_t b = 0; b < num_nodes_; ++b) {
    nodes_[b].fanout = shape_->fanout_[b];
    nodes_[b].route_base = shape_->route_base_[b];
  }
}

namespace {

// Euclidean modulo: result in [0, m) even for negative v.
std::uint32_t euclid_mod(std::int64_t v, std::uint32_t m) noexcept {
  const std::int64_t r = v % static_cast<std::int64_t>(m);
  return static_cast<std::uint32_t>(r >= 0 ? r
                                           : r + static_cast<std::int64_t>(m));
}

}  // namespace

std::size_t CompiledNetwork::traverse(
    std::size_t input_wire, BalancerMode mode,
    std::uint64_t* stalls) noexcept(kNoexcept) {
  std::int32_t at = entry_[input_wire];
  while (at >= 0) {
    Node& node = nodes_[static_cast<std::size_t>(at)];
    std::int64_t ticket;
    if (mode == BalancerMode::kFetchAdd) {
      // One wait-free atomic transition; memory order relaxed is enough —
      // the balancer state is the only datum and the RMW is atomic.
      ticket = node.state.fetch_add(1, std::memory_order_relaxed);
    } else {
      // CAS loop: every failure means another token slipped through first,
      // i.e. one stall in the Dwork-et-al. sense.
      ticket = node.state.load(std::memory_order_relaxed);
      while (!node.state.compare_exchange_weak(ticket, ticket + 1,
                                               std::memory_order_relaxed)) {
        ++*stalls;
      }
    }
    at = route_[node.route_base + euclid_mod(ticket, node.fanout)];
  }
  return static_cast<std::size_t>(~at);
}

std::size_t CompiledNetwork::traverse_anti(
    std::size_t input_wire, BalancerMode mode,
    std::uint64_t* stalls) noexcept(kNoexcept) {
  std::int32_t at = entry_[input_wire];
  while (at >= 0) {
    Node& node = nodes_[static_cast<std::size_t>(at)];
    std::int64_t landed;
    if (mode == BalancerMode::kFetchAdd) {
      landed = node.state.fetch_sub(1, std::memory_order_relaxed) - 1;
    } else {
      std::int64_t cur = node.state.load(std::memory_order_relaxed);
      while (!node.state.compare_exchange_weak(cur, cur - 1,
                                               std::memory_order_relaxed)) {
        ++*stalls;
      }
      landed = cur - 1;
    }
    // The antitoken leaves on the wire the state stepped back onto — the
    // wire the most recent (now cancelled) token transition used.
    at = route_[node.route_base + euclid_mod(landed, node.fanout)];
  }
  return static_cast<std::size_t>(~at);
}

void CompiledNetwork::traverse_batch(
    std::size_t input_wire, std::uint64_t k, BalancerMode mode,
    std::uint64_t* stalls, BatchScratch& scratch,
    std::uint64_t* out_counts) noexcept(kNoexcept) {
  if (k == 0) return;
  const std::int32_t first = entry_[input_wire];
  if (first < 0) {
    out_counts[static_cast<std::size_t>(~first)] += k;
    return;
  }
  auto& pending = scratch.pending_;
  pending.assign(num_nodes_, 0);
  pending[static_cast<std::size_t>(first)] = k;

  // Node indices are topological, so a single forward sweep sees every
  // balancer after all of its in-batch predecessors; it stops as soon as
  // every token has reached an output wire.
  std::uint64_t in_flight = k;
  for (std::size_t b = static_cast<std::size_t>(first);
       b < num_nodes_ && in_flight != 0; ++b) {
    const std::uint64_t m = pending[b];
    if (m == 0) continue;
    Node& node = nodes_[b];
    std::int64_t ticket;
    if (mode == BalancerMode::kFetchAdd) {
      ticket = node.state.fetch_add(static_cast<std::int64_t>(m),
                                    std::memory_order_relaxed);
    } else {
      ticket = node.state.load(std::memory_order_relaxed);
      while (!node.state.compare_exchange_weak(
          ticket, ticket + static_cast<std::int64_t>(m),
          std::memory_order_relaxed)) {
        ++*stalls;
      }
    }
    // Tickets ticket..ticket+m-1 land round-robin on the fanout wires:
    // every wire gets m/f, and the m%f wires starting at ticket mod f
    // (cyclically) get one more.
    const std::uint32_t f = node.fanout;
    const std::uint64_t per_wire = m / f;
    const std::uint64_t extra = m % f;
    const std::uint32_t start = euclid_mod(ticket, f);
    for (std::uint32_t port = 0; port < f; ++port) {
      const std::uint32_t offset = (port + f - start) % f;
      const std::uint64_t count = per_wire + (offset < extra ? 1 : 0);
      if (count == 0) continue;
      const std::int32_t dest = route_[node.route_base + port];
      if (dest < 0) {
        out_counts[static_cast<std::size_t>(~dest)] += count;
        in_flight -= count;
      } else {
        pending[static_cast<std::size_t>(dest)] += count;
      }
    }
  }
}

void CompiledNetwork::reset() noexcept(kNoexcept) {
  for (std::size_t b = 0; b < num_nodes_; ++b) {
    nodes_[b].state.store(0, std::memory_order_relaxed);
  }
}

}  // namespace cnet::rt
