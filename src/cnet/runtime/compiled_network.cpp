#include "cnet/runtime/compiled_network.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "cnet/util/bitops.hpp"
#include "cnet/util/ensure.hpp"

namespace cnet::rt {

const char* balancer_mode_name(BalancerMode mode) noexcept {
  return mode == BalancerMode::kFetchAdd ? "fetch-add" : "cas-retry";
}

CompiledShape::CompiledShape(const topo::Topology& net)
    : width_out_(net.width_out()),
      routing_(net),
      mask_(routing_.num_balancers()) {
  // Balancer creation order is topological (topology.hpp): batch traversal
  // propagates counts in index order and relies on it.
  bool ordered = true;
  for (std::uint32_t b = 0; b < mask_.size(); ++b) {
    const std::uint32_t fanout = routing_.fanout[b];
    mask_[b] = util::is_pow2(fanout) ? fanout - 1 : CompiledNetwork::kNoMask;
    for (std::uint32_t port = 0; port < fanout; ++port) {
      const std::int32_t dest = routing_.next(b, port);
      ordered = ordered && (dest < 0 || dest > static_cast<std::int32_t>(b));
    }
  }
  CNET_ENSURE(ordered, "balancer indices must be topologically ordered");
}

CompiledNetwork::CompiledNetwork(const topo::Topology& net)
    : CompiledNetwork(std::make_shared<const CompiledShape>(net)) {}

CompiledNetwork::CompiledNetwork(std::shared_ptr<const CompiledShape> shape)
    : shape_(std::move(shape)),
      num_nodes_(shape_->num_balancers()),
      width_in_(shape_->width_in()),
      width_out_(shape_->width_out()),
      nodes_(num_nodes_),
      route_(shape_->routing_.route.data()),
      entry_(shape_->routing_.entry.data()) {
  for (std::size_t b = 0; b < num_nodes_; ++b) {
    nodes_[b].fanout = shape_->routing_.fanout[b];
    nodes_[b].mask = shape_->mask_[b];
    nodes_[b].route_base = shape_->routing_.route_base[b];
  }
}

std::uint32_t CompiledNetwork::Node::port(
    std::int64_t ticket) const noexcept {
  if (mask != kNoMask) return static_cast<std::uint32_t>(ticket) & mask;
  const std::int64_t r = ticket % static_cast<std::int64_t>(fanout);
  return static_cast<std::uint32_t>(
      r >= 0 ? r : r + static_cast<std::int64_t>(fanout));
}

std::int64_t CompiledNetwork::Node::advance(
    std::int64_t delta, BalancerMode mode,
    std::uint64_t* stalls) noexcept(kNoexcept) {
  if (mode == BalancerMode::kFetchAdd) {
    // One wait-free atomic transition; memory order relaxed is enough —
    // the balancer state is the only datum and the RMW is atomic.
    return state.fetch_add(delta, std::memory_order_relaxed);
  }
  // CAS loop: every failure means another token slipped through first,
  // i.e. one stall in the Dwork-et-al. sense.
  std::int64_t before = state.load(std::memory_order_relaxed);
  while (!state.compare_exchange_weak(before, before + delta,
                                      std::memory_order_relaxed)) {
    ++*stalls;
  }
  return before;
}

std::size_t CompiledNetwork::walk(std::size_t input_wire, std::int64_t step,
                                  BalancerMode mode,
                                  std::uint64_t* stalls) noexcept(kNoexcept) {
  // The transition between states s and s + 1 routes on port(s) either
  // way: a token leaves on the port of the ticket it took (the state before
  // its step), an antitoken on the port of the state it stepped back onto —
  // the wire the most recent (now cancelled) token transition used.
  const std::int64_t to_lower = std::min<std::int64_t>(step, 0);
  std::int32_t at = entry_[input_wire];
  while (at >= 0) {
    Node& node = nodes_[static_cast<std::size_t>(at)];
    const std::int64_t before = node.advance(step, mode, stalls);
    at = route_[node.route_base + node.port(before + to_lower)];
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
    const std::int64_t ticket =
        node.advance(static_cast<std::int64_t>(m), mode, stalls);
    // Tickets ticket..ticket+m-1 land round-robin on the fanout wires:
    // every wire gets m/f, and the m%f wires starting at ticket mod f
    // (cyclically) get one more. Zero counts are delivered too: adding 0
    // is cheaper than a branch on the ticket-dependent count.
    const std::int32_t* dests = route_ + node.route_base;
    auto deliver = [&](std::int32_t dest, std::uint64_t count) {
      if (dest < 0) {
        out_counts[static_cast<std::size_t>(~dest)] += count;
        in_flight -= count;
      } else {
        pending[static_cast<std::size_t>(dest)] += count;
      }
    };
    const std::uint32_t f = node.fanout;
    const std::uint32_t start = node.port(ticket);
    if (f == 2) {
      // The common (p,2)-balancer: an odd token leaves on the start port.
      const std::uint64_t odd = m & 1;
      deliver(dests[0], (m >> 1) + (odd & (start ^ 1)));
      deliver(dests[1], (m >> 1) + (odd & start));
      continue;
    }
    std::uint64_t per_wire, extra;
    if (node.mask != kNoMask) {
      per_wire = m >> std::countr_zero(f);
      extra = m & node.mask;
    } else {
      per_wire = m / f;
      extra = m % f;
    }
    // Port p's cyclic distance from the start port, (p - start) mod f,
    // stepped along by conditional subtraction instead of a divide.
    std::uint32_t offset = f - start;
    for (std::uint32_t port = 0; port < f; ++port, ++offset) {
      if (offset >= f) offset -= f;
      deliver(dests[port], per_wire + (offset < extra ? 1 : 0));
    }
  }
}

void CompiledNetwork::reset() noexcept(kNoexcept) {
  for (std::size_t b = 0; b < num_nodes_; ++b) {
    nodes_[b].state.store(0, std::memory_order_relaxed);
  }
}

}  // namespace cnet::rt
