// Lock-free shared-memory realization of a balancing network (paper §1.2):
// each balancer is a shared memory word holding the index of the wire the
// next token leaves on; wires are routing-table entries. Tokens are threads
// traversing the structure.
//
// The two parts live apart. The wiring — every balancer's fanout and the
// routing table, the topo::Routing every network walker reads — is fixed
// and identical in every instance of a network, so it is compiled once into
// an immutable CompiledShape that any number of CompiledNetworks share.
// Each CompiledNetwork owns only its balancer state words, one padded Node
// per balancer with that balancer's fanout, port mask and route base copied
// in, so a traversal step reads its state and its routing from one cache
// line.
//
// A step routes without dividing wherever it can: when a balancer's fanout
// is a power of two — every balancer of C(w,w) and 44 of C(8,24)'s 48 —
// the exit port is `ticket & (fanout - 1)`, which in two's complement is
// also the Euclidean ticket mod fanout for the negative tickets antitokens
// leave. Other fanouts take a general divide in the same loop.
//
// Two balancer disciplines are provided:
//   * kFetchAdd — the state advances with one atomic fetch_add (wait-free);
//   * kCasRetry — a CAS loop; every failed CAS is one observed stall, the
//     hardware analogue of the Dwork-et-al. stall measure.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cnet/topology/routing.hpp"
#include "cnet/topology/topology.hpp"
#include "cnet/util/atomic.hpp"
#include "cnet/util/cacheline.hpp"

namespace cnet::rt {

enum class BalancerMode { kFetchAdd, kCasRetry };

const char* balancer_mode_name(BalancerMode mode) noexcept;

// Caller-owned scratch space for CompiledNetwork::traverse_batch. Reuse one
// instance per thread across calls to avoid per-batch allocation; a single
// instance must not be shared by concurrent callers.
class BatchScratch {
 private:
  friend class CompiledNetwork;
  std::vector<std::uint64_t> pending_;
};

// The immutable wiring of one network, compiled from its Topology. Holds no
// state a token changes, so one shape may back any number of
// CompiledNetworks on any threads.
class CompiledShape {
 public:
  explicit CompiledShape(const topo::Topology& net);

  CompiledShape(const CompiledShape&) = delete;
  CompiledShape& operator=(const CompiledShape&) = delete;

  std::size_t width_in() const noexcept { return routing_.width_in(); }
  std::size_t width_out() const noexcept { return width_out_; }
  std::size_t num_balancers() const noexcept {
    return routing_.num_balancers();
  }

 private:
  friend class CompiledNetwork;
  std::size_t width_out_ = 0;
  topo::Routing routing_;
  // Per balancer: fanout - 1 where the fanout is a power of two, else
  // kNoMask.
  std::vector<std::uint32_t> mask_;
};

class CompiledNetwork {
 public:
  // Compiles a private shape for `net`.
  explicit CompiledNetwork(const topo::Topology& net);
  // A fresh instance (every balancer state 0) on a shared shape.
  explicit CompiledNetwork(std::shared_ptr<const CompiledShape> shape);

  CompiledNetwork(const CompiledNetwork&) = delete;
  CompiledNetwork& operator=(const CompiledNetwork&) = delete;

  std::size_t width_in() const noexcept { return width_in_; }
  std::size_t width_out() const noexcept { return width_out_; }
  std::size_t num_balancers() const noexcept { return num_nodes_; }
  const std::shared_ptr<const CompiledShape>& shape() const noexcept {
    return shape_;
  }

  // The traversals are noexcept except in a CNET_SCHED_CHECK build, where
  // every balancer step is a schedule-checker step that may unwind.
  static constexpr bool kNoexcept = !util::kSchedCheckEnabled;

  // The single-token walk from `input_wire` (< width_in()) to an output
  // wire, whose index is returned: `step` is +1 for a token, -1 for an
  // antitoken. When `mode` is kCasRetry, the number of failed CAS attempts
  // is added to *stalls (which must be non-null in that mode).
  std::size_t walk(std::size_t input_wire, std::int64_t step,
                   BalancerMode mode,
                   std::uint64_t* stalls) noexcept(kNoexcept);

  // Shepherds one token: walk(input_wire, +1, ...).
  std::size_t traverse(std::size_t input_wire, BalancerMode mode,
                       std::uint64_t* stalls) noexcept(kNoexcept) {
    return walk(input_wire, +1, mode, stalls);
  }

  // Shepherds one *antitoken* (Aiello et al.; paper §1.4.2): each visited
  // balancer's state moves back by one and the antitoken leaves on the wire
  // the state lands on — exactly undoing one token transition. Used to
  // implement Fetch&Decrement.
  std::size_t traverse_anti(std::size_t input_wire, BalancerMode mode,
                            std::uint64_t* stalls) noexcept(kNoexcept) {
    return walk(input_wire, -1, mode, stalls);
  }

  // Shepherds `k` tokens from `input_wire` in one pass. Each visited
  // balancer advances its state by a single fetch_add(m) — m being the
  // number of batch tokens passing through it — and splits those m tokens
  // round-robin across its fanout exactly as m successive traverse() calls
  // would, so the result is equivalent to some legal interleaving of k
  // individual tokens (the per-balancer RMW is atomic, hence each batch
  // reads off a contiguous ticket block). On return, out_counts[i] has been
  // incremented by the number of tokens that left on output wire i;
  // out_counts must point at width_out() slots.
  //
  // Cuts atomic traffic from depth() RMWs per token to at most one RMW per
  // balancer per *batch* — up to k× fewer under wide batches.
  void traverse_batch(std::size_t input_wire, std::uint64_t k,
                      BalancerMode mode, std::uint64_t* stalls,
                      BatchScratch& scratch,
                      std::uint64_t* out_counts) noexcept(kNoexcept);

  // Resets all balancer states to 0 (only call while quiescent).
  void reset() noexcept(kNoexcept);

  // Balancer `b`'s state: the number of tokens minus antitokens that have
  // passed it. Meaningful while quiescent.
  std::int64_t balancer_state(std::size_t b) const {
    return nodes_[b].state.load(std::memory_order_relaxed);
  }

  // Marks a fanout that is not a power of two (no fanout reaches 2^32).
  static constexpr std::uint32_t kNoMask = ~std::uint32_t{0};

 private:
  struct alignas(util::kCacheLine) Node {
    // Signed: antitokens can drive the cumulative balance below zero.
    util::Atomic<std::int64_t> state{0};
    std::uint32_t fanout = 0;
    std::uint32_t mask = kNoMask;
    std::uint32_t route_base = 0;

    // The port ticket `ticket` leaves on: its Euclidean residue mod fanout.
    std::uint32_t port(std::int64_t ticket) const noexcept;
    // One balancer step: moves the state by `delta` and returns the state
    // before the move.
    std::int64_t advance(std::int64_t delta, BalancerMode mode,
                         std::uint64_t* stalls) noexcept(kNoexcept);
  };
  static_assert(sizeof(Node) == util::kCacheLine);

  std::shared_ptr<const CompiledShape> shape_;
  std::size_t num_nodes_ = 0;
  std::size_t width_in_ = 0;
  std::size_t width_out_ = 0;
  util::LineArray<Node> nodes_;
  // Into shape_'s tables, which outlive this instance through shape_.
  const std::int32_t* route_ = nullptr;
  const std::int32_t* entry_ = nullptr;
};

}  // namespace cnet::rt
