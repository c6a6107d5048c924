// A shared Fetch&Increment counter backed by a balancing network
// (paper §1.1): tokens traverse the network and the exit wire's cell v_i
// (initialized to i, stepped by the output width t) assigns the value.
// If the underlying network is a counting network, concurrent calls return
// exactly the values 0, 1, 2, ... with no gaps or duplicates once quiescent.
#pragma once

#include <memory>
#include <string>

#include "cnet/runtime/compiled_network.hpp"
#include "cnet/runtime/counter.hpp"
#include "cnet/util/atomic.hpp"
#include "cnet/util/cacheline.hpp"
#include "cnet/util/slot_array.hpp"

namespace cnet::rt {

class NetworkCounter final : public Counter {
 public:
  // `label` names the network family in benchmark output, e.g. "C(8,16)".
  NetworkCounter(const topo::Topology& net, std::string label,
                 BalancerMode mode = BalancerMode::kFetchAdd);
  // A fresh counter on a shared compiled shape: its own balancer states and
  // exit cells, the shape's wiring. Counters on one shape are independent.
  NetworkCounter(std::shared_ptr<const CompiledShape> shape, std::string label,
                 BalancerMode mode = BalancerMode::kFetchAdd);

  // Shepherds all k tokens through the network and claims each exit wire's
  // values with a single cell fetch_add(count · t), handing out a
  // contiguous-per-wire block base, base+t, ..., base+(count-1)·t. A lone
  // token takes the single-token walk (the batch machinery costs
  // Θ(balancers) in scratch resets per call); more take one traverse_batch
  // pass, which cuts per-value atomic traffic by up to k× against k
  // single-token calls (bench_tab_throughput's per-token baseline). With
  // null out_values the pass writes no values; refund_n (inherited) takes
  // exactly that pass for any n: one RMW per balancer touched plus one per
  // exit wire, n traversals and 1 batch pass.
  void fetch_increment_batch(std::size_t thread_hint, std::size_t k,
                             std::int64_t* out_values) override;

  // Fetch&Decrement via an antitoken (paper §1.4.2 / Aiello et al.):
  // returns the counter value it reclaims — i.e. the value the next
  // Fetch&Increment will hand out again. The caller must never let the
  // outstanding count (increments minus decrements) go negative, exactly
  // like a semaphore.
  std::int64_t fetch_decrement(std::size_t thread_hint);

  // Bounded Fetch&Decrement of up to n values: one antitoken traversal,
  // then block claims, each cell CAS taking min(still needed, that wire's
  // surplus) values at once. A claim only succeeds while its wire has a
  // net-positive handed-out count, so the total taken can never exceed the
  // total of increments — no external semaphore discipline needed. The
  // claims sweep the exit cells round-robin from the antitoken's own exit
  // wire (under balanced traffic exactly where the most recent token's
  // value sits), so the op only comes up short when every cell sat at its
  // floor during the pass (the pool is genuinely empty, or concurrent
  // consumers are emptying it). On a miss the antitoken stays absorbed in
  // the balancer states and the next token through cancels it (paper
  // §1.4.2 token/antitoken duality): counts stay conserved and no value is
  // duplicated, but the quiescent outstanding set is no longer guaranteed
  // to be the exact prefix {0..c-1}. Use fetch_decrement when values are
  // identities (IDs); use this when they are pool tokens
  // (svc::NetTokenBucket).
  std::uint64_t try_fetch_decrement_n(
      std::size_t thread_hint, std::uint64_t n,
      std::int64_t* out_values = nullptr) override;

  std::string name() const override { return label_; }
  std::uint64_t stall_count() const override {
    return lines_.total(kStalls);
  }
  // Tokens + antitokens that entered the network: k per k-token batch (1
  // per single token), 1 antitoken per try_fetch_decrement_n call and per
  // fetch_decrement.
  std::uint64_t traversal_count() const override {
    return lines_.total(kTraversals);
  }
  // Batch passes taken by fetch_increment_batch's amortized path:
  // traversal_count() / batch_pass_count() is the observed tokens-per-pass,
  // the number that proves a shrunken batch chunk reached the network.
  std::uint64_t batch_pass_count() const override {
    return lines_.total(kBatchPasses);
  }

  std::size_t width_in() const noexcept { return net_.width_in(); }
  std::size_t width_out() const noexcept { return net_.width_out(); }
  const std::shared_ptr<const CompiledShape>& shape() const noexcept {
    return net_.shape();
  }
  // Exit wire `wire`'s cell: the next value a token leaving on it takes.
  // Meaningful while quiescent.
  std::int64_t exit_cell(std::size_t wire) const {
    return lines_.head(wire).value.load(std::memory_order_relaxed);
  }

 private:
  CompiledNetwork net_;
  std::string label_;
  BalancerMode mode_;
  // width_in() - 1 when width_in() is a power of two, else kNoMask.
  std::size_t entry_mask_;
  // The fields of each per-hint tally line.
  enum Tally : std::size_t { kStalls, kTraversals, kBatchPasses, kTallies };
  // One aligned block: the width_out() exit cells, then one tally line per
  // thread-hint slot.
  util::SlotArray<kTallies, util::Padded<util::Atomic<std::int64_t>>> lines_;

  util::Atomic<std::int64_t>& cell(std::size_t wire) noexcept {
    return lines_.head(wire).value;
  }

  // The input wire a token from `thread_hint` enters on: the hint mod
  // width_in(), by mask when the width allows.
  std::size_t entry_wire(std::size_t thread_hint) const noexcept;
  // One token (step +1) or antitoken (step -1) through the network from
  // `thread_hint`'s entry wire, tallied; returns its exit wire.
  std::size_t walk(std::size_t thread_hint, std::int64_t step);
};

}  // namespace cnet::rt
