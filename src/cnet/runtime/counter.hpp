// The shared-counter abstraction (paper §1.1): concurrent objects that
// support Fetch&Increment, handing out successive integer values. Every
// implementation in this library — counting networks, diffracting tree,
// central counters — implements this interface, so examples and benchmarks
// can swap them freely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace cnet::rt {

class Counter {
 public:
  virtual ~Counter() = default;

  // Each token operation has one virtual entry point, its batch form; a
  // single token is the batch of one. These wrappers are that batch.
  //
  // Returns the next counter value. `thread_hint` identifies the calling
  // process (used to pick the entry wire, l mod w, per paper §1.2); callers
  // should pass a stable per-thread index.
  std::int64_t fetch_increment(std::size_t thread_hint) {
    std::int64_t value = 0;
    fetch_increment_batch(thread_hint, 1, &value);
    return value;
  }

  // Tries to take back one outstanding value, so that a later
  // fetch_increment hands it out again: try_fetch_decrement_n of one.
  bool try_fetch_decrement(std::size_t thread_hint,
                           std::int64_t* reclaimed = nullptr) {
    return try_fetch_decrement_n(thread_hint, 1, reclaimed) == 1;
  }

  // Claims `k` counter values at once, writing them (in no particular
  // order) to out_values[0..k). The values are exactly those that k
  // back-to-back fetch_increment calls could have returned — no gaps, no
  // duplicates across concurrent callers. Batching backends amortize the
  // atomic traffic: a central counter claims the whole block with one RMW,
  // a network with one RMW per balancer touched instead of per token.
  //
  // A null out_values means "add k tokens, discard the values": the same
  // k increments, with no value written anywhere. This is organic supply
  // (a token bucket's refill), and refund_n(k) is exactly this call.
  virtual void fetch_increment_batch(std::size_t thread_hint, std::size_t k,
                                     std::int64_t* out_values) = 0;

  // Takes back up to `n` outstanding values and returns how many were
  // actually taken (0 when none is observably available — the counter then
  // stays semantically unchanged). When `out_values` is non-null, the
  // reclaimed values are written to out_values[0..got): the values later
  // fetch_increments hand out again. Unlike NetworkCounter::fetch_decrement,
  // callers need no external accounting: the implementation itself bounds
  // the net outstanding count at zero.
  //
  // This is the primitive the svc layer's token buckets consume through:
  // increments refill the pool, try-decrements drain it, and the bound at
  // zero is what makes "never over-admit" a local property. The default
  // says take-back is unsupported; backends that can bound the count
  // (central counters, network counters) override it, taking a whole block
  // in one step (one CAS, or one antitoken traversal plus block claims).
  virtual std::uint64_t try_fetch_decrement_n(
      std::size_t /*thread_hint*/, std::uint64_t /*n*/,
      std::int64_t* /*out_values*/ = nullptr) {
    return 0;
  }

  // Returns `n` tokens to the pool: a value-free fetch_increment_batch of
  // n, so each backend's bulk step serves it (central: one RMW; batched
  // network: one traversal pass). It names every give-back: the un-consume
  // of an all-or-nothing shortfall, a release of tokens granted earlier, a
  // respec migration, and a bucket's constructor seed.
  void refund_n(std::size_t thread_hint, std::uint64_t n) {
    fetch_increment_batch(thread_hint, static_cast<std::size_t>(n), nullptr);
  }

  virtual std::string name() const = 0;

  // Total observed contention events (failed CAS attempts on a balancer,
  // an exit cell or the central word), if the implementation tracks them;
  // 0 otherwise.
  virtual std::uint64_t stall_count() const { return 0; }

  // Total tokens and antitokens that entered the backing structure: k per
  // k-token batch (one per fetch_increment), one antitoken per
  // try_fetch_decrement_n call and per fetch_decrement. Central counters
  // have no structure to traverse and report 0. It is the numerator of the
  // "traversals per op" benches.
  virtual std::uint64_t traversal_count() const { return 0; }

  // Amortized batch passes taken through the structure (one per
  // fetch_increment_batch call that used a real batch traversal). Paired
  // with traversal_count this exposes the *effective* batch size —
  // traversals per pass — which is how an observer can tell that a smaller
  // batch chunk (the overload manager's shrink-batch action, or a staged
  // re-chunk through the reconfiguration engine) actually reached the
  // backend rather than stopping at a caller's loop arithmetic. Backends
  // without a batch path report 0.
  virtual std::uint64_t batch_pass_count() const { return 0; }
};

}  // namespace cnet::rt
