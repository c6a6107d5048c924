// Elimination front-end for shared counters (Shavit & Touitou, SPAA'95 —
// the same collision idea as the diffracting tree's prisms in
// runtime/difftree_rt.hpp, applied to cancellation instead of diffraction):
// an increment and a decrement that meet in an exchange slot annihilate
// *locally*. The pair linearizes as inc-immediately-before-dec at the
// collision CAS, so neither token ever enters the backing structure — under
// a mixed inc/dec workload the network sees only the imbalance between the
// two streams, not their sum.
//
// EliminationLayer is the raw slot array; ElimCounter is the rt::Counter
// that owns a backend and places the layer in front of it (the svc factory
// wires it up via BackendSpec::elimination).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "cnet/runtime/counter.hpp"
#include "cnet/svc/overload.hpp"
#include "cnet/svc/policy.hpp"
#include "cnet/util/atomic.hpp"
#include "cnet/util/cacheline.hpp"
#include "cnet/util/slot_array.hpp"

namespace cnet::svc {

// A padded array of exchange slots. An op arrives with a role (increment or
// decrement); if the randomly probed slot holds a waiting op of the
// *opposite* role the two pair up and both succeed locally, otherwise the
// arriver may deposit itself and spin for a partner within a bounded
// budget. Misses fall through to whatever backing path the caller has.
//
// Paired ops agree on a synthesized negative value (unique per pairing,
// derived from the slot's epoch), so multiset accounting stays exact — the
// inc hands out exactly the value the dec reclaims — while never colliding
// with the non-negative values real backends assign.
class EliminationLayer {
 public:
  struct Config {
    // Exchange slots. Arrivals sweep every slot for a partner, so extra
    // slots don't hurt the hit-rate — size this at or above the expected
    // mixed-op thread count. Undersizing is what hurts: on an
    // oversubscribed machine a descheduled waiter parks in its slot for a
    // whole timeslice, and once every slot is parked, running threads fall
    // straight through to the backend and the hit-rate collapses.
    std::size_t slots = 8;
    // Spin budget a deposited waiter burns before withdrawing (with a yield
    // every 16 spins so single-core boxes still collide).
    std::size_t max_spins = 512;
  };

  enum class Role : std::uint8_t { kInc, kDec };

  explicit EliminationLayer(const Config& cfg);

  // Tries to eliminate one op of `role`. Returns true on a pairing and
  // stores the pair's agreed value in *value (always negative). With
  // spins == 0 the op only *catches* an already-waiting partner and never
  // deposits itself — the mode batch refills use, where per-token waiting
  // would serialize the batch.
  bool try_exchange(Role role, std::size_t thread_hint, std::size_t spins,
                    std::int64_t* value);
  bool try_exchange(Role role, std::size_t thread_hint, std::int64_t* value) {
    return try_exchange(role, thread_hint, cfg_.max_spins, value);
  }

  std::size_t num_slots() const noexcept { return cfg_.slots; }
  // Pairs completed (each pair is one eliminated inc AND one eliminated
  // dec); counted once, on the catcher's side.
  std::uint64_t pairs() const noexcept { return lines_.total(kPairs); }
  // Deposits that timed out and withdrew to the backing path.
  std::uint64_t withdrawals() const noexcept {
    return lines_.total(kWithdrawals);
  }

 private:
  // Slot word layout: low 2 bits = state, high 62 bits = epoch. The epoch
  // advances whenever the slot returns to empty (withdrawal or pair
  // completion), which (a) kills ABA on the catcher's CAS and (b) names the
  // pairing via the shared svc::elimination_pair_value rule, unique per
  // collision (the simulator's elimination model synthesizes the same
  // values, so model and real multisets cancel identically).
  // util::Atomic: the catcher/waiter CAS dance on the slot word is exactly
  // what the schedule checker explores (every load/CAS one step).
  struct alignas(util::kCacheLine) Slot {
    util::Atomic<std::uint64_t> word{0};
  };

  std::int64_t pair_value(std::size_t slot, std::uint64_t epoch) const {
    return elimination_pair_value(cfg_.slots, slot, epoch);
  }

  util::Atomic<std::uint64_t>& word(std::size_t slot) noexcept {
    return lines_.head(slot).word;
  }

  // The fields of each per-hint tally line.
  enum Tally : std::size_t { kPairs, kWithdrawals, kTallies };

  Config cfg_;
  // One aligned block: the cfg_.slots exchange slots, then one tally line
  // per thread-hint slot.
  util::SlotArray<kTallies, Slot> lines_;
};

// The front-end counter: it owns an inner backend and forwards to it
// whatever the layer does not pair. A lone token (a batch of one, or a
// take of one) catches a waiting partner or deposits itself and spins for
// one within its role's budget; larger calls catch already-waiting
// partners without spinning, then send the remainder to the inner counter
// (sim::ElimModel applies the same rule). Refunds and telemetry reads go
// straight to the inner counter. Counts are conserved exactly — each
// elimination pairs one inc with one dec, linearized back-to-back — and the
// inner backend's bound-at-zero guarantee is preserved, because an
// eliminated decrement succeeds only against an increment that is
// concurrently in flight.
//
// Value semantics: eliminated pairs exchange synthesized negative values
// that cancel in any inc-minus-dec multiset, so the *outstanding* set (and
// hence pool/token-bucket accounting) is exactly that of the inner counter.
// Do not use values from an ElimCounter as identities (IDs): a value
// returned by an eliminated increment is immediately reclaimed by its
// paired decrement rather than drawn from the backend's sequence.
class ElimCounter final : public rt::Counter {
 public:
  struct Config {
    EliminationLayer::Config layer;
    // Spin budgets per role for a lone token (0 = catch-only).
    // Increments wait by default (ISSUE archetype: inc spins, dec cancels);
    // decrements get a short budget so consume-heavy buckets still pair
    // with batch refills.
    std::size_t inc_spins = 512;
    std::size_t dec_spins = 64;
    // Multiplier applied to both lone-token spin budgets while an attached
    // overload manager's tier carries force_eliminate: waiting longer for
    // a partner trades per-op latency for fewer backend traversals, the
    // right trade exactly when the backend is the saturated resource.
    std::size_t overload_spin_boost = 8;
  };

  ElimCounter(std::unique_ptr<rt::Counter> inner, const Config& cfg);
  explicit ElimCounter(std::unique_ptr<rt::Counter> inner)
      : ElimCounter(std::move(inner), Config{}) {}

  void fetch_increment_batch(std::size_t thread_hint, std::size_t k,
                             std::int64_t* out_values) override;
  std::uint64_t try_fetch_decrement_n(
      std::size_t thread_hint, std::uint64_t n,
      std::int64_t* out_values = nullptr) override;

  // Give-backs land in the inner pool unconditionally: they are never
  // parked in an exchange slot waiting for a partner.
  void refund_n(std::size_t thread_hint, std::uint64_t n) override {
    inner_->refund_n(thread_hint, n);
  }

  std::string name() const override { return "elim·" + inner_->name(); }
  std::uint64_t stall_count() const override { return inner_->stall_count(); }
  std::uint64_t traversal_count() const override {
    return inner_->traversal_count();
  }
  std::uint64_t batch_pass_count() const override {
    return inner_->batch_pass_count();
  }

  // Overload hook (NetTokenBucket::attach_overload): force_eliminate widens
  // the lone-token pairing window by Config::overload_spin_boost. Pure
  // routing — pairs still conserve counts exactly, and misses still fall
  // through to the inner backend. The manager must outlive the counter;
  // nullptr detaches.
  void attach_overload(const OverloadManager* manager) noexcept {
    overload_.store(manager, std::memory_order_release);
  }

  rt::Counter& inner() noexcept { return *inner_; }
  const rt::Counter& inner() const noexcept { return *inner_; }
  EliminationLayer& layer() noexcept { return layer_; }
  const EliminationLayer& layer() const noexcept { return layer_; }

 private:
  // The spin budget for one lone-token attempt under the current tier.
  std::size_t spin_budget(std::size_t base) const noexcept;

  std::unique_ptr<rt::Counter> inner_;
  Config cfg_;
  EliminationLayer layer_;
  std::atomic<const OverloadManager*> overload_{nullptr};
};

}  // namespace cnet::svc
