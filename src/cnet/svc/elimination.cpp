#include "cnet/svc/elimination.hpp"

#include "cnet/util/ensure.hpp"
#include "cnet/util/prng.hpp"
#include "cnet/util/sched_point.hpp"

namespace cnet::svc {

namespace {

// Slot states (low 2 bits of the slot word). Only the depositing waiter
// ever returns a slot to kEmpty, and every return bumps the epoch in the
// high bits, so a stale catcher's CAS can never land on a successor
// occupant (no ABA without a separate generation word).
constexpr std::uint64_t kEmpty = 0;
constexpr std::uint64_t kWaitInc = 1;
constexpr std::uint64_t kWaitDec = 2;
constexpr std::uint64_t kPaired = 3;

constexpr std::uint64_t pack(std::uint64_t epoch, std::uint64_t state) {
  return (epoch << 2) | state;
}

std::uint64_t& thread_rng_state(std::size_t thread_hint) noexcept {
  thread_local std::uint64_t state = 0;
  if (state == 0) {
    state = 0x9e3779b97f4a7c15ULL * (thread_hint + 1) + 0x1995;
  }
  return state;
}

}  // namespace

EliminationLayer::EliminationLayer(const Config& cfg)
    : cfg_(cfg), lines_(cfg.slots, util::scatter_slots()) {
  CNET_REQUIRE(cfg_.slots > 0, "at least one elimination slot");
}

bool EliminationLayer::try_exchange(Role role, std::size_t thread_hint,
                                    std::size_t spins, std::int64_t* value) {
  CNET_REQUIRE(value != nullptr, "null value out-parameter");
  const std::uint64_t wait_state = role == Role::kInc ? kWaitInc : kWaitDec;
  const std::uint64_t partner_state =
      role == Role::kInc ? kWaitDec : kWaitInc;
  std::uint64_t& rng = thread_rng_state(thread_hint);
  const std::size_t start =
      static_cast<std::size_t>(util::xorshift64_star(rng) % cfg_.slots);

  // Catch pass: one sweep over the slots (random start) looking for an
  // already-waiting partner. A successful CAS keeps the partner's epoch, so
  // both sides derive the same pair value from it.
  for (std::size_t i = 0; i < cfg_.slots; ++i) {
    const std::size_t slot = (start + i) % cfg_.slots;
    std::uint64_t w = word(slot).load(std::memory_order_acquire);
    if ((w & 3) != partner_state) continue;
    const std::uint64_t epoch = w >> 2;
    if (word(slot).compare_exchange_strong(w, pack(epoch, kPaired),
                                           std::memory_order_acq_rel)) {
      lines_.add(kPairs, thread_hint, 1);
      *value = pair_value(slot, epoch);
      return true;
    }
  }
  if (spins == 0) return false;  // catch-only mode (batch/bulk paths)

  // Deposit pass: claim the first empty slot from the same random start and
  // wait for a partner within the spin budget.
  for (std::size_t i = 0; i < cfg_.slots; ++i) {
    const std::size_t slot = (start + i) % cfg_.slots;
    std::uint64_t w = word(slot).load(std::memory_order_acquire);
    if ((w & 3) != kEmpty) continue;
    const std::uint64_t epoch = w >> 2;
    if (!word(slot).compare_exchange_strong(w, pack(epoch, wait_state),
                                            std::memory_order_acq_rel)) {
      continue;
    }
    for (std::size_t spin = 0; spin < spins; ++spin) {
      if ((word(slot).load(std::memory_order_acquire) & 3) == kPaired) {
        word(slot).store(pack(epoch + 1, kEmpty), std::memory_order_release);
        *value = pair_value(slot, epoch);
        return true;
      }
      if ((spin & 15u) == 15u) util::sched_yield();
    }
    std::uint64_t expected = pack(epoch, wait_state);
    if (word(slot).compare_exchange_strong(expected, pack(epoch + 1, kEmpty),
                                           std::memory_order_acq_rel)) {
      lines_.add(kWithdrawals, thread_hint, 1);
      return false;
    }
    // A partner slipped in between the timeout check and the withdrawal.
    // The only transition another thread can make from our wait state is
    // the catcher's single CAS to kPaired, so the exchange is already
    // complete — reset the slot and take the pairing.
    word(slot).store(pack(epoch + 1, kEmpty), std::memory_order_release);
    *value = pair_value(slot, epoch);
    return true;
  }
  return false;  // every slot busy with same-role waiters or mid-pairing
}

ElimCounter::ElimCounter(std::unique_ptr<rt::Counter> inner,
                         const Config& cfg)
    : inner_(std::move(inner)), cfg_(cfg), layer_(cfg.layer) {
  CNET_REQUIRE(inner_ != nullptr, "null inner counter");
}

std::size_t ElimCounter::spin_budget(std::size_t base) const noexcept {
  const OverloadManager* mgr = overload_.load(std::memory_order_acquire);
  if (mgr == nullptr || !mgr->actions().force_eliminate) return base;
  return base * cfg_.overload_spin_boost;
}

void ElimCounter::fetch_increment_batch(std::size_t thread_hint,
                                        std::size_t k,
                                        std::int64_t* out_values) {
  // A lone token waits for a partner decrement within the increment spin
  // budget. A larger batch only catches: per-token spin budgets would
  // serialize it and defeat the amortized traversal the batched backends
  // provide. A value-free batch (null out_values) discards the caught
  // values and passes null on: no arithmetic on the null pointer.
  const std::size_t spins = k == 1 ? spin_budget(cfg_.inc_spins) : 0;
  std::size_t filled = 0;
  std::int64_t v = 0;
  while (filled < k && layer_.try_exchange(EliminationLayer::Role::kInc,
                                           thread_hint, spins, &v)) {
    if (out_values != nullptr) out_values[filled] = v;
    ++filled;
  }
  if (filled < k) {
    inner_->fetch_increment_batch(
        thread_hint, k - filled,
        out_values != nullptr ? out_values + filled : nullptr);
  }
}

std::uint64_t ElimCounter::try_fetch_decrement_n(std::size_t thread_hint,
                                                 std::uint64_t n,
                                                 std::int64_t* out_values) {
  // The mirror rule: a lone take waits within the decrement budget, so a
  // consume of one can pair with a racing batch refill; larger takes catch.
  const std::size_t spins = n == 1 ? spin_budget(cfg_.dec_spins) : 0;
  std::uint64_t got = 0;
  std::int64_t v = 0;
  while (got < n && layer_.try_exchange(EliminationLayer::Role::kDec,
                                        thread_hint, spins, &v)) {
    if (out_values != nullptr) out_values[got] = v;
    ++got;
  }
  if (got < n) {
    got += inner_->try_fetch_decrement_n(
        thread_hint, n - got,
        out_values != nullptr ? out_values + got : nullptr);
  }
  return got;
}

}  // namespace cnet::svc
