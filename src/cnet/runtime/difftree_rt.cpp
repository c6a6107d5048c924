#include "cnet/runtime/difftree_rt.hpp"

#include "cnet/util/bitops.hpp"
#include "cnet/util/ensure.hpp"
#include "cnet/util/prng.hpp"
#include "cnet/util/sched_point.hpp"

namespace cnet::rt {

namespace {

// Exchanger states. Only the waiter ever resets to kEmpty, which rules out
// ABA without generation tags.
constexpr std::uint64_t kEmpty = 0;
constexpr std::uint64_t kWaiting = 1;
constexpr std::uint64_t kPaired = 2;

// Returns 0 if this token became the waiter and was paired (takes the top
// wire), 1 if it paired with a waiter (takes the bottom wire), -1 on miss.
int try_exchange(std::atomic<std::uint64_t>& state, std::size_t spins) {
  std::uint64_t s = state.load(std::memory_order_acquire);
  if (s == kEmpty) {
    std::uint64_t expected = kEmpty;
    if (!state.compare_exchange_strong(expected, kWaiting,
                                       std::memory_order_acq_rel)) {
      return -1;
    }
    for (std::size_t i = 0; i < spins; ++i) {
      if (state.load(std::memory_order_acquire) == kPaired) {
        state.store(kEmpty, std::memory_order_release);
        return 0;
      }
      if ((i & 15u) == 15u) util::sched_yield();
    }
    expected = kWaiting;
    if (state.compare_exchange_strong(expected, kEmpty,
                                      std::memory_order_acq_rel)) {
      return -1;  // withdrew before anyone arrived
    }
    // A partner slipped in between the timeout check and the withdrawal:
    // the state is now kPaired; complete the exchange.
    while (state.load(std::memory_order_acquire) != kPaired) {
      util::sched_yield();
    }
    state.store(kEmpty, std::memory_order_release);
    return 0;
  }
  if (s == kWaiting) {
    std::uint64_t expected = kWaiting;
    if (state.compare_exchange_strong(expected, kPaired,
                                      std::memory_order_acq_rel)) {
      return 1;
    }
  }
  return -1;
}

}  // namespace

DiffractingTreeCounter::DiffractingTreeCounter(const Config& config)
    : cfg_(config) {
  CNET_REQUIRE(cfg_.leaves >= 2 && util::is_pow2(cfg_.leaves),
               "diffracting tree needs 2^k >= 2 leaves");
  CNET_REQUIRE(cfg_.prism_slots >= 1, "need at least one prism slot");
  levels_ = util::ilog2(cfg_.leaves);
  nodes_ = std::vector<Node>(cfg_.leaves);  // heap slots 1..leaves-1 used
  prisms_ = std::vector<Exchanger>(cfg_.leaves * cfg_.prism_slots);
  cells_ = std::vector<util::Padded<std::atomic<std::int64_t>>>(cfg_.leaves);
  for (std::size_t i = 0; i < cfg_.leaves; ++i) {
    cells_[i].value.store(static_cast<std::int64_t>(i),
                          std::memory_order_relaxed);
  }
}

unsigned DiffractingTreeCounter::visit_node(std::size_t node,
                                            std::uint64_t& rng_state) {
  const std::size_t slot =
      node * cfg_.prism_slots +
      static_cast<std::size_t>(util::xorshift64_star(rng_state) %
                               cfg_.prism_slots);
  const int r = try_exchange(prisms_[slot].state, cfg_.partner_spins);
  if (r >= 0) {
    diffractions_.value.fetch_add(1, std::memory_order_relaxed);
    return static_cast<unsigned>(r);
  }
  toggles_.value.fetch_add(1, std::memory_order_relaxed);
  return static_cast<unsigned>(
      nodes_[node].toggle.fetch_add(1, std::memory_order_relaxed) & 1u);
}

std::int64_t DiffractingTreeCounter::walk(std::size_t thread_hint) {
  thread_local std::uint64_t rng_state = 0;
  if (rng_state == 0) {
    rng_state = 0x9e3779b97f4a7c15ULL * (thread_hint + 1) + 0x1998;
  }
  std::size_t node = 1;
  std::size_t leaf_bits = 0;
  for (std::size_t level = 0; level < levels_; ++level) {
    const unsigned bit = visit_node(node, rng_state);
    leaf_bits |= static_cast<std::size_t>(bit) << level;
    node = node * 2 + bit;
  }
  // Leaf j hands out j, j + w, j + 2w, ... — the k-th token overall gets k
  // once the structure is quiescent, exactly like a counting network.
  return cells_[leaf_bits].value.fetch_add(
      static_cast<std::int64_t>(cfg_.leaves), std::memory_order_relaxed);
}

void DiffractingTreeCounter::fetch_increment_batch(std::size_t thread_hint,
                                                   std::size_t k,
                                                   std::int64_t* out_values) {
  for (std::size_t i = 0; i < k; ++i) {
    const std::int64_t v = walk(thread_hint);
    if (out_values != nullptr) out_values[i] = v;
  }
}

std::string DiffractingTreeCounter::name() const {
  return "difftree(" + std::to_string(cfg_.leaves) + ")";
}

}  // namespace cnet::rt
