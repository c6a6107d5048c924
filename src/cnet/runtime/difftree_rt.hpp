// Diffracting-tree shared counter (Shavit & Zemach, TOCS'96) — the
// irregular randomized baseline of paper §1.4.1.
//
// Each internal tree node holds a toggle bit (a (1,2)-balancer) plus a
// "prism": an array of lock-free exchangers. An arriving token first tries
// to collide with a partner in a randomly chosen prism slot; a collided
// (diffracted) pair leaves on the two child wires without touching the
// toggle — correct because two toggle transitions would have sent them to
// the two children anyway. Tokens that find no partner fall through to the
// toggle. Leaf cells assign counter values exactly like counting-network
// output wires.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cnet/runtime/counter.hpp"
#include "cnet/util/cacheline.hpp"

namespace cnet::rt {

class DiffractingTreeCounter final : public Counter {
 public:
  struct Config {
    std::size_t leaves = 8;       // w = 2^k, k >= 1
    std::size_t prism_slots = 4;  // exchangers per node
    // How long a waiter holds a slot before withdrawing. Collisions only
    // pay off under heavy multiprogramming; keep this small on machines
    // with few cores (a waiter burns the full budget whenever no partner
    // shows up).
    std::size_t partner_spins = 16;
  };

  explicit DiffractingTreeCounter(const Config& config);

  // One token at a time: a collision pairs single tokens, so a batch of
  // k is k tree walks.
  void fetch_increment_batch(std::size_t thread_hint, std::size_t k,
                             std::int64_t* out_values) override;
  std::string name() const override;

  // Telemetry: how many node visits were resolved by collision vs toggle.
  std::uint64_t diffractions() const noexcept {
    return diffractions_.value.load(std::memory_order_relaxed);
  }
  std::uint64_t toggle_passes() const noexcept {
    return toggles_.value.load(std::memory_order_relaxed);
  }

 private:
  // Lock-free two-party exchanger; see try_exchange in the .cpp.
  struct alignas(util::kCacheLine) Exchanger {
    std::atomic<std::uint64_t> state{0};
  };
  struct alignas(util::kCacheLine) Node {
    std::atomic<std::uint64_t> toggle{0};
  };

  // One token's walk from the root to a leaf cell; returns its value.
  std::int64_t walk(std::size_t thread_hint);
  // Returns 0 (up) or 1 (down) for one node visit.
  unsigned visit_node(std::size_t node, std::uint64_t& rng_state);

  Config cfg_;
  std::size_t levels_ = 0;
  std::vector<Node> nodes_;           // heap order, node 1 is the root
  std::vector<Exchanger> prisms_;     // nodes_ x prism_slots
  std::vector<util::Padded<std::atomic<std::int64_t>>> cells_;
  util::Padded<std::atomic<std::uint64_t>> diffractions_{};
  util::Padded<std::atomic<std::uint64_t>> toggles_{};
};

}  // namespace cnet::rt
