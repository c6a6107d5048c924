// Multi-tenant quota hierarchy over counting-network pools: each tenant
// owns a NetTokenBucket child, and a shortfall at the child borrows from a
// shared parent pool (any Counter backend kind) under a weighted
// max-borrow policy — the two-level shape real rate-limit deployments run
// (per-tenant buckets over a shared cluster budget), and exactly the
// workload a counting network exists for: many cold tenants and a few hot
// ones all contending on one parent pool.
//
//            ┌────────────── parent pool (shared, any spec) ─────────────┐
//            │   borrow ≤ weighted limit   ▲ release returns the borrow  │
//            └───────▲──────────▲──────────┼──────────▲──────────────────┘
//                    │          │          │          │
//               child[0]   child[1]      ...     child[T-1]
//              (NetTokenBucket per tenant; acquire drains child first)
//
// Conservation is exact and level-local: every token in a grant is
// traceable to the tenant's child bucket or to a parent borrow
// (Grant::from_child / from_parent), and release() returns each part to
// the level it came from — the parent can never absorb a child's tokens or
// vice versa, so at quiescence each pool holds exactly its refills minus
// its outstanding grants.
//
// Isolation comes from the reservation: a tenant's outstanding parent
// borrow can never exceed its weighted limit, not even transiently (the
// reservation CAS-loops over svc::borrow_allowance rather than
// add-then-correct). Size the borrow budget at most the parent's capacity
// minus the largest single acquire cost and a successful reservation is
// guaranteed to find its tokens in the parent — a hot tenant saturating
// its cap cannot make a cold tenant's in-cap borrow fail.
//
// The decision rules (weighted_borrow_limit, borrow_allowance,
// quota_acquire/quota_settle, reweigh_limits) live in svc/policy.hpp and
// are shared with the virtual-time simulator's quota model
// (sim::simulate_quota), so tenant-isolation and parent-contention claims
// are reproducible deterministically on any host.
//
// The weight vector is hot-reconfigurable: reweigh() stages a whole new
// per-tenant limit vector (svc::ReconfigEngine) and publishes it as a
// unit. Atomicity of the vector matters — mixed-generation per-tenant
// limits could sum above the borrow budget and silently void the
// parent-sizing isolation guarantee. In-flight grants are unaffected:
// outstanding borrows above a shrunken limit are never clawed back
// (borrow_overage names the quantity); borrow_allowance simply returns 0
// until releases drain the overage, and release() stays an exact undo
// throughout.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cnet/svc/backend.hpp"
#include "cnet/svc/net_token_bucket.hpp"
#include "cnet/svc/reconfig.hpp"
#include "cnet/util/atomic.hpp"
#include "cnet/util/cacheline.hpp"

namespace cnet::svc {

class OverloadManager;

class QuotaHierarchy {
 public:
  struct TenantConfig {
    std::uint64_t initial_tokens = 0;  // child bucket's starting pool
    std::uint64_t weight = 1;          // share of the parent borrow budget
  };

  struct Config {
    // Parent pool backend — the shared, contended structure. Any kind.
    // Each tenant's child bucket sees only its own tenant's traffic and is
    // always a kLocalPoolKind pool.
    BackendSpec parent;
    BackendConfig net;               // network shape for network kinds
    NetTokenBucket::Config bucket;   // refill chunking for every bucket
    std::uint64_t parent_initial_tokens = 0;
    // Total parent tokens that may be out on loan at once, divided among
    // tenants by weight (weighted_borrow_limit). For the isolation
    // guarantee, keep it <= parent capacity - largest single acquire.
    std::uint64_t borrow_budget = 0;
  };

  // One admission outcome. A grant's parts record which level covered it;
  // release() needs the whole struct back to undo it exactly.
  struct Grant {
    bool admitted = false;
    std::uint32_t tenant = 0;
    std::uint64_t from_child = 0;
    std::uint64_t from_parent = 0;
    std::uint64_t tokens() const noexcept { return from_child + from_parent; }
  };

  QuotaHierarchy(const Config& cfg, std::vector<TenantConfig> tenants);

  // All-or-nothing by default: `tokens` from the tenant's child bucket
  // first, the shortfall borrowed from the parent within the tenant's
  // weighted limit; on any shortfall everything is refunded to the level it
  // came from and the grant is rejected. With opts.partial_ok a short yield
  // still admits, Grant parts recording exactly what was taken. tokens == 0
  // is a defined no-op that admits with empty parts (same contract as
  // NetTokenBucket::consume). Two overload interventions apply: a shed
  // tenant is rejected up front without touching any pool, and the
  // degrade-partial action forces partial_ok regardless of opts (so
  // release() remains an exact undo — conservation is level-local in every
  // mode). Over-admission is impossible in every mode: each granted token
  // was decremented from a pool bounded at zero.
  Grant acquire(std::size_t thread_hint, std::size_t tenant,
                std::uint64_t tokens, ConsumeOptions opts = kAllOrNothing);

  // Returns a grant's tokens: the child part to the tenant's bucket, the
  // parent part to the parent pool (pool first, then the borrow headroom,
  // so a concurrent reservation that wins the freed headroom always finds
  // the tokens already back in the pool). Both go through the refund path.
  void release(std::size_t thread_hint, const Grant& grant);

  // Partially-spent settlement of a grant, for callers that consumed some
  // of a grant's tokens for good and hand back only the remainder (the
  // dist layer's lease ledger: an expired lease refunds its unspent part
  // exactly once). Refunds refund_child to the tenant's bucket and
  // refund_parent to the parent pool, while the borrow headroom is freed
  // for the grant's *entire* from_parent — spent parent tokens have left
  // the system for good and must stop occupying the tenant's weighted
  // limit, or spend would permanently leak reservation headroom. Requires
  // refund_child <= grant.from_child and refund_parent <= grant.from_parent;
  // call at most once per grant (it settles the whole grant — release() is
  // the refund_child == from_child, refund_parent == from_parent special
  // case). Conservation stays level-exact: each pool receives exactly the
  // unspent part of what it granted.
  void settle_spent(std::size_t thread_hint, const Grant& grant,
                    std::uint64_t refund_child, std::uint64_t refund_parent);

  // Capacity additions (these *are* load, unlike release's give-backs).
  void refill_tenant(std::size_t thread_hint, std::size_t tenant,
                     std::uint64_t tokens);
  void refill_parent(std::size_t thread_hint, std::uint64_t tokens) {
    parent_.refill(thread_hint, tokens);
  }

  // Shedding (the overload manager's top tier, but callable directly):
  // while shed, every acquire for the tenant is rejected before touching
  // any pool — held grants stay valid and release() keeps working, so
  // tokens already out are returned exactly as usual and conservation is
  // unaffected. restore() re-admits; both are idempotent.
  void shed(std::size_t tenant);
  void restore(std::size_t tenant);
  bool is_shed(std::size_t tenant) const;

  // Re-divides the parent borrow budget among tenants under a new weight
  // vector, mid-traffic (ReconfigEngine commit). The whole limit vector
  // publishes as one unit after reader quiescence; acquires racing the
  // commit reserve against the old limits or the new, never a mix. No
  // migration step runs — borrows already out stay out (see borrow_overage
  // in svc/policy.hpp): a tenant whose limit shrank below its outstanding
  // borrow simply gets no new allowance until releases drain the overage,
  // and every release() remains an exact undo of its grant. Requires
  // reweigh_safe(num_tenants(), weights). Returns the new config version.
  std::uint64_t reweigh(std::size_t thread_hint,
                        const std::vector<std::uint64_t>& weights);

  // Version stamp: bumped once per committed reweigh (starts at 1).
  std::uint64_t config_version() const noexcept {
    return weights_.config_version();
  }
  // Watch reweigh commits (ReconfigEngine::subscribe contract; delivered by
  // the engine on the committing thread, under the commit lock).
  void subscribe(CommitCallback on_commit) {
    weights_.subscribe(std::move(on_commit));
  }

  // Puts the hierarchy under an overload manager (usually via
  // OverloadManager::govern): acquires honor the degrade-partial action,
  // and the parent and child buckets (plus their aware pool layers) get
  // the shrink/force actions. The manager must outlive the hierarchy;
  // nullptr detaches.
  void attach_overload(const OverloadManager* manager) noexcept;

  std::size_t num_tenants() const noexcept { return tenants_.size(); }
  // Tokens tenant `t` currently has on loan from the parent. Bounded by
  // borrow_limit(t) at every instant.
  std::uint64_t borrowed(std::size_t tenant) const;
  std::uint64_t borrow_limit(std::size_t tenant) const;
  std::uint64_t weight(std::size_t tenant) const;

  NetTokenBucket& parent() noexcept { return parent_; }
  NetTokenBucket& child(std::size_t tenant);
  std::uint64_t stall_count() const;
  std::string name() const { return "quota·" + parent_.pool().name(); }

 private:
  struct alignas(util::kCacheLine) TenantState {
    std::unique_ptr<NetTokenBucket> bucket;
    // util::Atomic: the reservation CAS loop over this word (inside a
    // weights_ read section) is one of the schedule checker's protocols.
    util::Atomic<std::uint64_t> borrowed{0};
    std::atomic<bool> shed{false};
  };

  // The unit reweigh() swaps: weights and the limits derived from them are
  // published together so limits[i] always reflects weights' own total.
  struct WeightState {
    std::vector<std::uint64_t> weights;
    std::vector<std::uint64_t> limits;
  };

  static std::unique_ptr<WeightState> make_weights(
      std::uint64_t borrow_budget, std::size_t tenants,
      const std::vector<std::uint64_t>& weights);

  // Secures up to `want` borrow headroom for the tenant; the CAS loop over
  // borrow_allowance keeps borrowed <= limit an always-true invariant. The
  // limit is read inside one engine read section, so the whole loop runs
  // against a single weight generation.
  std::uint64_t reserve_borrow(std::size_t thread_hint, std::size_t tenant,
                               TenantState& state, std::uint64_t want);

  NetTokenBucket parent_;
  util::LineArray<TenantState> tenants_;
  ReconfigEngine<WeightState> weights_;
  std::uint64_t borrow_budget_ = 0;
  const OverloadManager* overload_ = nullptr;
};

}  // namespace cnet::svc
