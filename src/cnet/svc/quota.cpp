#include "cnet/svc/quota.hpp"

#include <utility>

#include "cnet/svc/overload.hpp"
#include "cnet/svc/policy.hpp"
#include "cnet/util/ensure.hpp"

namespace cnet::svc {

std::unique_ptr<QuotaHierarchy::WeightState> QuotaHierarchy::make_weights(
    std::uint64_t borrow_budget, std::size_t tenants,
    const std::vector<std::uint64_t>& weights) {
  CNET_REQUIRE(reweigh_safe(tenants, weights),
               "weight vector must cover every tenant with positive weights");
  auto state = std::make_unique<WeightState>();
  state->weights = weights;
  state->limits = reweigh_limits(borrow_budget, weights);
  return state;
}

namespace {
std::vector<std::uint64_t> initial_weights(
    const std::vector<QuotaHierarchy::TenantConfig>& tenants) {
  std::vector<std::uint64_t> weights;
  weights.reserve(tenants.size());
  for (const auto& t : tenants) weights.push_back(t.weight);
  return weights;
}
}  // namespace

QuotaHierarchy::QuotaHierarchy(const Config& cfg,
                               std::vector<TenantConfig> tenants)
    : parent_(make_counter(cfg.parent.kind, cfg.net),
              NetTokenBucket::Config{cfg.parent_initial_tokens,
                                     cfg.bucket.refill_chunk}),
      tenants_(tenants.size()),
      weights_(make_weights(cfg.borrow_budget, tenants.size(),
                            initial_weights(tenants))),
      borrow_budget_(cfg.borrow_budget) {
  CNET_REQUIRE(!tenants.empty(), "at least one tenant");
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants_[i].bucket = std::make_unique<NetTokenBucket>(
        make_counter(kLocalPoolKind),
        NetTokenBucket::Config{tenants[i].initial_tokens,
                               cfg.bucket.refill_chunk});
  }
}

std::uint64_t QuotaHierarchy::reserve_borrow(std::size_t thread_hint,
                                             std::size_t tenant,
                                             TenantState& state,
                                             std::uint64_t want) {
  return weights_.read(thread_hint, [&](const WeightState& ws) -> std::uint64_t {
    const std::uint64_t limit = ws.limits[tenant];
    std::uint64_t cur = state.borrowed.load(std::memory_order_relaxed);
    for (;;) {
      // All-or-nothing, like the acquire plan that consumes it: a partial
      // reservation is doomed to be returned, and committing it would hold
      // cap headroom hostage for the whole refund window — long enough to
      // falsely reject a sibling thread's genuinely in-cap borrow. (The
      // simulator's quota model makes the same commit-only-if-full
      // decision.) After a reweigh shrinks the limit below the outstanding
      // borrow, borrow_allowance is 0 here until releases drain the
      // overage — the new cap binds without any claw-back.
      if (borrow_allowance(want, cur, limit) < want) return 0;
      // acq_rel: a winning reservation must observe the parent-pool refund
      // that preceded the release which freed this headroom (release puts
      // the tokens back *before* shrinking borrowed).
      if (state.borrowed.compare_exchange_weak(cur, cur + want,
                                               std::memory_order_acq_rel)) {
        return want;
      }
    }
  });
}

QuotaHierarchy::Grant QuotaHierarchy::acquire(std::size_t thread_hint,
                                              std::size_t tenant,
                                              std::uint64_t tokens,
                                              ConsumeOptions opts) {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  TenantState& state = tenants_[tenant];
  if (state.shed.load(std::memory_order_acquire)) {
    // A shed tenant is rejected before any pool is touched: no tokens
    // move, so there is nothing to refund and conservation is trivial.
    Grant rejected;
    rejected.tenant = static_cast<std::uint32_t>(tenant);
    return rejected;
  }
  // Degrade-partial is decided here (not in the buckets) so the grant's
  // parts record exactly what was taken — release() stays an exact undo.
  // The overload action forces partial settlement on top of whatever the
  // caller asked for; it never forces all-or-nothing.
  if (overload_ != nullptr && overload_->actions().degrade_to_partial) {
    opts.partial_ok = true;
  }
  // The whole flow is the shared svc::quota_acquire plan; only the
  // concrete take/refund/reserve mechanics live here. The level takes are
  // always partial — the settlement rule, not the pools, decides whether a
  // short yield admits under opts.
  const QuotaGrantPlan plan = quota_acquire(
      tokens,
      [&](std::uint64_t n) {
        return state.bucket->consume(thread_hint, n, kPartialOk);
      },
      [&](std::uint64_t n) {
        return reserve_borrow(thread_hint, tenant, state, n);
      },
      [&](std::uint64_t n) {
        state.borrowed.fetch_sub(n, std::memory_order_release);
      },
      [&](std::uint64_t n) {
        return parent_.consume(thread_hint, n, kPartialOk);
      },
      [&](std::uint64_t n) { state.bucket->refund(thread_hint, n); },
      [&](std::uint64_t n) { parent_.refund(thread_hint, n); },
      opts);
  Grant grant;
  grant.admitted = plan.admitted;
  grant.tenant = static_cast<std::uint32_t>(tenant);
  grant.from_child = plan.from_child;
  grant.from_parent = plan.from_parent;
  return grant;
}

void QuotaHierarchy::release(std::size_t thread_hint, const Grant& grant) {
  settle_spent(thread_hint, grant, grant.from_child, grant.from_parent);
}

void QuotaHierarchy::settle_spent(std::size_t thread_hint, const Grant& grant,
                                  std::uint64_t refund_child,
                                  std::uint64_t refund_parent) {
  CNET_REQUIRE(grant.admitted, "settlement of a rejected grant");
  CNET_REQUIRE(grant.tenant < tenants_.size(), "grant tenant out of range");
  CNET_REQUIRE(refund_child <= grant.from_child,
               "child refund exceeds the grant's child part");
  CNET_REQUIRE(refund_parent <= grant.from_parent,
               "parent refund exceeds the grant's parent part");
  TenantState& state = tenants_[grant.tenant];
  if (refund_child > 0) {
    state.bucket->refund(thread_hint, refund_child);
  }
  // Pool before headroom: once the borrowed tokens are observable in the
  // parent again, shrinking `borrowed` may let a waiting reservation win —
  // and it will find what it reserved. Reweigh-independent: the grant
  // records what was borrowed under whatever limits then held, so the undo
  // is exact under any current weight generation. The headroom freed is
  // the whole from_parent — a spent remainder left the system for good and
  // must not keep occupying the tenant's weighted limit — but only the
  // unspent part goes back to the pool, so the parent's count stays exact.
  if (refund_parent > 0) {
    parent_.refund(thread_hint, refund_parent);
  }
  if (grant.from_parent > 0) {
    state.borrowed.fetch_sub(grant.from_parent, std::memory_order_release);
  }
}

std::uint64_t QuotaHierarchy::reweigh(
    std::size_t thread_hint, const std::vector<std::uint64_t>& weights) {
  (void)thread_hint;
  auto next = make_weights(borrow_budget_, tenants_.size(), weights);
  // No migration: outstanding borrows carry over untouched. The commit's
  // quiescence wait is what guarantees no reservation CAS-loop straddles
  // the generations — each loop ran wholly against old limits or runs
  // wholly against new ones.
  return weights_.commit(std::move(next),
                         [](WeightState&, WeightState&) {});
}

void QuotaHierarchy::refill_tenant(std::size_t thread_hint,
                                   std::size_t tenant, std::uint64_t tokens) {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  tenants_[tenant].bucket->refill(thread_hint, tokens);
}

void QuotaHierarchy::shed(std::size_t tenant) {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  tenants_[tenant].shed.store(true, std::memory_order_release);
}

void QuotaHierarchy::restore(std::size_t tenant) {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  tenants_[tenant].shed.store(false, std::memory_order_release);
}

bool QuotaHierarchy::is_shed(std::size_t tenant) const {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  return tenants_[tenant].shed.load(std::memory_order_acquire);
}

void QuotaHierarchy::attach_overload(const OverloadManager* manager) noexcept {
  overload_ = manager;
  parent_.attach_overload(manager);
  for (TenantState& state : tenants_) state.bucket->attach_overload(manager);
}

std::uint64_t QuotaHierarchy::borrowed(std::size_t tenant) const {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  return tenants_[tenant].borrowed.load(std::memory_order_acquire);
}

std::uint64_t QuotaHierarchy::borrow_limit(std::size_t tenant) const {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  return weights_.current().limits[tenant];
}

std::uint64_t QuotaHierarchy::weight(std::size_t tenant) const {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  return weights_.current().weights[tenant];
}

NetTokenBucket& QuotaHierarchy::child(std::size_t tenant) {
  CNET_REQUIRE(tenant < tenants_.size(), "tenant index out of range");
  return *tenants_[tenant].bucket;
}

std::uint64_t QuotaHierarchy::stall_count() const {
  std::uint64_t total = parent_.stall_count();
  for (const TenantState& state : tenants_) {
    total += state.bucket->stall_count();
  }
  return total;
}

}  // namespace cnet::svc
