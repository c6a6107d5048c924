#include "cnet/dist/peer_cluster.hpp"

#include <algorithm>
#include <utility>

#include "cnet/util/ensure.hpp"

namespace cnet::dist {

PeerCluster::PeerCluster(Topology topo, const ClusterConfig& cfg)
    : topo_(std::move(topo)), cfg_(cfg) {
  CNET_REQUIRE(cfg.lease_chunk > 0, "lease_chunk must be positive");
  CNET_REQUIRE(cfg.lease_cap >= cfg.lease_chunk,
               "lease_cap must cover at least one chunk");
  CNET_REQUIRE(cfg.lease_ttl > 0, "lease_ttl must be positive");
  CNET_REQUIRE(cfg.reconcile_chunk > 0, "reconcile_chunk must be positive");
  const std::size_t n = topo_.num_nodes();

  svc::QuotaHierarchy::Config qcfg;
  qcfg.parent = cfg.parent_spec;
  qcfg.net = cfg.net;
  qcfg.bucket.refill_chunk = cfg.refill_chunk;
  qcfg.parent_initial_tokens = cfg.parent_initial;
  qcfg.borrow_budget = cfg.borrow_budget;
  // Every node starts at weight 1; global().reweigh changes that live.
  std::vector<svc::QuotaHierarchy::TenantConfig> accounts(
      n, {cfg.node_account_initial, 1});
  global_ = std::make_unique<svc::QuotaHierarchy>(qcfg, std::move(accounts));

  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto ns = std::make_unique<NodeState>();
    // The local admission pool sees only this node's traffic.
    ns->local = std::make_unique<svc::NetTokenBucket>(
        svc::make_counter(svc::kLocalPoolKind),
        svc::NetTokenBucket::Config{cfg.local_initial, cfg.refill_chunk});
    ns->balance.store(static_cast<std::int64_t>(cfg.local_initial),
                      std::memory_order_relaxed);
    ns->overload = std::make_unique<svc::OverloadManager>();
    ns->overload->add_monitor(svc::make_reject_ratio_monitor(*ns->local));
    ns->local->attach_overload(ns->overload.get());
    nodes_.push_back(std::move(ns));
  }
  total_initial_ =
      cfg.parent_initial +
      static_cast<std::uint64_t>(n) *
          (cfg.node_account_initial + cfg.local_initial);

  // SDS-style watch instead of polling: every reweigh commit is pushed to
  // the nodes from the hierarchy's commit path. A partitioned node misses
  // the push (its control plane is down) and catches up at heal().
  global_->subscribe([this](std::uint64_t version) {
    for (auto& ns : nodes_) {
      if (!ns->partitioned.load(std::memory_order_acquire)) {
        ns->observed_version.store(version, std::memory_order_release);
      }
    }
  });
}

PeerCluster::NodeState& PeerCluster::node_state(std::size_t node) const {
  CNET_REQUIRE(node < nodes_.size(), "node index out of range");
  return *nodes_[node];
}

std::uint64_t PeerCluster::admit(std::size_t thread_hint, std::size_t node,
                                 std::uint64_t cost) {
  NodeState& ns = node_state(node);
  // Degrade is decided here, per node, so the caller learns the exact
  // partial charge — the same contract as AdmissionController::admit.
  const bool degrade = ns.overload->actions().degrade_to_partial;
  const std::uint64_t got = ns.local->consume(
      thread_hint, cost, degrade ? svc::kPartialOk : svc::kAllOrNothing);
  if (got > 0) {
    ns.spent.fetch_add(got, std::memory_order_relaxed);
    ns.balance.fetch_sub(static_cast<std::int64_t>(got),
                         std::memory_order_relaxed);
  }
  return got;
}

std::uint64_t PeerCluster::donate(std::size_t thread_hint, std::size_t donor,
                                  std::size_t to, std::uint64_t want) {
  NodeState& from = node_state(donor);
  NodeState& dest = node_state(to);
  if (from.partitioned.load(std::memory_order_acquire)) return 0;
  // Both ledgers lock together (std::lock's deadlock-avoiding order);
  // the carve and the recipient's new lease records are one atomic step.
  const util::DualMutexLock lock(from.ledger, dest.ledger);
  // A donation moves *leased* tokens only: every donated token keeps its
  // hierarchy grant parts, so its eventual expiry still settles against
  // the donor's account exactly. Surplus above the reserve is the shared
  // peer_surplus rule over the advisory balance.
  std::uint64_t leased_active = 0;
  for (const Lease& lease : from.leases) {
    if (!lease.settled) leased_active += lease.grant.tokens();
  }
  const auto balance = from.balance.load(std::memory_order_relaxed);
  const std::uint64_t surplus = peer_surplus(
      balance > 0 ? static_cast<std::uint64_t>(balance) : 0,
      cfg_.peer_reserve);
  const std::uint64_t give =
      std::min({want, surplus, leased_active});
  if (give == 0) return 0;
  // Drain the actual tokens first (the pool is the ground truth; the
  // advisory balance may run ahead of it), then carve exactly that many
  // grant parts out of the donor's newest active leases, child-first.
  const std::uint64_t drained =
      from.local->consume(thread_hint, give, svc::kPartialOk);
  if (drained == 0) return 0;
  from.balance.fetch_sub(static_cast<std::int64_t>(drained),
                         std::memory_order_relaxed);
  const std::uint64_t expiry = now_.load(std::memory_order_acquire) +
                               cfg_.lease_ttl;
  std::uint64_t remaining = drained;
  for (auto it = from.leases.rbegin();
       it != from.leases.rend() && remaining > 0; ++it) {
    Lease& lease = *it;
    if (lease.settled) continue;
    const CarvedParts parts = lease_carve(remaining, lease.grant.from_child,
                                          lease.grant.from_parent);
    if (parts.tokens() == 0) continue;
    lease.grant.from_child -= parts.from_child;
    lease.grant.from_parent -= parts.from_parent;
    if (lease.grant.tokens() == 0) lease.settled = true;  // fully carved away
    Lease transferred;
    transferred.grant.admitted = true;
    transferred.grant.tenant = lease.grant.tenant;  // settles to the donor
    transferred.grant.from_child = parts.from_child;
    transferred.grant.from_parent = parts.from_parent;
    transferred.expiry = expiry;
    dest.leases.push_back(transferred);
    remaining -= parts.tokens();
  }
  CNET_ENSURE(remaining == 0, "donated tokens exceeded donor lease parts");
  dest.local->refill(thread_hint, drained);
  dest.balance.fetch_add(static_cast<std::int64_t>(drained),
                         std::memory_order_relaxed);
  donations_.fetch_add(1, std::memory_order_relaxed);
  donated_tokens_.fetch_add(drained, std::memory_order_relaxed);
  return drained;
}

std::uint64_t PeerCluster::renew(std::size_t thread_hint, std::size_t node,
                                 std::uint64_t want) {
  NodeState& ns = node_state(node);
  if (ns.partitioned.load(std::memory_order_acquire)) return 0;
  const std::uint64_t current = now_.load(std::memory_order_acquire);
  const std::uint64_t fresh_expiry = current + cfg_.lease_ttl;
  {
    // The heartbeat half: extend every active lease. The settled flag is
    // the exactly-once guard — a lease the expiry sweep already settled
    // (possibly racing this renewal on another thread) is never revived.
    const util::MutexLock lock(ns.ledger);
    for (Lease& lease : ns.leases) {
      if (!lease.settled) lease.expiry = std::max(lease.expiry, fresh_expiry);
    }
  }
  const std::uint64_t ask =
      lease_grant(want, cfg_.lease_chunk, cfg_.lease_cap);
  std::uint64_t gained = 0;
  // Nearest-first donation walk; the shared renewal_target rule decides
  // the order, the shared peer_surplus/lease_carve rules decide the size.
  for (std::size_t attempt = 0; gained < ask; ++attempt) {
    const auto target = renewal_target(topo_, node, attempt);
    if (!target.has_value()) break;
    gained += donate(thread_hint, *target, node, ask - gained);
  }
  if (gained < ask) {
    // Global fallback: a two-level acquire against the node's own account,
    // partial so a low parent still grants what it can.
    const svc::QuotaHierarchy::Grant grant =
        global_->acquire(thread_hint, node, ask - gained, svc::kPartialOk);
    if (grant.admitted && grant.tokens() > 0) {
      ns.local->refill(thread_hint, grant.tokens());
      ns.balance.fetch_add(static_cast<std::int64_t>(grant.tokens()),
                           std::memory_order_relaxed);
      const util::MutexLock lock(ns.ledger);
      ns.leases.push_back(Lease{grant, fresh_expiry, false});
      gained += grant.tokens();
    }
  }
  if (gained > 0) renewals_.fetch_add(1, std::memory_order_relaxed);
  return gained;
}

void PeerCluster::refund_expired(std::size_t thread_hint, NodeState& ns,
                                 const Lease& lease, std::uint64_t recovered) {
  static_cast<void>(ns);  // present for the CNET_REQUIRES(ns.ledger) capability
  const ExpiryRefund split = lease_expiry_refund(
      lease.grant.from_child, lease.grant.from_parent, recovered);
  global_->settle_spent(thread_hint, lease.grant, split.refund_child,
                        split.refund_parent);
  expiry_refunded_.fetch_add(recovered, std::memory_order_relaxed);
}

void PeerCluster::advance(std::size_t thread_hint, std::uint64_t now) {
  // Monotone clock: concurrent advances race to the max.
  std::uint64_t cur = now_.load(std::memory_order_relaxed);
  while (cur < now && !now_.compare_exchange_weak(
                          cur, now, std::memory_order_acq_rel)) {
  }
  const std::uint64_t sweep_at = now_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeState& ns = *nodes_[i];
    const util::MutexLock lock(ns.ledger);
    const bool partitioned = ns.partitioned.load(std::memory_order_acquire);
    for (Lease& lease : ns.leases) {
      if (lease.settled || lease.expiry > sweep_at) continue;
      // Exactly-once: settled flips under the ledger lock before any token
      // moves, so a renewal racing this sweep can never extend (and a
      // second sweep can never re-refund) a lease being settled.
      lease.settled = true;
      const std::uint64_t recovered = ns.local->consume(
          thread_hint, lease.grant.tokens(), svc::kPartialOk);
      ns.balance.fetch_sub(static_cast<std::int64_t>(recovered),
                           std::memory_order_relaxed);
      expiries_.fetch_add(1, std::memory_order_relaxed);
      expiry_recovered_.fetch_add(recovered, std::memory_order_relaxed);
      if (partitioned) {
        // Control plane down: the recovery sits in debt escrow — counted,
        // held out of every pool — until heal() replays it exactly once.
        ns.debts.push_back(Debt{lease.grant, recovered});
        ns.debt_escrow += recovered;
        debt_created_.fetch_add(recovered, std::memory_order_relaxed);
      } else {
        refund_expired(thread_hint, ns, lease, recovered);
      }
    }
    ns.leases.erase(
        std::remove_if(ns.leases.begin(), ns.leases.end(),
                       [](const Lease& l) { return l.settled; }),
        ns.leases.end());
  }
}

void PeerCluster::partition(std::size_t node) {
  node_state(node).partitioned.store(true, std::memory_order_release);
}

std::uint64_t PeerCluster::reconcile_step(std::size_t thread_hint,
                                          NodeState& ns) {
  // One bounded batch: settle whole debt entries until the chunk's worth
  // of escrowed tokens has been refunded. Zero-recovery entries (fully
  // spent leases) still settle — their settle_spent closes the borrow.
  const std::uint64_t budget =
      debt_reconcile(ns.debt_escrow, cfg_.reconcile_chunk);
  std::uint64_t settled = 0;
  std::size_t taken = 0;
  while (taken < ns.debts.size()) {
    const Debt debt = ns.debts[taken++];
    const ExpiryRefund split = lease_expiry_refund(
        debt.grant.from_child, debt.grant.from_parent, debt.recovered);
    global_->settle_spent(thread_hint, debt.grant, split.refund_child,
                          split.refund_parent);
    settled += debt.recovered;
    debt_reconciled_.fetch_add(debt.recovered, std::memory_order_relaxed);
    expiry_refunded_.fetch_add(debt.recovered, std::memory_order_relaxed);
    if (settled >= budget) break;
  }
  ns.debts.erase(ns.debts.begin(),
                 ns.debts.begin() + static_cast<std::ptrdiff_t>(taken));
  ns.debt_escrow -= settled;
  return settled;
}

void PeerCluster::heal(std::size_t thread_hint, std::size_t node) {
  NodeState& ns = node_state(node);
  const util::MutexLock lock(ns.ledger);
  ns.partitioned.store(false, std::memory_order_release);
  while (!ns.debts.empty()) reconcile_step(thread_hint, ns);
  CNET_ENSURE(ns.debt_escrow == 0, "healed node left escrowed debt");
  // Catch up on reconfiguration commits pushed while the node was dark.
  ns.observed_version.store(global_->config_version(),
                            std::memory_order_release);
}

bool PeerCluster::is_partitioned(std::size_t node) const {
  return node_state(node).partitioned.load(std::memory_order_acquire);
}

void PeerCluster::expire_all(std::size_t thread_hint) {
  // Force every active lease's expiry to "now", then run a normal sweep.
  for (auto& ns : nodes_) {
    const util::MutexLock lock(ns->ledger);
    const std::uint64_t current = now_.load(std::memory_order_acquire);
    for (Lease& lease : ns->leases) {
      if (!lease.settled) lease.expiry = current;
    }
  }
  advance(thread_hint, now_.load(std::memory_order_acquire));
}

std::uint64_t PeerCluster::drain_pool(std::size_t thread_hint,
                                      svc::NetTokenBucket& pool) const {
  // Consumes until the pool is observably empty: top-ups (refill_parent /
  // refill_tenant) can push a pool past any fixed grab size.
  std::uint64_t drained = 0;
  for (std::uint64_t got;
       (got = pool.consume(thread_hint, total_initial_ + 1,
                           svc::kPartialOk)) != 0;) {
    drained += got;
  }
  return drained;
}

std::uint64_t PeerCluster::drain_local(std::size_t thread_hint,
                                       std::size_t node) {
  NodeState& ns = node_state(node);
  const std::uint64_t drained = drain_pool(thread_hint, *ns.local);
  ns.balance.fetch_sub(static_cast<std::int64_t>(drained),
                       std::memory_order_relaxed);
  return drained;
}

std::uint64_t PeerCluster::drain_global(std::size_t thread_hint) {
  std::uint64_t drained = drain_pool(thread_hint, global_->parent());
  for (std::size_t i = 0; i < global_->num_tenants(); ++i) {
    drained += drain_pool(thread_hint, global_->child(i));
  }
  return drained;
}

svc::OverloadManager& PeerCluster::overload(std::size_t node) {
  return *node_state(node).overload;
}

void PeerCluster::evaluate_overload() {
  for (auto& ns : nodes_) ns->overload->evaluate();
}

std::int64_t PeerCluster::local_balance(std::size_t node) const {
  return node_state(node).balance.load(std::memory_order_acquire);
}

std::uint64_t PeerCluster::leased_tokens(std::size_t node) const {
  NodeState& ns = node_state(node);
  const util::MutexLock lock(ns.ledger);
  std::uint64_t total = 0;
  for (const Lease& lease : ns.leases) {
    if (!lease.settled) total += lease.grant.tokens();
  }
  return total;
}

std::uint64_t PeerCluster::debt_tokens(std::size_t node) const {
  NodeState& ns = node_state(node);
  const util::MutexLock lock(ns.ledger);
  return ns.debt_escrow;
}

std::uint64_t PeerCluster::spent(std::size_t node) const {
  return node_state(node).spent.load(std::memory_order_acquire);
}

std::uint64_t PeerCluster::total_spent() const {
  std::uint64_t total = 0;
  for (const auto& ns : nodes_) {
    total += ns->spent.load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t PeerCluster::observed_reweigh_version(std::size_t node) const {
  return node_state(node).observed_version.load(std::memory_order_acquire);
}

}  // namespace cnet::dist
