// dist::PeerCluster — the distributed counting tier's single-process
// reference implementation: N nodes, each running the existing svc stack
// locally (a NetTokenBucket admission pool plus a per-node
// OverloadManager), exchanging *token leases* against per-node lease
// accounts layered on one svc::QuotaHierarchy (node = tenant, cluster
// budget = parent pool), under a static dc/rack Topology.
//
// The shape is the ROADMAP's gossip-free first cut of the dynomite peer
// tier, built so every claim is checkable before any socket exists:
//
//   admit      data plane. Spends from the node's local pool only — never
//              a global round trip. Under the node's overload manager the
//              degrade-partial tier applies, exactly as in the single-node
//              stack.
//   renew      control plane. Tops a node's local pool up with a lease:
//              first by *donation* from the nearest peer with surplus
//              (renewal_target walk: same rack, then same dc, then
//              remote — a donated lease carries the donor's hierarchy
//              grant parts, carved child-first), falling back to a global
//              QuotaHierarchy::acquire sized by lease_grant. Renewing also
//              extends the TTL of the node's active leases (the
//              heartbeat).
//   advance    the cluster's logical clock. Failure is modeled as silence:
//              a node that stops renewing has its leases expire, and each
//              expired lease refunds its *unspent* tokens to the global
//              hierarchy exactly once (lease_expiry_refund splits the
//              refund across the quota levels; QuotaHierarchy::settle_spent
//              closes the whole borrow). The settled flag under the node's
//              ledger mutex is what makes an expiry racing a renewal
//              settle exactly once, never twice.
//   partition  blocks a node's control plane (no renewals, no donations in
//              or out, no global refunds): the node can spend only the
//              leases it already holds. Expiries while partitioned recover
//              tokens into *debt escrow* — counted, held, refunded to the
//              global pool only at heal(), which replays each entry's
//              settle_spent exactly once in debt_reconcile-bounded
//              batches.
//
// Conservation contract, checked end-to-end by test_dist_leases and
// bench_tab_dist Table G: at any quiescent point,
//   global pools + Σ local pools + Σ spent + Σ debt escrow
// equals the constructed total, and after heal + expire_all the escrow
// term is zero. All decision rules live in dist/policy.hpp, shared
// verbatim with the virtual-time mirror (sim::simulate_cluster).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "cnet/dist/policy.hpp"
#include "cnet/dist/topology.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/overload.hpp"
#include "cnet/svc/quota.hpp"
#include "cnet/util/atomic.hpp"
#include "cnet/util/mutex.hpp"
#include "cnet/util/thread_annotations.hpp"

namespace cnet::dist {

struct ClusterConfig {
  // The global hierarchy: per-node lease accounts (children) over the
  // shared cluster budget (parent). Any backend kind for the parent, the
  // contended structure.
  svc::BackendSpec parent_spec;
  svc::BackendConfig net;
  std::uint64_t parent_initial = 4096;
  std::uint64_t node_account_initial = 256;  // per-node child pool
  std::uint64_t borrow_budget = 2048;

  // Per-node local admission pool (the data-plane bucket leases feed).
  std::uint64_t local_initial = 0;
  std::size_t refill_chunk = svc::kMaxRefillChunk;

  // Lease machinery — all decided through dist/policy.hpp rules.
  std::uint64_t lease_chunk = 128;  // minimum renewal grant
  std::uint64_t lease_cap = 1024;   // max tokens one lease may carry
  std::uint64_t lease_ttl = 8;      // logical-clock ticks until expiry
  std::uint64_t peer_reserve = 64;  // donor keeps this much local balance
  std::uint64_t reconcile_chunk = 256;  // debt settled per heal batch
};

class PeerCluster {
 public:
  PeerCluster(Topology topo, const ClusterConfig& cfg);
  PeerCluster(const PeerCluster&) = delete;
  PeerCluster& operator=(const PeerCluster&) = delete;

  // ------------------------------------------------------------ data plane
  // Admits `cost` tokens on `node` from its local pool only; returns the
  // tokens actually charged (0 = rejected). Under the node's overload
  // manager the degrade-partial tier turns all-or-nothing into partial,
  // with the exact charge reported — same contract as AdmissionController.
  std::uint64_t admit(std::size_t thread_hint, std::size_t node,
                      std::uint64_t cost);

  // --------------------------------------------------------- lease control
  // Extends the node's active lease TTLs to now + lease_ttl and tops its
  // local pool up by at least `want` fresh tokens (0 = one lease_chunk),
  // peer donation first, global acquire as fallback. Returns tokens
  // gained; 0 for a partitioned node (its control plane is down).
  std::uint64_t renew(std::size_t thread_hint, std::size_t node,
                      std::uint64_t want);

  // Advances the logical clock (monotone) and sweeps every node's expired
  // leases. Each expiry recovers the lease's unspent tokens from the local
  // pool and refunds them to the hierarchy via lease_expiry_refund /
  // settle_spent — or into debt escrow if the node is partitioned.
  void advance(std::size_t thread_hint, std::uint64_t now);
  std::uint64_t now() const noexcept {
    return now_.load(std::memory_order_acquire);
  }

  // -------------------------------------------------------- failure model
  void partition(std::size_t node);
  // Reopens the control plane and reconciles the node's debt escrow
  // exactly, in reconcile_chunk-bounded batches; also catches the node up
  // on reconfiguration commits it missed while partitioned.
  void heal(std::size_t thread_hint, std::size_t node);
  bool is_partitioned(std::size_t node) const;

  // --------------------------------------- end-of-run settlement (tests)
  // Force-expires every active lease at the current instant (partitioned
  // nodes accrue debt as usual — heal first for a clean ledger).
  void expire_all(std::size_t thread_hint);
  // Drains what's left of a node's local pool / the whole global
  // hierarchy, for the conservation ledger. Destructive; not data-plane
  // spend (does not count toward spent()).
  std::uint64_t drain_local(std::size_t thread_hint, std::size_t node);
  std::uint64_t drain_global(std::size_t thread_hint);

  // ------------------------------------------------------- observability
  svc::QuotaHierarchy& global() noexcept { return *global_; }
  svc::OverloadManager& overload(std::size_t node);
  const Topology& topology() const noexcept { return topo_; }
  std::size_t num_nodes() const noexcept { return nodes_.size(); }

  // Samples every node's overload manager (pull-based, like the single-node
  // control loop — call from a maintenance tick).
  void evaluate_overload();

  std::int64_t local_balance(std::size_t node) const;   // advisory ledger
  std::uint64_t leased_tokens(std::size_t node) const;  // active lease parts
  std::uint64_t debt_tokens(std::size_t node) const;    // escrow outstanding
  std::uint64_t spent(std::size_t node) const;
  std::uint64_t total_spent() const;
  std::uint64_t total_initial_tokens() const noexcept { return total_initial_; }

  // Lifetime counters for the Table G invariants.
  std::uint64_t renewals() const noexcept { return renewals_.load(); }
  std::uint64_t donations() const noexcept { return donations_.load(); }
  std::uint64_t donated_tokens() const noexcept {
    return donated_tokens_.load();
  }
  std::uint64_t expiries() const noexcept { return expiries_.load(); }
  std::uint64_t expiry_recovered() const noexcept {
    return expiry_recovered_.load();
  }
  std::uint64_t expiry_refunded() const noexcept {
    return expiry_refunded_.load();
  }
  std::uint64_t debt_created() const noexcept { return debt_created_.load(); }
  std::uint64_t debt_reconciled() const noexcept {
    return debt_reconciled_.load();
  }

  // The reweigh commit version this node has *observed* — pushed by the
  // hierarchy's subscribe callback (no polling), except while partitioned
  // (a partitioned node misses pushes and catches up at heal()).
  std::uint64_t observed_reweigh_version(std::size_t node) const;

 private:
  struct Lease {
    svc::QuotaHierarchy::Grant grant;  // tenant = the account it settles to
    std::uint64_t expiry = 0;
    bool settled = false;
  };
  struct Debt {
    svc::QuotaHierarchy::Grant grant;
    std::uint64_t recovered = 0;  // escrowed tokens awaiting the refund
  };
  struct NodeState {
    std::unique_ptr<svc::NetTokenBucket> local;
    std::unique_ptr<svc::OverloadManager> overload;
    // The lease/debt ledger mutex. Everything the exactly-once settlement
    // argument rests on — the settled flags, the escrowed debts, the
    // escrow balance — is annotated against it, so "discipline in prose"
    // is now a compile error under -Wthread-safety.
    mutable util::Mutex ledger;
    std::vector<Lease> leases CNET_GUARDED_BY(ledger);
    // FIFO: reconcile_step settles a prefix and erases it. A vector, so a
    // node that is never partitioned allocates nothing here.
    std::vector<Debt> debts CNET_GUARDED_BY(ledger);
    std::uint64_t debt_escrow CNET_GUARDED_BY(ledger) = 0;
    std::atomic<bool> partitioned{false};
    // util::Atomic so the schedule checker explores the ledger updates
    // that admits, donations and expiries interleave.
    util::Atomic<std::int64_t> balance{0};  // advisory local-pool ledger
    util::Atomic<std::uint64_t> spent{0};
    std::atomic<std::uint64_t> observed_version{1};
  };

  NodeState& node_state(std::size_t node) const;
  // Settles one lease against the hierarchy. The caller holds ns's ledger
  // lock and has already marked the lease settled and recovered the
  // tokens — enforced, not assumed: ns is passed for the capability.
  void refund_expired(std::size_t thread_hint, NodeState& ns,
                      const Lease& lease, std::uint64_t recovered)
      CNET_REQUIRES(ns.ledger);
  // One bounded batch of debt reconciliation; returns tokens settled.
  std::uint64_t reconcile_step(std::size_t thread_hint, NodeState& ns)
      CNET_REQUIRES(ns.ledger);
  std::uint64_t donate(std::size_t thread_hint, std::size_t donor,
                       std::size_t to, std::uint64_t want);
  // Empties one pool for the drain_* ledger; returns the tokens taken.
  std::uint64_t drain_pool(std::size_t thread_hint,
                           svc::NetTokenBucket& pool) const;

  Topology topo_;
  ClusterConfig cfg_;
  std::unique_ptr<svc::QuotaHierarchy> global_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::atomic<std::uint64_t> now_{0};
  std::uint64_t total_initial_ = 0;

  std::atomic<std::uint64_t> renewals_{0};
  std::atomic<std::uint64_t> donations_{0};
  std::atomic<std::uint64_t> donated_tokens_{0};
  std::atomic<std::uint64_t> expiries_{0};
  std::atomic<std::uint64_t> expiry_recovered_{0};
  std::atomic<std::uint64_t> expiry_refunded_{0};
  std::atomic<std::uint64_t> debt_created_{0};
  std::atomic<std::uint64_t> debt_reconciled_{0};
};

}  // namespace cnet::dist
