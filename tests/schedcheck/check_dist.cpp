// Schedule-checker driver: dist lease ledger, expiry-vs-renewal settlement.
//
// The protocol under test is the exactly-once settlement argument: a lease
// expiring (advance sweeps it, refunds the unspent part via settle_spent)
// while the owning node concurrently renews (extends TTLs, acquires a new
// lease) or spends. The oracle is the cluster's global conservation
// ledger: after force-expiring and draining everything,
//   local + global + spent == total_initial
// — a double settlement inflates the left side, a lost lease deflates it.
#include <cstdint>
#include <memory>

#include "cnet/check/driver.hpp"
#include "cnet/dist/peer_cluster.hpp"
#include "cnet/dist/topology.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/util/ensure.hpp"

namespace {

using cnet::check::Expect;
using cnet::check::Scenario;
using cnet::check::TestContext;
using cnet::dist::ClusterConfig;
using cnet::dist::NodeLocation;
using cnet::dist::PeerCluster;
using cnet::dist::Topology;

// One node, tiny budgets, central-atomic parent: the schedule space is the
// ledger mutex + the hierarchy's reservation words, with pool arithmetic
// one explored step per op (check_central covers that word on its own).
std::shared_ptr<PeerCluster> tiny_cluster() {
  ClusterConfig cfg;
  cfg.parent_kind = cnet::svc::BackendKind::kCentralAtomic;
  cfg.parent_initial = 8;
  cfg.node_account_initial = 4;
  cfg.borrow_budget = 4;
  cfg.local_initial = 0;
  cfg.refill_chunk = 2;
  cfg.lease_chunk = 2;
  cfg.lease_cap = 4;
  cfg.lease_ttl = 2;
  cfg.peer_reserve = 1;
  cfg.reconcile_chunk = 2;
  return std::make_shared<PeerCluster>(
      Topology({NodeLocation{0, 0}}), cfg);
}

void settle_and_check(PeerCluster& cluster) {
  cluster.expire_all(0);
  const std::uint64_t local = cluster.drain_local(0, 0);
  const std::uint64_t global = cluster.drain_global(0);
  CNET_ENSURE(local + global + cluster.total_spent() ==
                  cluster.total_initial_tokens(),
              "conservation broken: a lease settled twice or vanished");
  CNET_ENSURE(cluster.debt_tokens(0) == 0,
              "debt escrow nonzero with no partition in play");
  CNET_ENSURE(cluster.expiry_refunded() <= cluster.expiry_recovered(),
              "refunded more than expiries ever recovered");
}

void expiry_vs_renewal(TestContext& ctx) {
  auto cluster = tiny_cluster();
  // Seed one active lease (expiry = now + ttl = 2) before the race.
  const std::uint64_t seeded = cluster->renew(0, 0, 2);
  CNET_ENSURE(seeded >= 2, "seed renewal failed");
  ctx.spawn([cluster] { cluster->advance(0, 5); });  // sweeps the lease
  ctx.spawn([cluster] { cluster->renew(1, 0, 2); }); // races the sweep
  ctx.join_all();
  settle_and_check(*cluster);
}

void expiry_vs_spend(TestContext& ctx) {
  auto cluster = tiny_cluster();
  const std::uint64_t seeded = cluster->renew(0, 0, 2);
  CNET_ENSURE(seeded >= 2, "seed renewal failed");
  auto charged = std::make_shared<std::uint64_t>(0);
  ctx.spawn([cluster] { cluster->advance(0, 5); });
  // Data-plane spend racing the expiry sweep's recovery of the same local
  // pool: every charged token must show up in spent(), every uncharged one
  // in the refund — the conservation ledger catches both leaks.
  ctx.spawn([cluster, charged] { *charged = cluster->admit(1, 0, 1); });
  ctx.join_all();
  CNET_ENSURE(cluster->spent(0) == *charged, "spend ledger out of sync");
  settle_and_check(*cluster);
}

}  // namespace

int main(int argc, char** argv) {
  return cnet::check::run_scenarios(
      {
          Scenario{"expiry_vs_renewal", Expect::kClean, expiry_vs_renewal},
          Scenario{"expiry_vs_spend", Expect::kClean, expiry_vs_spend},
      },
      argc, argv);
}
