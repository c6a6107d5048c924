// dist::PeerCluster's lease ledger, edge cases first: an expiry racing a
// renewal settles exactly once (never revived, never double-refunded), a
// healed partition reconciles its escrowed debt exactly, a zero-lease
// node degrades to local-pool-only admission, donations keep the donor's
// hierarchy grant parts, and the reweigh push (subscribe) reaches every
// connected node while a partitioned one catches up at heal. The hammer
// at the end runs renew/admit threads against a racing clock with a
// partition cycling through — the TSan concurrency label covers the
// ledger mutexes, the donation scoped_lock, and the settled-flag
// exactly-once protocol.
#include "cnet/dist/peer_cluster.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "cnet/dist/topology.hpp"
#include "cnet/svc/quota.hpp"

namespace cnet::dist {
namespace {

// Two dcs, one rack each, two nodes per rack: 0|1 are rack-mates, 2|3 are
// rack-mates, cross-dc is remote.
Topology four_nodes() {
  return Topology({{0, 0}, {0, 0}, {1, 0}, {1, 0}});
}

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.parent_initial = 100;
  cfg.node_account_initial = 100;
  cfg.borrow_budget = 0;  // child-account-only grants: exact arithmetic
  cfg.local_initial = 0;
  cfg.lease_chunk = 100;
  cfg.lease_cap = 200;
  cfg.lease_ttl = 4;
  cfg.peer_reserve = 24;
  cfg.reconcile_chunk = 64;
  return cfg;
}

std::uint64_t drain(svc::NetTokenBucket& bucket) {
  std::uint64_t total = 0;
  while (bucket.consume(0, 1, svc::kPartialOk) == 1) ++total;
  return total;
}

std::uint64_t settle_and_drain(PeerCluster& cluster) {
  cluster.expire_all(0);
  std::uint64_t drained = 0;
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    drained += cluster.drain_local(0, i);
  }
  drained += cluster.drain_global(0);
  return drained;
}

TEST(DistLeases, ExpirySettlesExactlyOnceAndIsNeverRevived) {
  PeerCluster cluster(four_nodes(), small_config());
  ASSERT_EQ(cluster.renew(0, 0, 100), 100u);
  EXPECT_EQ(cluster.local_balance(0), 100);
  EXPECT_EQ(cluster.leased_tokens(0), 100u);

  // The lease expires untouched: all 100 tokens recover and refund to the
  // account they came from.
  cluster.advance(0, 4);
  EXPECT_EQ(cluster.expiries(), 1u);
  EXPECT_EQ(cluster.expiry_recovered(), 100u);
  EXPECT_EQ(cluster.expiry_refunded(), 100u);
  EXPECT_EQ(cluster.local_balance(0), 0);
  EXPECT_EQ(cluster.leased_tokens(0), 0u);

  // A second sweep at the same instant finds nothing to settle — the
  // settled flag (and the erase behind it) is the exactly-once guard.
  cluster.advance(0, 4);
  EXPECT_EQ(cluster.expiries(), 1u);
  EXPECT_EQ(cluster.expiry_refunded(), 100u);

  // A renewal after the sweep starts a fresh lease from the refunded
  // account; the settled lease is never revived or re-extended.
  ASSERT_EQ(cluster.renew(0, 0, 100), 100u);
  EXPECT_EQ(cluster.leased_tokens(0), 100u);
  cluster.advance(0, 8);
  EXPECT_EQ(cluster.expiries(), 2u);
  EXPECT_EQ(cluster.expiry_refunded(), 200u);

  const std::uint64_t drained = settle_and_drain(cluster);
  EXPECT_EQ(cluster.total_spent() + drained,
            cluster.total_initial_tokens());
}

TEST(DistLeases, DonatedLeaseKeepsDonorGrantPartsAndSettlesToDonor) {
  ClusterConfig cfg = small_config();
  cfg.lease_chunk = 50;  // so a want of 50 asks for exactly 50
  PeerCluster cluster(four_nodes(), cfg);
  ASSERT_EQ(cluster.renew(0, 0, 100), 100u);

  // Node 1's renewal is served rack-locally: node 0's surplus above its
  // reserve, carved out of node 0's lease — no global acquire involved.
  EXPECT_EQ(cluster.renew(0, 1, 50), 50u);
  EXPECT_EQ(cluster.donations(), 1u);
  EXPECT_EQ(cluster.donated_tokens(), 50u);
  EXPECT_EQ(cluster.local_balance(0), 50);
  EXPECT_EQ(cluster.local_balance(1), 50);
  EXPECT_EQ(cluster.leased_tokens(1), 50u);

  // Node 1 spends 10 of the donated tokens, then everything expires: the
  // transferred lease still settles against the *donor's* account, so
  // node 0's account gets back exactly its unspent 90 while node 1's
  // account was never touched.
  EXPECT_EQ(cluster.admit(0, 1, 10), 10u);
  cluster.expire_all(0);
  EXPECT_EQ(cluster.expiry_recovered(), 90u);
  EXPECT_EQ(cluster.expiry_refunded(), 90u);
  EXPECT_EQ(drain(cluster.global().child(0)), 90u);
  EXPECT_EQ(drain(cluster.global().child(1)), 100u);

  std::uint64_t drained = 0;
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    drained += cluster.drain_local(0, i);
  }
  drained += cluster.drain_global(0);
  // 190 already drained by hand above; the ledger still balances.
  EXPECT_EQ(cluster.total_spent() + drained + 190u,
            cluster.total_initial_tokens());
}

TEST(DistLeases, HealedPartitionReconcilesOutstandingDebtExactly) {
  PeerCluster cluster(four_nodes(), small_config());
  ASSERT_EQ(cluster.renew(0, 2, 100), 100u);
  EXPECT_EQ(cluster.admit(0, 2, 30), 30u);

  // The partition blocks the control plane; the lease expires while dark,
  // so its 70 unspent tokens recover into debt escrow — held out of every
  // pool, counted once.
  cluster.partition(2);
  cluster.advance(0, 4);
  EXPECT_EQ(cluster.debt_created(), 70u);
  EXPECT_EQ(cluster.debt_tokens(2), 70u);
  EXPECT_EQ(cluster.debt_reconciled(), 0u);
  EXPECT_EQ(cluster.expiry_recovered(), 70u);
  EXPECT_EQ(cluster.expiry_refunded(), 0u);  // nothing refunded while dark

  // Heal replays the escrow exactly once; the refund lands in the
  // account the lease was granted from.
  cluster.heal(0, 2);
  EXPECT_EQ(cluster.debt_reconciled(), 70u);
  EXPECT_EQ(cluster.debt_tokens(2), 0u);
  EXPECT_EQ(cluster.expiry_refunded(), 70u);
  EXPECT_EQ(drain(cluster.global().child(2)), 70u);

  std::uint64_t drained = settle_and_drain(cluster);
  EXPECT_EQ(cluster.total_spent() + drained + 70u,
            cluster.total_initial_tokens());
}

TEST(DistLeases, ZeroLeaseNodeDegradesToLocalPoolOnlyAdmission) {
  ClusterConfig cfg = small_config();
  cfg.local_initial = 16;
  PeerCluster cluster(four_nodes(), cfg);
  cluster.partition(3);

  // Never renewed: the node holds nothing but its initial local pool. It
  // spends exactly that, then admits nothing and cannot renew.
  std::uint64_t spent = 0;
  while (cluster.admit(0, 3, 1) == 1) ++spent;
  EXPECT_EQ(spent, 16u);
  EXPECT_EQ(cluster.leased_tokens(3), 0u);
  EXPECT_EQ(cluster.renew(0, 3, 100), 0u);
  EXPECT_EQ(cluster.admit(0, 3, 1), 0u);

  // Heal reopens the control plane; the node is back to full service.
  cluster.heal(0, 3);
  EXPECT_GT(cluster.renew(0, 3, 100), 0u);
  EXPECT_EQ(cluster.admit(0, 3, 1), 1u);

  const std::uint64_t drained = settle_and_drain(cluster);
  EXPECT_EQ(cluster.total_spent() + drained,
            cluster.total_initial_tokens());
}

TEST(DistLeases, DrainEmptiesPoolsToppedUpPastTheInitialTotal) {
  // Regression: drain_global took at most total_initial_tokens() + 1 per
  // pool in one consume, so a parent topped up past that kept the rest and
  // a second drain found it. Every drain must leave its pools empty.
  PeerCluster cluster(Topology({{0, 0}, {0, 0}}), ClusterConfig{});
  constexpr std::uint64_t kTopUp = 9216;
  cluster.global().refill_parent(0, kTopUp);
  EXPECT_EQ(settle_and_drain(cluster),
            cluster.total_initial_tokens() + kTopUp);
  EXPECT_EQ(cluster.drain_global(0), 0u) << "the first drain left tokens";
}

TEST(DistLeases, ReweighPushReachesConnectedNodesAndHealCatchesUp) {
  PeerCluster cluster(four_nodes(), small_config());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.observed_reweigh_version(i), 1u);
  }

  cluster.global().reweigh(0, {2, 1, 1, 1});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.observed_reweigh_version(i), 2u);
  }

  // A dark node misses the push — no polling anywhere — and learns the
  // committed version at heal().
  cluster.partition(3);
  cluster.global().reweigh(0, {1, 2, 1, 1});
  EXPECT_EQ(cluster.observed_reweigh_version(0), 3u);
  EXPECT_EQ(cluster.observed_reweigh_version(3), 2u);
  cluster.heal(0, 3);
  EXPECT_EQ(cluster.observed_reweigh_version(3), 3u);
}

// The TSan hammer: renew/admit threads race a clock thread driving
// expiries every other tick, with one node cycling through
// partition/heal. Every settle decision crosses the ledger mutexes and
// the donation scoped_lock; conservation at the end proves exactly-once
// for every lease that raced its renewal.
TEST(DistLeases, ExpiryRenewalPartitionHammerConservesExactly) {
  ClusterConfig cfg;
  cfg.parent_initial = 512;
  cfg.node_account_initial = 128;
  cfg.borrow_budget = 256;
  cfg.local_initial = 16;
  cfg.lease_chunk = 32;
  cfg.lease_cap = 128;
  cfg.lease_ttl = 2;
  cfg.peer_reserve = 8;
  cfg.reconcile_chunk = 64;
  PeerCluster cluster(four_nodes(), cfg);

  constexpr std::size_t kNodes = 4;
  constexpr std::uint64_t kIters = 1500;
  // Nodes keep going past kIters until the clock has run one whole
  // partition/heal cycle, so expiries, the partition and the heal always
  // race live traffic.
  constexpr std::uint64_t kCycleTicks = 64;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ticks{0};
  std::vector<std::thread> threads;
  for (std::size_t node = 0; node < kNodes; ++node) {
    threads.emplace_back([&, node] {
      for (std::uint64_t i = 0;
           i < kIters || ticks.load(std::memory_order_acquire) < kCycleTicks;
           ++i) {
        if (i % 8 == 0) cluster.renew(node, node, 32);
        cluster.admit(node, node, 1 + i % 3);
      }
    });
  }
  threads.emplace_back([&] {
    std::uint64_t t = 0;
    while (!stop.load(std::memory_order_acquire)) {
      cluster.advance(kNodes, ++t);
      if (t % kCycleTicks == 17) cluster.partition(2);
      if (t % kCycleTicks == 49) cluster.heal(kNodes, 2);
      ticks.store(t, std::memory_order_release);
    }
  });
  for (std::size_t node = 0; node < kNodes; ++node) threads[node].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  cluster.heal(0, 2);  // idempotent if the clock already healed it
  const std::uint64_t drained = settle_and_drain(cluster);
  EXPECT_EQ(cluster.total_spent() + drained,
            cluster.total_initial_tokens());
  EXPECT_EQ(cluster.expiry_recovered(), cluster.expiry_refunded());
  EXPECT_EQ(cluster.debt_created(), cluster.debt_reconciled());
  EXPECT_EQ(cluster.debt_tokens(2), 0u);
}

}  // namespace
}  // namespace cnet::dist
