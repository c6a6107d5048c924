// sim::simulate_multicore: the virtual-time svc simulator must be (a)
// bit-deterministic from its seed — that is the whole point of answering
// "Table B needs real cores" in virtual time — (b) shaped like the paper
// (central wins uncontended, network wins contended), and (c) exactly
// token-conserving for every backend kind.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "cnet/sim/multicore.hpp"
#include "cnet/svc/backend.hpp"

namespace cnet::sim {
namespace {

MulticoreConfig small_config(std::size_t cores) {
  MulticoreConfig cfg;
  cfg.cores = cores;
  cfg.ops_per_core = 512;
  cfg.refill_every = 64;
  cfg.initial_tokens_per_core = 64;
  cfg.exponential_service = true;
  cfg.seed = 0xB10C0DE;
  return cfg;
}

TEST(MulticoreSim, GoldenSeedDeterminism) {
  // Same seed -> identical Table B' numbers, for every kind, including the
  // exponential-service draws.
  for (const svc::BackendKind kind : svc::kAllBackendKinds) {
    const auto a = simulate_multicore(kind, small_config(8));
    const auto b = simulate_multicore(kind, small_config(8));
    SCOPED_TRACE(svc::backend_kind_name(kind));
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.ops_per_vtime, b.ops_per_vtime);
    EXPECT_EQ(a.consume_ops, b.consume_ops);
    EXPECT_EQ(a.consumed, b.consumed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.refilled, b.refilled);
    EXPECT_EQ(a.stall_events, b.stall_events);
    EXPECT_EQ(a.final_pool, b.final_pool);
  }
}

TEST(MulticoreSim, SeedChangesTheExponentialDraws) {
  auto cfg = small_config(8);
  constexpr auto network = svc::BackendKind::kBatchedNetwork;
  const auto a = simulate_multicore(network, cfg);
  cfg.seed ^= 0xDEAD;
  const auto b = simulate_multicore(network, cfg);
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(MulticoreSim, ConservesTokensForEverySpec) {
  for (const svc::BackendKind kind : svc::kAllBackendKinds) {
    for (const std::size_t cores : {1u, 4u, 16u}) {
      const auto r = simulate_multicore(kind, small_config(cores));
      SCOPED_TRACE(std::string(svc::backend_kind_name(kind)) + " @ " +
                   std::to_string(cores));
      EXPECT_TRUE(r.conserved);
      EXPECT_EQ(r.consumed + static_cast<std::uint64_t>(r.final_pool),
                r.refilled + r.initial_tokens);
      EXPECT_EQ(r.consume_ops, cores * 512);
    }
  }
}

TEST(MulticoreSim, CentralNetworkCrossoverShape) {
  constexpr auto central = svc::BackendKind::kCentralAtomic;
  constexpr auto network = svc::BackendKind::kBatchedNetwork;
  // Uncontended: the single word beats a deep network traversal.
  EXPECT_GT(simulate_multicore(central, small_config(1)).ops_per_vtime,
            simulate_multicore(network, small_config(1)).ops_per_vtime);
  // Contended: the network's parallel servers win by at least the paper's
  // 2x margin.
  EXPECT_GE(simulate_multicore(network, small_config(32)).ops_per_vtime,
            2.0 * simulate_multicore(central, small_config(32)).ops_per_vtime);
}

// The bench's exact Table D' workload (quota_sim_reference_config is
// shared so the CI-gated checks and these tests cannot drift apart).
QuotaSimConfig quota_config(std::size_t cores) {
  return quota_sim_reference_config(cores);
}

TEST(QuotaSim, GoldenSeedDeterminism) {
  for (const svc::BackendKind kind : svc::kAllBackendKinds) {
    const auto a = simulate_quota(kind, quota_config(16));
    const auto b = simulate_quota(kind, quota_config(16));
    SCOPED_TRACE(svc::backend_kind_name(kind));
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.goodput_per_vtime, b.goodput_per_vtime);
    EXPECT_EQ(a.acquire_ops, b.acquire_ops);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.parent_stalls, b.parent_stalls);
    EXPECT_EQ(a.child_stalls, b.child_stalls);
    EXPECT_EQ(a.admitted_per_tenant, b.admitted_per_tenant);
    EXPECT_EQ(a.peak_borrowed_per_tenant, b.peak_borrowed_per_tenant);
  }
}

TEST(QuotaSim, ConservesAndIsolatesForEverySpec) {
  for (const svc::BackendKind kind : svc::kAllBackendKinds) {
    for (const std::size_t cores : {4u, 64u}) {
      const auto r = simulate_quota(kind, quota_config(cores));
      SCOPED_TRACE(std::string(svc::backend_kind_name(kind)) + " @ " +
                   std::to_string(cores));
      EXPECT_TRUE(r.conserved);
      EXPECT_TRUE(r.isolation);
      EXPECT_EQ(r.cold_rejected, 0u);
      EXPECT_EQ(r.acquire_ops, cores * 512);
      // Peak borrow never pierced a weighted cap.
      for (std::size_t t = 0; t < r.peak_borrowed_per_tenant.size(); ++t) {
        EXPECT_LE(r.peak_borrowed_per_tenant[t], r.limit_per_tenant[t]);
      }
    }
  }
}

TEST(QuotaSim, HotTenantSaturatesItsCapAtScale) {
  // 48 of 64 cores hammer tenant 0: its demand far exceeds child + cap,
  // so the weighted limit must be pinned and the overflow rejected —
  // while every cold tenant stays inside its own cap, rejection-free.
  const auto r = simulate_quota(svc::BackendKind::kBatchedNetwork,
                                quota_config(64));
  EXPECT_GT(r.hot_rejected, 0u);
  EXPECT_EQ(r.cold_rejected, 0u);
  EXPECT_EQ(r.peak_borrowed_per_tenant[0], r.limit_per_tenant[0]);
  EXPECT_TRUE(r.conserved);
}

TEST(QuotaSim, ParentContentionOrderingMatchesThePaper) {
  constexpr auto central = svc::BackendKind::kCentralAtomic;
  constexpr auto network = svc::BackendKind::kBatchedNetwork;
  // Uncontended the central parent wins; at 64 cores every hot acquire
  // funnels through the shared parent and the network parent admits more
  // grants per unit virtual time.
  EXPECT_GT(simulate_quota(central, quota_config(4)).goodput_per_vtime,
            simulate_quota(network, quota_config(4)).goodput_per_vtime);
  EXPECT_GE(simulate_quota(network, quota_config(64)).goodput_per_vtime,
            simulate_quota(central, quota_config(64)).goodput_per_vtime);
}

TEST(OverloadSim, GoldenSeedReferenceTrace) {
  // The bench's exact Table E' reference cell, pinned golden: the virtual
  // clock makes the whole escalate→shed→recover trace a pure function of
  // (kind, config, seed), so any drift in the engine, the quota model, or
  // the shared policy rules shows up here as an exact-value diff.
  const auto r = simulate_overload(svc::BackendKind::kCentralAtomic,
                                   overload_sim_reference_config());
  EXPECT_EQ(r.attempts, 9216u);  // 48 cores x 192 attempts
  EXPECT_EQ(r.admitted, 2654u);
  EXPECT_EQ(r.rejected, 5550u);
  EXPECT_EQ(r.degraded_admits, 12u);
  EXPECT_EQ(r.shed_rejects, 1012u);
  EXPECT_EQ(r.shed_events, 4u);
  EXPECT_EQ(r.restore_events, 4u);
  EXPECT_EQ(r.shed_refunded_tokens, 8u);
  EXPECT_EQ(r.peak_tier, svc::OverloadTier::kShedTenants);
  EXPECT_EQ(r.final_tier, svc::OverloadTier::kNominal);
  EXPECT_DOUBLE_EQ(r.makespan, 5580.1720385393346);

  // The tier-transition instants land on the sampler grid (multiples of
  // sample_every = 32). The ramp saturates the parent before the second
  // sample, so the first transition jumps straight to the shed tier; the
  // first descent drops two tiers at once, exactly as the hysteretic rule
  // dictates at that pressure.
  ASSERT_EQ(r.transitions.size(), 11u);
  EXPECT_EQ(r.transitions[0].time, 128.0);
  EXPECT_EQ(r.transitions[0].from, svc::OverloadTier::kNominal);
  EXPECT_EQ(r.transitions[0].to, svc::OverloadTier::kShedTenants);
  EXPECT_EQ(r.transitions[0].pressure, 1.0);
  EXPECT_EQ(r.transitions[1].time, 960.0);
  EXPECT_EQ(r.transitions[1].from, svc::OverloadTier::kShedTenants);
  EXPECT_EQ(r.transitions[1].to, svc::OverloadTier::kPreDegrade);
  EXPECT_NEAR(r.transitions[1].pressure, 0.72040816326530612, 1e-12);

  // Shedding hits only the cold weight-1 tenants (shed_set: tenant 0
  // carries the hot weight), highest indices first.
  ASSERT_EQ(r.shed_rejects_per_tenant.size(), 8u);
  const std::vector<std::uint64_t> expected_shed_rejects{0,   0,   0,   0,
                                                         347, 343, 159, 163};
  EXPECT_EQ(r.shed_rejects_per_tenant, expected_shed_rejects);

  EXPECT_TRUE(r.conserved);
  EXPECT_TRUE(r.hysteresis_respected);
  EXPECT_TRUE(r.recovered);
}

TEST(OverloadSim, ConservesAndRecoversForEverySpec) {
  for (const svc::BackendKind kind : svc::kAllBackendKinds) {
    const auto r = simulate_overload(kind, overload_sim_reference_config());
    SCOPED_TRACE(svc::backend_kind_name(kind));
    EXPECT_EQ(r.attempts, 9216u);
    // The reference ramp pushes every backend through the full ladder and
    // back: whatever was shed was restored, every grant part (released or
    // force-refunded) returned to its level, and no transition ever
    // violated the hysteresis band.
    EXPECT_EQ(r.peak_tier, svc::OverloadTier::kShedTenants);
    EXPECT_EQ(r.final_tier, svc::OverloadTier::kNominal);
    EXPECT_TRUE(r.conserved);
    EXPECT_TRUE(r.hysteresis_respected);
    EXPECT_TRUE(r.recovered);
    EXPECT_EQ(r.shed_events, r.restore_events);
  }
}

TEST(OverloadSim, GoldenSeedDeterminism) {
  for (const svc::BackendKind kind : svc::kAllBackendKinds) {
    const auto a = simulate_overload(kind, overload_sim_reference_config());
    const auto b = simulate_overload(kind, overload_sim_reference_config());
    SCOPED_TRACE(svc::backend_kind_name(kind));
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.degraded_admits, b.degraded_admits);
    EXPECT_EQ(a.shed_rejects_per_tenant, b.shed_rejects_per_tenant);
    ASSERT_EQ(a.transitions.size(), b.transitions.size());
    for (std::size_t i = 0; i < a.transitions.size(); ++i) {
      EXPECT_EQ(a.transitions[i].time, b.transitions[i].time);
      EXPECT_EQ(a.transitions[i].from, b.transitions[i].from);
      EXPECT_EQ(a.transitions[i].to, b.transitions[i].to);
      EXPECT_EQ(a.transitions[i].pressure, b.transitions[i].pressure);
    }
  }
}

// The bench's exact Table F workload: reconfig_sim_reference_config plus
// the shared pairing rule, so the CI-gated checks and these goldens
// cannot drift apart.
ReconfigSimConfig reconfig_config(const svc::BackendSpec& spec_from) {
  ReconfigSimConfig cfg = reconfig_sim_reference_config();
  cfg.spec_to = reconfig_respec_target(spec_from);
  return cfg;
}

TEST(ReconfigSim, GoldenSeedDeterminism) {
  for (const svc::BackendKind kind : svc::kAllBackendKinds) {
    const auto a = simulate_reconfig(kind, reconfig_config(kind));
    const auto b = simulate_reconfig(kind, reconfig_config(kind));
    SCOPED_TRACE(svc::backend_kind_name(kind));
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.consume_ops, b.consume_ops);
    EXPECT_EQ(a.consumed, b.consumed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.refilled, b.refilled);
    EXPECT_EQ(a.respec_staged_time, b.respec_staged_time);
    EXPECT_EQ(a.respec_commit_time, b.respec_commit_time);
    EXPECT_EQ(a.migrated_tokens, b.migrated_tokens);
    EXPECT_EQ(a.old_stalls, b.old_stalls);
    EXPECT_EQ(a.new_stalls, b.new_stalls);
    EXPECT_EQ(a.final_pool, b.final_pool);
  }
}

TEST(ReconfigSim, ConservesAcrossTheCommitForEverySpec) {
  for (const svc::BackendKind kind : svc::kAllBackendKinds) {
    const auto r = simulate_reconfig(kind, reconfig_config(kind));
    SCOPED_TRACE(svc::backend_kind_name(kind));
    EXPECT_TRUE(r.conserved);
    EXPECT_EQ(r.consumed + static_cast<std::uint64_t>(r.final_pool),
              r.refilled + r.initial_tokens);
    // The reference workload always has old ops in flight at t = 300, so
    // the commit is strictly after the stage, and the migration moved the
    // old pool's exact (nonzero, for this workload) remainder.
    EXPECT_EQ(r.config_version, 2u);
    EXPECT_DOUBLE_EQ(r.respec_staged_time, 300.0);
    EXPECT_GT(r.respec_commit_time, r.respec_staged_time);
    EXPECT_GT(r.migrated_tokens, 0u);
    // divided_chunk(64, 4) under the shared rule.
    EXPECT_EQ(r.staged_chunk, 16u);
    EXPECT_EQ(r.consume_ops, 8u * 2048u);
  }
}

TEST(ReconfigSim, GoldenCommitInstants) {
  // The quiescence instant is a pure function of (kind, config, seed): the
  // commit fires exactly when the last op in flight on the old stack at
  // t = 300 completes. Pinned to the bit for the two bookend directions —
  // any drift in the engine, the drain accounting, or the staged publish
  // shows up here as an exact-value diff.
  const auto up = simulate_reconfig(
      svc::BackendKind::kCentralAtomic,
      reconfig_config(svc::BackendKind::kCentralAtomic));
  EXPECT_DOUBLE_EQ(up.respec_commit_time, 307.26134860564667);
  EXPECT_EQ(up.migrated_tokens, 303u);
  EXPECT_EQ(up.consumed, 15905u);
  EXPECT_EQ(up.rejected, 479u);
  EXPECT_DOUBLE_EQ(up.makespan, 17943.989688889873);

  const auto down = simulate_reconfig(
      svc::BackendKind::kBatchedNetwork,
      reconfig_config(svc::BackendKind::kBatchedNetwork));
  EXPECT_DOUBLE_EQ(down.respec_commit_time, 307.69616677734183);
  EXPECT_EQ(down.migrated_tokens, 215u);
  EXPECT_EQ(down.consumed, 15872u);
  EXPECT_EQ(down.rejected, 512u);
  EXPECT_DOUBLE_EQ(down.makespan, 50688.496555901685);
}

TEST(ReconfigSim, IdleStageCommitsAtTheStageInstant) {
  // Stage the respec after the workload has fully drained: there are no
  // in-flight old-stack readers left, so quiescence holds trivially and
  // the commit fires at the very same instant the stage publishes — the
  // engine's "uncontended respec is instantaneous" degenerate case. The
  // whole leftover pool migrates in the one transfer.
  constexpr auto central = svc::BackendKind::kCentralAtomic;
  ReconfigSimConfig cfg = reconfig_config(central);
  cfg.respec_at = 1e9;
  const auto r = simulate_reconfig(central, cfg);
  EXPECT_EQ(r.config_version, 2u);
  EXPECT_DOUBLE_EQ(r.respec_staged_time, 1e9);
  EXPECT_DOUBLE_EQ(r.respec_commit_time, 1e9);
  EXPECT_EQ(r.migrated_tokens, static_cast<std::uint64_t>(r.final_pool));
  EXPECT_TRUE(r.conserved);
}

TEST(MulticoreSim, RejectsWhenThePoolRunsDry) {
  // No initial tokens and a huge refill cadence: every consume before the
  // first refill must be rejected, never over-admitted.
  MulticoreConfig cfg = small_config(4);
  cfg.initial_tokens_per_core = 0;
  cfg.refill_every = 32;
  const auto r =
      simulate_multicore(svc::BackendKind::kCentralAtomic, cfg);
  EXPECT_GT(r.rejected, 0u);
  EXPECT_TRUE(r.conserved);
}


TEST(MulticoreSim, RejectsBadConfig) {
  // Each of these once hung, crashed, or ran on undefined behaviour; the
  // drivers now reject them where they take their inputs.
  constexpr auto central = svc::BackendKind::kCentralAtomic;
  constexpr auto batched = svc::BackendKind::kBatchedNetwork;

  MulticoreConfig zero_batch = small_config(2);
  zero_batch.batch_k = 0;  // deposited empty chunks forever
  EXPECT_THROW(simulate_multicore(batched, zero_batch), std::invalid_argument);
  QuotaSimConfig quota_zero_batch = quota_config(4);
  quota_zero_batch.base.batch_k = 0;
  EXPECT_THROW(simulate_quota(batched, quota_zero_batch),
               std::invalid_argument);

  QuotaSimConfig negative_share = quota_config(4);
  negative_share.hot_core_share = -3.0;  // negative double -> size_t cast
  EXPECT_THROW(simulate_quota(central, negative_share), std::invalid_argument);
  OverloadSimConfig overload_share = overload_sim_reference_config();
  overload_share.hot_core_share = 1.5;
  EXPECT_THROW(simulate_overload(central, overload_share),
               std::invalid_argument);

  // Negative delays ran silently, scheduling events in the past.
  MulticoreConfig negative_service = small_config(2);
  negative_service.balancer_service = -1.0;
  negative_service.central_service = -1.0;
  EXPECT_THROW(simulate_multicore(batched, negative_service),
               std::invalid_argument);
  MulticoreConfig nan_service = small_config(2);
  nan_service.balancer_service = std::nan("");
  EXPECT_THROW(simulate_multicore(batched, nan_service),
               std::invalid_argument);
  ClusterSimConfig negative_think = cluster_sim_reference_config(4);
  negative_think.think_time = -5.0;
  EXPECT_THROW(simulate_cluster(batched, negative_think),
               std::invalid_argument);
}

// ------------------------------------------------------------ value goldens
//
// The determinism tests above compare run A with run B, which a refactor
// could pass while changing every number. These pin the values themselves
// for the bench reference workloads: counts with EXPECT_EQ, virtual times
// and rates with EXPECT_DOUBLE_EQ (the same split as the overload golden
// trace above). Rows follow svc::kAllBackendKinds order.

constexpr auto kNominal = svc::OverloadTier::kNominal;
constexpr auto kShrinkBatch = svc::OverloadTier::kShrinkBatch;
constexpr auto kPreDegrade = svc::OverloadTier::kPreDegrade;
constexpr auto kDegradePartial = svc::OverloadTier::kDegradePartial;
constexpr auto kShedTenants = svc::OverloadTier::kShedTenants;

void expect_same(const MulticoreResult& got, const MulticoreResult& want) {
  EXPECT_DOUBLE_EQ(got.makespan, want.makespan);
  EXPECT_DOUBLE_EQ(got.ops_per_vtime, want.ops_per_vtime);
  EXPECT_EQ(got.consume_ops, want.consume_ops);
  EXPECT_EQ(got.consumed, want.consumed);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.refilled, want.refilled);
  EXPECT_EQ(got.initial_tokens, want.initial_tokens);
  EXPECT_EQ(got.stall_events, want.stall_events);
  EXPECT_EQ(got.final_pool, want.final_pool);
  EXPECT_EQ(got.conserved, want.conserved);
}

void expect_same(const QuotaSimResult& got, const QuotaSimResult& want) {
  EXPECT_DOUBLE_EQ(got.makespan, want.makespan);
  EXPECT_DOUBLE_EQ(got.ops_per_vtime, want.ops_per_vtime);
  EXPECT_DOUBLE_EQ(got.goodput_per_vtime, want.goodput_per_vtime);
  EXPECT_EQ(got.acquire_ops, want.acquire_ops);
  EXPECT_EQ(got.admitted, want.admitted);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.cold_rejected, want.cold_rejected);
  EXPECT_EQ(got.hot_rejected, want.hot_rejected);
  EXPECT_EQ(got.granted_child_tokens, want.granted_child_tokens);
  EXPECT_EQ(got.granted_parent_tokens, want.granted_parent_tokens);
  EXPECT_EQ(got.parent_stalls, want.parent_stalls);
  EXPECT_EQ(got.child_stalls, want.child_stalls);
  EXPECT_EQ(got.conserved, want.conserved);
  EXPECT_EQ(got.isolation, want.isolation);
  EXPECT_EQ(got.attempts_per_tenant, want.attempts_per_tenant);
  EXPECT_EQ(got.admitted_per_tenant, want.admitted_per_tenant);
  EXPECT_EQ(got.limit_per_tenant, want.limit_per_tenant);
  EXPECT_EQ(got.peak_borrowed_per_tenant, want.peak_borrowed_per_tenant);
}

void expect_same(const OverloadSimResult& got, const OverloadSimResult& want) {
  EXPECT_DOUBLE_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.attempts, want.attempts);
  EXPECT_EQ(got.admitted, want.admitted);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.degraded_admits, want.degraded_admits);
  EXPECT_EQ(got.shed_rejects, want.shed_rejects);
  EXPECT_EQ(got.shed_events, want.shed_events);
  EXPECT_EQ(got.restore_events, want.restore_events);
  EXPECT_EQ(got.shed_refunded_tokens, want.shed_refunded_tokens);
  EXPECT_EQ(got.peak_tier, want.peak_tier);
  EXPECT_EQ(got.final_tier, want.final_tier);
  ASSERT_EQ(got.transitions.size(), want.transitions.size());
  for (std::size_t i = 0; i < want.transitions.size(); ++i) {
    SCOPED_TRACE("transition " + std::to_string(i));
    EXPECT_DOUBLE_EQ(got.transitions[i].time, want.transitions[i].time);
    EXPECT_EQ(got.transitions[i].from, want.transitions[i].from);
    EXPECT_EQ(got.transitions[i].to, want.transitions[i].to);
    EXPECT_DOUBLE_EQ(got.transitions[i].pressure,
                     want.transitions[i].pressure);
  }
  EXPECT_EQ(got.shed_rejects_per_tenant, want.shed_rejects_per_tenant);
  EXPECT_EQ(got.conserved, want.conserved);
  EXPECT_EQ(got.hysteresis_respected, want.hysteresis_respected);
  EXPECT_EQ(got.recovered, want.recovered);
}

void expect_same(const ReconfigSimResult& got, const ReconfigSimResult& want) {
  EXPECT_DOUBLE_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.consume_ops, want.consume_ops);
  EXPECT_EQ(got.consumed, want.consumed);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.refilled, want.refilled);
  EXPECT_EQ(got.initial_tokens, want.initial_tokens);
  EXPECT_DOUBLE_EQ(got.respec_staged_time, want.respec_staged_time);
  EXPECT_DOUBLE_EQ(got.respec_commit_time, want.respec_commit_time);
  EXPECT_EQ(got.migrated_tokens, want.migrated_tokens);
  EXPECT_EQ(got.staged_chunk, want.staged_chunk);
  EXPECT_EQ(got.config_version, want.config_version);
  EXPECT_EQ(got.old_stalls, want.old_stalls);
  EXPECT_EQ(got.new_stalls, want.new_stalls);
  EXPECT_EQ(got.final_pool, want.final_pool);
  EXPECT_EQ(got.conserved, want.conserved);
}

void expect_same(const ClusterSimResult& got, const ClusterSimResult& want) {
  EXPECT_DOUBLE_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.attempts, want.attempts);
  EXPECT_EQ(got.admitted, want.admitted);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.spent, want.spent);
  EXPECT_EQ(got.renewals, want.renewals);
  EXPECT_EQ(got.renewal_tokens, want.renewal_tokens);
  EXPECT_EQ(got.donations, want.donations);
  EXPECT_EQ(got.donated_tokens, want.donated_tokens);
  EXPECT_EQ(got.expiries, want.expiries);
  EXPECT_EQ(got.expiry_recovered, want.expiry_recovered);
  EXPECT_EQ(got.expiry_refunded, want.expiry_refunded);
  EXPECT_EQ(got.debt_created, want.debt_created);
  EXPECT_EQ(got.debt_reconciled, want.debt_reconciled);
  EXPECT_EQ(got.partition_global_touches, want.partition_global_touches);
  EXPECT_EQ(got.initial_tokens, want.initial_tokens);
  EXPECT_EQ(got.final_parent_pool, want.final_parent_pool);
  EXPECT_EQ(got.final_account_tokens, want.final_account_tokens);
  EXPECT_EQ(got.final_local_tokens, want.final_local_tokens);
  EXPECT_EQ(got.conserved, want.conserved);
  EXPECT_EQ(got.debt_settled, want.debt_settled);
  EXPECT_DOUBLE_EQ(got.p50_admission, want.p50_admission);
  EXPECT_DOUBLE_EQ(got.p99_admission, want.p99_admission);
  EXPECT_EQ(got.parent_stalls, want.parent_stalls);
}

// bench_tab_svc_sim's full-sweep Table B' config.
MulticoreConfig table_b_config(std::size_t cores) {
  MulticoreConfig cfg;
  cfg.cores = cores;
  cfg.ops_per_core = 2048;
  cfg.refill_every = 256;
  cfg.initial_tokens_per_core = 256;
  cfg.exponential_service = true;
  cfg.seed = 0xB10C0DE;
  return cfg;
}

TEST(MulticoreSim, GoldenValuesTableBAt8Cores) {
  // {makespan, ops_per_vtime, consume_ops, consumed, rejected, refilled,
  //  initial_tokens, stall_events, final_pool, conserved}
  // clang-format off
  const MulticoreResult golden[] = {
      {53309.08556018184, 0.30733973070132165, 16384u, 16384u, 0u, 16384u, 2048u, 112990u, 2048, true},  // central-atomic
      {78171.156945686162, 0.20959137155132182, 16384u, 16384u, 0u, 16384u, 2048u, 113669u, 2048, true},  // central-cas
      {17073.541217278547, 0.95961346222769961, 16384u, 16384u, 0u, 16384u, 2048u, 13137u, 2048, true},  // batched-network
  };
  // clang-format on
  const auto& kinds = svc::kAllBackendKinds;
  ASSERT_EQ(std::size(kinds), std::size(golden));
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    SCOPED_TRACE(svc::backend_kind_name(kinds[i]));
    expect_same(simulate_multicore(kinds[i], table_b_config(8)), golden[i]);
  }
}

TEST(QuotaSim, GoldenValuesReference16) {
  // {makespan, ops_per_vtime, goodput_per_vtime, acquire_ops, admitted,
  //  rejected, cold_rejected, hot_rejected, granted_child_tokens,
  //  granted_parent_tokens, parent_stalls, child_stalls, conserved,
  //  isolation, attempts_per_tenant, admitted_per_tenant,
  //  limit_per_tenant, peak_borrowed_per_tenant}
  // clang-format off
  const QuotaSimResult golden[] = {
      {10302.531755333461, 0.79514435815828755, 0.79514435815828755, 8192u, 8192u, 0u, 0u, 0u, 4840u, 3352u, 43711u, 5904u, true, true,
       {6144, 512, 512, 512, 512, 0, 0, 0},
       {6144, 512, 512, 512, 512, 0, 0, 0},
       {16, 2, 2, 2, 2, 2, 2, 2},
       {10, 0, 0, 0, 0, 0, 0, 0}},  // central-atomic
      {12378.334827396766, 0.66180145506072274, 0.66180145506072274, 8192u, 8192u, 0u, 0u, 0u, 5436u, 2756u, 38107u, 5288u, true, true,
       {6144, 512, 512, 512, 512, 0, 0, 0},
       {6144, 512, 512, 512, 512, 0, 0, 0},
       {16, 2, 2, 2, 2, 2, 2, 2},
       {10, 0, 0, 0, 0, 0, 0, 0}},  // central-cas
      {8975.550349358522, 0.91270169305946547, 0.91270169305946547, 8192u, 8192u, 0u, 0u, 0u, 4460u, 3732u, 5896u, 6049u, true, true,
       {6144, 512, 512, 512, 512, 0, 0, 0},
       {6144, 512, 512, 512, 512, 0, 0, 0},
       {16, 2, 2, 2, 2, 2, 2, 2},
       {10, 0, 0, 0, 0, 0, 0, 0}},  // batched-network
  };
  // clang-format on
  const auto& kinds = svc::kAllBackendKinds;
  ASSERT_EQ(std::size(kinds), std::size(golden));
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    SCOPED_TRACE(svc::backend_kind_name(kinds[i]));
    expect_same(simulate_quota(kinds[i], quota_config(16)), golden[i]);
  }
}

TEST(OverloadSim, GoldenValuesReference) {
  // {makespan, attempts, admitted, rejected, degraded_admits, shed_rejects,
  //  shed_events, restore_events, shed_refunded_tokens, peak_tier,
  //  final_tier,
  //  transitions {time, from, to, pressure}, shed_rejects_per_tenant,
  //  conserved, hysteresis_respected, recovered}
  // clang-format off
  const OverloadSimResult golden[] = {
      {5580.1720385393346, 9216u, 2654u, 5550u, 12u, 1012u, 4u, 4u, 8u,
       kShedTenants, kNominal,
       {{128.0, kNominal, kShedTenants, 1.0},
        {960.0, kShedTenants, kPreDegrade, 0.7204081632653061},
        {992.0, kPreDegrade, kDegradePartial, 0.9193083573487032},
        {1216.0, kDegradePartial, kShedTenants, 1.0},
        {1248.0, kShedTenants, kShrinkBatch, 0.59677419354838712},
        {1280.0, kShrinkBatch, kPreDegrade, 0.84158415841584155},
        {1312.0, kPreDegrade, kShedTenants, 1.0},
        {1344.0, kShedTenants, kShrinkBatch, 0.59677419354838712},
        {1376.0, kShrinkBatch, kShedTenants, 1.0},
        {4704.0, kShedTenants, kShrinkBatch, 0.4642857142857143},
        {4768.0, kShrinkBatch, kNominal, 0.27777777777777779}},
       {0, 0, 0, 0, 347, 343, 159, 163},
       true, true, true},  // central-atomic
      {7065.3297321904911, 9216u, 2918u, 5381u, 4u, 917u, 5u, 5u, 6u,
       kShedTenants, kNominal,
       {{128.0, kNominal, kPreDegrade, 0.75},
        {160.0, kPreDegrade, kShedTenants, 1.0},
        {960.0, kShedTenants, kPreDegrade, 0.6820276497695853},
        {992.0, kPreDegrade, kDegradePartial, 0.91691394658753711},
        {1344.0, kDegradePartial, kPreDegrade, 0.68367346938775508},
        {1472.0, kPreDegrade, kShedTenants, 1.0},
        {1504.0, kShedTenants, kPreDegrade, 0.61290322580645162},
        {1536.0, kPreDegrade, kShedTenants, 1.0},
        {1600.0, kShedTenants, kShrinkBatch, 0.59677419354838712},
        {1632.0, kShrinkBatch, kShedTenants, 1.0},
        {1664.0, kShedTenants, kPreDegrade, 0.70180722891566261},
        {1696.0, kPreDegrade, kShedTenants, 1.0},
        {6688.0, kShedTenants, kShrinkBatch, 0.45833333333333331},
        {6720.0, kShrinkBatch, kNominal, 0.40000000000000002},
        {6752.0, kNominal, kDegradePartial, 0.9375},
        {6784.0, kDegradePartial, kShrinkBatch, 0.59090909090909094},
        {6816.0, kShrinkBatch, kNominal, 0.3125}},
       {0, 0, 0, 0, 320, 323, 138, 136},
       true, true, true},  // central-cas
      {3772.3576493603341, 9216u, 3590u, 5626u, 1u, 0u, 1u, 1u, 0u,
       kShedTenants, kNominal,
       {{224.0, kNominal, kShrinkBatch, 0.53333333333333333},
        {288.0, kShrinkBatch, kPreDegrade, 0.78125},
        {352.0, kPreDegrade, kShedTenants, 1.0},
        {480.0, kShedTenants, kDegradePartial, 0.84999999999999998},
        {512.0, kDegradePartial, kPreDegrade, 0.68367346938775508},
        {672.0, kPreDegrade, kDegradePartial, 0.86861313868613144},
        {1120.0, kDegradePartial, kPreDegrade, 0.66666666666666663},
        {1152.0, kPreDegrade, kDegradePartial, 0.89834515366430256},
        {1408.0, kDegradePartial, kPreDegrade, 0.72222222222222221},
        {1472.0, kPreDegrade, kShrinkBatch, 0.59677419354838712},
        {1632.0, kShrinkBatch, kDegradePartial, 0.94047619047619047},
        {1664.0, kDegradePartial, kShrinkBatch, 0.55555555555555558},
        {1696.0, kShrinkBatch, kDegradePartial, 0.86363636363636365},
        {1792.0, kDegradePartial, kShrinkBatch, 0.57999999999999996},
        {2048.0, kShrinkBatch, kNominal, 0.39285714285714285}},
       {0, 0, 0, 0, 0, 0, 0, 0},
       true, true, true},  // batched-network
  };
  // clang-format on
  const auto& kinds = svc::kAllBackendKinds;
  ASSERT_EQ(std::size(kinds), std::size(golden));
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    SCOPED_TRACE(svc::backend_kind_name(kinds[i]));
    expect_same(simulate_overload(kinds[i], overload_sim_reference_config()),
                golden[i]);
  }
}

TEST(ReconfigSim, GoldenValuesReference) {
  // {makespan, consume_ops, consumed, rejected, refilled, initial_tokens,
  //  respec_staged_time, respec_commit_time, migrated_tokens,
  //  staged_chunk, config_version, old_stalls, new_stalls, final_pool,
  //  conserved}
  // clang-format off
  const ReconfigSimResult golden[] = {
      {17943.989688889873, 16384u, 15905u, 479u, 16384u, 512u, 300.0, 307.26134860564667, 303u, 16u, 2u, 1411u, 13552u, 991, true},  // central-atomic
      {18120.814773443228, 16384u, 15894u, 490u, 16384u, 512u, 300.0, 318.6780618295773, 370u, 16u, 2u, 953u, 13576u, 1002, true},  // central-cas
      {50688.496555901685, 16384u, 15872u, 512u, 16384u, 512u, 300.0, 307.69616677734183, 215u, 16u, 2u, 247u, 107863u, 1024, true},  // batched-network
  };
  // clang-format on
  const auto& kinds = svc::kAllBackendKinds;
  ASSERT_EQ(std::size(kinds), std::size(golden));
  for (std::size_t i = 0; i < std::size(kinds); ++i) {
    SCOPED_TRACE(svc::backend_kind_name(kinds[i]));
    expect_same(simulate_reconfig(kinds[i], reconfig_config(kinds[i])),
                golden[i]);
  }
}

// ---------------------------------------------------------------- cluster

// bench_tab_dist's parent kind for Table G'.
constexpr auto kClusterParent = svc::BackendKind::kBatchedNetwork;

// Short-TTL churn plus two scripted partitions, so leases expire on dark
// nodes and their refunds escrow into debt until the heal.
ClusterSimConfig partitioned_cluster(std::size_t nodes) {
  ClusterSimConfig cfg = cluster_sim_reference_config(nodes);
  cfg.lease_ttl = 12.0;
  cfg.partitions.push_back({1, 42.0, 300.0});
  cfg.partitions.push_back({nodes - 1, 90.0, 340.0});
  return cfg;
}

ClusterSimConfig central_cluster(std::size_t nodes) {
  ClusterSimConfig cfg = cluster_sim_reference_config(nodes);
  cfg.leased = false;
  return cfg;
}

TEST(ClusterSim, PartitionEscrowsAndHealSettlesExactly) {
  for (const std::size_t nodes : {4u, 6u}) {
    SCOPED_TRACE(std::to_string(nodes) + " nodes");
    const auto r = simulate_cluster(kClusterParent, partitioned_cluster(nodes));
    EXPECT_TRUE(r.conserved);
    EXPECT_GT(r.debt_created, 0u);
    EXPECT_TRUE(r.debt_settled);
    EXPECT_EQ(r.partition_global_touches, 0u);
    EXPECT_EQ(r.expiry_recovered, r.expiry_refunded);
  }
}

TEST(ClusterSim, LeasedTailBeatsCentralCounting) {
  for (const std::size_t nodes : {4u, 6u}) {
    SCOPED_TRACE(std::to_string(nodes) + " nodes");
    const auto leased =
        simulate_cluster(kClusterParent, cluster_sim_reference_config(nodes));
    const auto central = simulate_cluster(kClusterParent,
                                          central_cluster(nodes));
    EXPECT_TRUE(leased.conserved);
    EXPECT_TRUE(central.conserved);
    EXPECT_LT(leased.p99_admission, central.p99_admission);
  }
}

TEST(ClusterSim, GoldenSeedDeterminism) {
  for (const std::size_t nodes : {4u, 6u}) {
    SCOPED_TRACE(std::to_string(nodes) + " nodes");
    const auto a = simulate_cluster(kClusterParent, partitioned_cluster(nodes));
    const auto b = simulate_cluster(kClusterParent, partitioned_cluster(nodes));
    expect_same(a, b);
  }
}

TEST(ClusterSim, GoldenValues) {
  // {makespan, attempts, admitted, rejected, spent, renewals,
  //  renewal_tokens, donations, donated_tokens, expiries, expiry_recovered,
  //  expiry_refunded, debt_created, debt_reconciled,
  //  partition_global_touches, initial_tokens, final_parent_pool,
  //  final_account_tokens, final_local_tokens, conserved, debt_settled,
  //  p50_admission, p99_admission, parent_stalls}
  // Per node count: the reference, partitioned, and central configs.
  // clang-format off
  const ClusterSimResult golden[] = {
      {1031.3020848229853, 1920u, 1920u, 0u, 1920u, 24u, 2020u, 14u, 764u, 38u, 356u, 356u, 0u, 0u, 0u,
       3328u, 1082, 326, 0, true, true, 0.14779688475209163, 28.806664887504184, 1u},  // 4 nodes, reference
      {962.65290056440881, 1920u, 1226u, 694u, 1226u, 49u, 4402u, 12u, 590u, 59u, 3432u, 3432u, 76u, 76u, 0u,
       3328u, 1654, 448, 0, true, true, 0.15132740152293023, 98.992473192722329, 19u},  // 4 nodes, partitioned
      {7707.7296542858721, 1920u, 1920u, 0u, 1920u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u,
       3328u, 1408, 0, 0, true, true, 29.393827536097774, 54.748769612437847, 811u},  // 4 nodes, central
      {973.62909076689539, 2880u, 2880u, 0u, 2880u, 31u, 2948u, 13u, 700u, 43u, 452u, 452u, 0u, 0u, 0u,
       3968u, 636, 452, 0, true, true, 0.14215021696280949, 20.802728037602154, 2u},  // 6 nodes, reference
      {1109.9318206586413, 2880u, 2291u, 589u, 2291u, 91u, 7267u, 50u, 2462u, 138u, 5360u, 5360u, 150u, 150u, 0u,
       3968u, 1160, 517, 0, true, true, 0.15058806674028857, 124.86017910756185, 38u},  // 6 nodes, partitioned
      {7721.1512333043738, 2880u, 2880u, 0u, 2880u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u, 0u,
       3968u, 1088, 0, 0, true, true, 31.192353306180166, 55.303694012291984, 1660u},  // 6 nodes, central
  };
  // clang-format on
  std::size_t i = 0;
  for (const std::size_t nodes : {4u, 6u}) {
    for (const ClusterSimConfig& cfg :
         {cluster_sim_reference_config(nodes), partitioned_cluster(nodes),
          central_cluster(nodes)}) {
      SCOPED_TRACE(std::to_string(nodes) + " nodes, row " +
                   std::to_string(i));
      ASSERT_LT(i, std::size(golden));
      expect_same(simulate_cluster(kClusterParent, cfg), golden[i++]);
    }
  }
  EXPECT_EQ(i, std::size(golden));
}

}  // namespace
}  // namespace cnet::sim
