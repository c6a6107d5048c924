// svc/policy.hpp: the decision logic shared between the real service layer
// and the virtual-time simulator. These rules are pure functions, so the
// tests pin their edges exactly — a drift here would silently desynchronize
// model from reality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cnet/dist/policy.hpp"
#include "cnet/svc/policy.hpp"

namespace cnet::svc {
namespace {

TEST(WindowPolicy, EmptyWindowRateIsZero) {
  EXPECT_EQ(LoadWindow{}.event_rate(), 0.0);
  EXPECT_EQ((LoadWindow{0, 7}).event_rate(), 0.0);
  EXPECT_DOUBLE_EQ((LoadWindow{200, 10}).event_rate(), 0.05);
}

TEST(BucketPolicy, PartialGrabAllowed) {
  // Pool of 10 claimed through a take that hands out at most 4 per call:
  // partial mode drains all 10 across the loop.
  std::uint64_t pool = 10;
  std::uint64_t refunds = 0;
  const auto take = [&](std::uint64_t want) {
    const std::uint64_t got = std::min<std::uint64_t>({want, pool, 4});
    pool -= got;
    return got;
  };
  const auto put = [&](std::uint64_t n) { refunds += n; };
  EXPECT_EQ(bucket_consume(16, kPartialOk, take, put), 10u);
  EXPECT_EQ(pool, 0u);
  EXPECT_EQ(refunds, 0u);
}

TEST(BucketPolicy, ZeroTokensIsADefinedNoOp) {
  // Regression: tokens == 0 was undefined by the plan. It must succeed
  // trivially — return 0 without ever invoking take or put, in both modes.
  std::uint64_t takes = 0, puts = 0;
  const auto take = [&](std::uint64_t) -> std::uint64_t {
    ++takes;
    return 0;
  };
  const auto put = [&](std::uint64_t) { ++puts; };
  EXPECT_EQ(bucket_consume(0, kAllOrNothing, take, put), 0u);
  EXPECT_EQ(bucket_consume(0, kPartialOk, take, put), 0u);
  EXPECT_EQ(takes, 0u);
  EXPECT_EQ(puts, 0u);
}

TEST(BucketPolicy, AllOrNothingRefundsTheShortfall) {
  std::uint64_t pool = 10;
  std::uint64_t refunds = 0;
  const auto take = [&](std::uint64_t want) {
    const std::uint64_t got = std::min(want, pool);
    pool -= got;
    return got;
  };
  const auto put = [&](std::uint64_t n) { refunds += n; };
  // Short pool, no partial: the grab is refunded and nothing is consumed.
  EXPECT_EQ(bucket_consume(16, kAllOrNothing, take, put), 0u);
  EXPECT_EQ(refunds, 10u);
  // Exact-fit all-or-nothing succeeds without a refund.
  pool = 16;
  refunds = 0;
  EXPECT_EQ(bucket_consume(16, kAllOrNothing, take, put), 16u);
  EXPECT_EQ(refunds, 0u);
  // An observably empty pool consumes nothing and refunds nothing.
  EXPECT_EQ(bucket_consume(4, kAllOrNothing, take, put), 0u);
  EXPECT_EQ(refunds, 0u);
}

TEST(QuotaPolicy, WeightedLimitsPartitionTheBudget) {
  // Rounded down per tenant, so the limits can never sum past the budget.
  EXPECT_EQ(weighted_borrow_limit(12, 2, 4), 6u);
  EXPECT_EQ(weighted_borrow_limit(12, 1, 4), 3u);
  EXPECT_EQ(weighted_borrow_limit(10, 1, 3), 3u);  // floor(10/3)
  EXPECT_EQ(weighted_borrow_limit(10, 0, 3), 0u);
  EXPECT_EQ(weighted_borrow_limit(10, 3, 0), 0u);  // degenerate: no weights
  // Large budgets survive the intermediate product (128-bit inside).
  EXPECT_EQ(weighted_borrow_limit(1ull << 60, 3, 4), 3ull << 58);
}

TEST(QuotaPolicy, BorrowAllowanceClampsAtTheLimit) {
  EXPECT_EQ(borrow_allowance(5, 0, 8), 5u);   // fully inside the cap
  EXPECT_EQ(borrow_allowance(5, 6, 8), 2u);   // clipped to the headroom
  EXPECT_EQ(borrow_allowance(5, 8, 8), 0u);   // saturated
  EXPECT_EQ(borrow_allowance(5, 9, 8), 0u);   // never negative headroom
  EXPECT_EQ(borrow_allowance(0, 3, 8), 0u);
}

TEST(QuotaPolicy, SettlementIsAllOrNothingPerLevel) {
  const auto full = quota_settle(5, 2, 3);
  EXPECT_TRUE(full.admitted);
  EXPECT_EQ(full.refund_child, 0u);
  EXPECT_EQ(full.refund_parent, 0u);
  const auto shortfall = quota_settle(5, 2, 1);
  EXPECT_FALSE(shortfall.admitted);
  EXPECT_EQ(shortfall.refund_child, 2u);   // back to the child
  EXPECT_EQ(shortfall.refund_parent, 1u);  // back to the parent
  // The zero-token no-op settles as admitted with empty parts.
  EXPECT_TRUE(quota_settle(0, 0, 0).admitted);
}

// A tiny synchronous harness for the full acquire plan: two integer pools
// and a reservation ledger, mirroring what QuotaHierarchy wires in.
struct PlanHarness {
  std::uint64_t child, parent, borrowed, limit;
  std::uint64_t reserves = 0, unreserves = 0;

  QuotaGrantPlan acquire(std::uint64_t tokens, ConsumeOptions opts = {}) {
    return quota_acquire(
        tokens,
        [&](std::uint64_t n) {
          const std::uint64_t got = std::min(n, child);
          child -= got;
          return got;
        },
        [&](std::uint64_t n) {
          const std::uint64_t ok = borrow_allowance(n, borrowed, limit);
          borrowed += ok;
          reserves += ok;
          return ok;
        },
        [&](std::uint64_t n) {
          borrowed -= n;
          unreserves += n;
        },
        [&](std::uint64_t n) {
          const std::uint64_t got = std::min(n, parent);
          parent -= got;
          return got;
        },
        [&](std::uint64_t n) { child += n; },
        [&](std::uint64_t n) { parent += n; }, opts);
  }
};

TEST(QuotaPolicy, AcquireTakesChildFirstThenBorrows) {
  PlanHarness h{.child = 2, .parent = 10, .borrowed = 0, .limit = 5};
  const auto plan = h.acquire(6);
  EXPECT_TRUE(plan.admitted);
  EXPECT_EQ(plan.from_child, 2u);
  EXPECT_EQ(plan.from_parent, 4u);
  EXPECT_EQ(h.child, 0u);
  EXPECT_EQ(h.parent, 6u);
  EXPECT_EQ(h.borrowed, 4u);  // the reservation is the outstanding borrow
  EXPECT_EQ(h.unreserves, 0u);
}

TEST(QuotaPolicy, AcquireOverTheLimitRefundsAndUnreserves) {
  // Shortfall 6 against headroom 3: the reservation fails, the child grab
  // goes back, the parent is never touched.
  PlanHarness h{.child = 2, .parent = 10, .borrowed = 2, .limit = 5};
  const auto plan = h.acquire(8);
  EXPECT_FALSE(plan.admitted);
  EXPECT_EQ(h.child, 2u);
  EXPECT_EQ(h.parent, 10u);
  EXPECT_EQ(h.borrowed, 2u);
  EXPECT_EQ(h.reserves, h.unreserves);  // every reservation returned
}

TEST(QuotaPolicy, AcquireAgainstAShortParentRefundsBothLevels) {
  PlanHarness h{.child = 1, .parent = 2, .borrowed = 0, .limit = 8};
  const auto plan = h.acquire(5);  // needs 4 from a parent holding 2
  EXPECT_FALSE(plan.admitted);
  EXPECT_EQ(h.child, 1u);
  EXPECT_EQ(h.parent, 2u);
  EXPECT_EQ(h.borrowed, 0u);
}

TEST(QuotaPolicy, AcquireZeroAdmitsWithoutTouchingAnything) {
  PlanHarness h{.child = 3, .parent = 4, .borrowed = 1, .limit = 5};
  const auto plan = h.acquire(0);
  EXPECT_TRUE(plan.admitted);
  EXPECT_EQ(plan.from_child + plan.from_parent, 0u);
  EXPECT_EQ(h.child, 3u);
  EXPECT_EQ(h.parent, 4u);
  EXPECT_EQ(h.borrowed, 1u);
}

TEST(QuotaPolicy, DegradedAcquireAdmitsShortWithExactParts) {
  // The same short-parent shape that rejects above: under partial_ok
  // (the kDegradePartial action) it admits with exactly what both levels
  // yielded, and the reservation headroom the parent could not cover is
  // returned so outstanding borrow == from_parent.
  PlanHarness h{.child = 1, .parent = 2, .borrowed = 0, .limit = 8};
  const auto plan = h.acquire(5, kPartialOk);
  EXPECT_TRUE(plan.admitted);
  EXPECT_EQ(plan.from_child, 1u);
  EXPECT_EQ(plan.from_parent, 2u);
  EXPECT_EQ(h.child, 0u);
  EXPECT_EQ(h.parent, 0u);
  EXPECT_EQ(h.borrowed, 2u);  // reserved 4, claimed 2, unreserved 2
  EXPECT_EQ(h.unreserves, 2u);
}

TEST(QuotaPolicy, DegradedAcquireAcceptsAPartialReservation) {
  // Shortfall 6 against headroom 2: all-or-nothing would reject without
  // touching the parent; degrade borrows just the allowance.
  PlanHarness h{.child = 2, .parent = 10, .borrowed = 3, .limit = 5};
  const auto plan = h.acquire(8, kPartialOk);
  EXPECT_TRUE(plan.admitted);
  EXPECT_EQ(plan.from_child, 2u);
  EXPECT_EQ(plan.from_parent, 2u);
  EXPECT_EQ(h.parent, 8u);
  EXPECT_EQ(h.borrowed, 5u);  // pinned at the limit, not beyond
}

TEST(OverloadPolicy, EscalationIsImmediate) {
  const OverloadThresholds th;
  // From nominal, any pressure jumps straight to the highest entered tier
  // — no ladder-climbing delay.
  EXPECT_EQ(overload_tier(0.97, OverloadTier::kNominal, th),
            OverloadTier::kShedTenants);
  EXPECT_EQ(overload_tier(0.72, OverloadTier::kNominal, th),
            OverloadTier::kPreDegrade);
  EXPECT_EQ(overload_tier(0.49, OverloadTier::kNominal, th),
            OverloadTier::kNominal);
  EXPECT_EQ(overload_tier(0.50, OverloadTier::kNominal, th),
            OverloadTier::kShrinkBatch);  // enter thresholds are inclusive
}

TEST(OverloadPolicy, DescentIsHysteretic) {
  const OverloadThresholds th;  // enter {-, .50, .70, .85, .95}, hyst .10
  // Inside tier 4's band (> .85): held.
  EXPECT_EQ(overload_tier(0.90, OverloadTier::kShedTenants, th),
            OverloadTier::kShedTenants);
  // At the exit threshold exactly: released, down to the highest tier
  // still held (tier 3 holds above .75).
  EXPECT_EQ(overload_tier(0.85, OverloadTier::kShedTenants, th),
            OverloadTier::kDegradePartial);
  // .55 releases tiers 4..2 but tier 1 still holds (> .40).
  EXPECT_EQ(overload_tier(0.55, OverloadTier::kShedTenants, th),
            OverloadTier::kShrinkBatch);
  EXPECT_EQ(overload_tier(0.40, OverloadTier::kShrinkBatch, th),
            OverloadTier::kNominal);
  // The band is what prevents flapping: the same .65 that cannot *enter*
  // tier 2 does keep it alive once entered.
  EXPECT_EQ(overload_tier(0.65, OverloadTier::kNominal, th),
            OverloadTier::kShrinkBatch);
  EXPECT_EQ(overload_tier(0.65, OverloadTier::kPreDegrade, th),
            OverloadTier::kPreDegrade);
}

TEST(OverloadPolicy, ActionTableIsMonotone) {
  auto prev = overload_actions(OverloadTier::kNominal);
  EXPECT_EQ(prev.batch_divisor, 1u);
  EXPECT_FALSE(prev.degrade_to_partial || prev.shed_tenants);
  for (std::size_t t = 1; t < kNumOverloadTiers; ++t) {
    const auto cur = overload_actions(static_cast<OverloadTier>(t));
    EXPECT_GE(cur.batch_divisor, prev.batch_divisor) << "tier " << t;
    EXPECT_TRUE(cur.degrade_to_partial || !prev.degrade_to_partial)
        << "tier " << t;
    EXPECT_TRUE(cur.shed_tenants || !prev.shed_tenants) << "tier " << t;
    prev = cur;
  }
  EXPECT_EQ(prev.batch_divisor, kOverloadBatchDivisor);
  EXPECT_TRUE(prev.degrade_to_partial && prev.shed_tenants);
}

TEST(OverloadPolicy, PreDegradeKeepsTierOnesActions) {
  const auto shrink = overload_actions(OverloadTier::kShrinkBatch);
  const auto pre = overload_actions(OverloadTier::kPreDegrade);
  EXPECT_EQ(pre.batch_divisor, shrink.batch_divisor);
  EXPECT_EQ(pre.degrade_to_partial, shrink.degrade_to_partial);
  EXPECT_EQ(pre.shed_tenants, shrink.shed_tenants);
  EXPECT_STREQ(overload_tier_name(OverloadTier::kPreDegrade), "pre-degrade");
}

TEST(OverloadPolicy, PressureRulesClampAndTreatEmptiesAsIdle) {
  // Empty window and zero saturation both read as zero — an idle system
  // decays to nominal instead of holding its last reading.
  EXPECT_EQ(window_pressure({.ops = 0, .events = 9}, 2.0), 0.0);
  EXPECT_EQ(window_pressure({.ops = 10, .events = 5}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(window_pressure({.ops = 10, .events = 5}, 2.0), 0.25);
  EXPECT_EQ(window_pressure({.ops = 4, .events = 1000}, 1.0), 1.0);  // clamp
  // Capacity 0 means "no budget at all": any occupancy is full pressure,
  // zero occupancy is idle. (Regression: this used to read 0.0 — a
  // zero-budget gauge could never raise pressure, so a reweighed-to-zero
  // tenant's backlog was invisible to the tier ladder.)
  EXPECT_EQ(occupancy_pressure(5, 0), 1.0);
  EXPECT_EQ(occupancy_pressure(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(occupancy_pressure(3, 4), 0.75);
  EXPECT_EQ(occupancy_pressure(9, 4), 1.0);
  // Max-combine: the worst signal wins; out-of-range readings clamp.
  EXPECT_DOUBLE_EQ(combine_pressure({0.2, 0.9, 0.1}), 0.9);
  EXPECT_EQ(combine_pressure({-3.0, 7.0}), 1.0);
  EXPECT_EQ(combine_pressure({}), 0.0);
}

TEST(ReconfigPolicy, DividedChunkFloorsAtOneAndIgnoresTrivialDivisors) {
  EXPECT_EQ(divided_chunk(64, 1), 64u);
  EXPECT_EQ(divided_chunk(64, 0), 64u);  // no divisor: unchanged
  EXPECT_EQ(divided_chunk(64, 4), 16u);
  EXPECT_EQ(divided_chunk(3, 4), 1u);   // floor: progress is never zero
  EXPECT_EQ(divided_chunk(0, 1), 1u);   // degenerate chunk also floors
  EXPECT_EQ(divided_chunk(256, 256), 1u);
}

TEST(ReconfigPolicy, RespecSafeBoundsTheChunk) {
  EXPECT_FALSE(respec_safe(0));
  EXPECT_TRUE(respec_safe(1));
  EXPECT_TRUE(respec_safe(kMaxRefillChunk));
  EXPECT_FALSE(respec_safe(kMaxRefillChunk + 1));
}

TEST(ReconfigPolicy, ReweighSafeRequiresAFullPositiveVector) {
  EXPECT_TRUE(reweigh_safe(3, {1, 2, 3}));
  EXPECT_FALSE(reweigh_safe(3, {1, 2}));      // positional: size must match
  EXPECT_FALSE(reweigh_safe(3, {1, 2, 3, 4}));
  EXPECT_FALSE(reweigh_safe(3, {1, 0, 3}));   // zero weight is a shed
  EXPECT_FALSE(reweigh_safe(0, {}));          // no tenants, nothing to weigh
}

TEST(ReconfigPolicy, ReweighLimitsRedividesAgainstTheVectorsOwnTotal) {
  EXPECT_EQ(reweigh_limits(100, {1, 1}), (std::vector<std::uint64_t>{50, 50}));
  EXPECT_EQ(reweigh_limits(100, {3, 1}), (std::vector<std::uint64_t>{75, 25}));
  // Per-tenant limits agree with the scalar rule on the same total...
  const std::vector<std::uint64_t> weights{4, 2, 1, 1};
  const auto limits = reweigh_limits(120, weights);
  ASSERT_EQ(limits.size(), weights.size());
  for (std::size_t t = 0; t < limits.size(); ++t) {
    EXPECT_EQ(limits[t], weighted_borrow_limit(120, weights[t], 8))
        << "tenant " << t;
  }
  // ...and the published vector's sum never exceeds the budget — the
  // whole-vector atomicity invariant a mixed-generation read would break.
  std::uint64_t sum = 0;
  for (const std::uint64_t l : limits) sum += l;
  EXPECT_LE(sum, 120u);
}

TEST(ReconfigPolicy, BorrowOverageIsNeverClawedBack) {
  EXPECT_EQ(borrow_overage(40, 10), 30u);  // shrunken limit: pure overage
  EXPECT_EQ(borrow_overage(10, 10), 0u);
  EXPECT_EQ(borrow_overage(5, 10), 0u);
  // The overage only ever drains through releases: allowance is zero while
  // any overage exists, so no new borrow can extend it.
  EXPECT_EQ(borrow_allowance(1, 40, 10), 0u);
  EXPECT_EQ(borrow_allowance(1, 10, 10), 0u);
  EXPECT_EQ(borrow_allowance(1, 9, 10), 1u);
}

TEST(OverloadPolicy, ShedSetPicksLowWeightsAndNeverShedsEveryone) {
  // Weights {4,2,1,1} at fraction .25: weight budget 2 — both weight-1
  // tenants, the higher index first, reported ascending.
  EXPECT_EQ(shed_set({4, 2, 1, 1}, 0.25), (std::vector<std::size_t>{2, 3}));
  // Ties break toward the higher index, so tenant 0 goes last.
  EXPECT_EQ(shed_set({1, 1, 1}, 0.34), (std::vector<std::size_t>{1, 2}));
  // Even fraction 1.0 leaves one tenant standing.
  EXPECT_EQ(shed_set({5, 3, 2}, 1.0), (std::vector<std::size_t>{1, 2}));
  // Degenerate inputs shed nobody.
  EXPECT_TRUE(shed_set({7}, 0.9).empty());
  EXPECT_TRUE(shed_set({3, 4}, 0.0).empty());
  EXPECT_TRUE(shed_set({}, 0.5).empty());
}

TEST(DistPolicy, LeaseGrantCoarsensSmallWantsAndCapsLargeOnes) {
  // want below the chunk rounds up to a full chunk; zero means "top up".
  EXPECT_EQ(dist::lease_grant(0, 96, 384), 96u);
  EXPECT_EQ(dist::lease_grant(40, 96, 384), 96u);
  // want above the chunk is honored exactly, until the per-node cap.
  EXPECT_EQ(dist::lease_grant(200, 96, 384), 200u);
  EXPECT_EQ(dist::lease_grant(500, 96, 384), 384u);
  // A cap below the chunk wins: the cap is the hard per-lease bound.
  EXPECT_EQ(dist::lease_grant(0, 96, 64), 64u);
}

TEST(DistPolicy, ExpiryRefundIsParentFirstAndAlwaysSumsToRecovered) {
  // Spend attributes child-first, so recovery refunds parent-first: all 30
  // spent tokens came from the child part here.
  const auto r = dist::lease_expiry_refund(50, 50, 70);
  EXPECT_EQ(r.refund_child, 20u);
  EXPECT_EQ(r.refund_parent, 50u);
  // Fully recovered: both parts go home whole.
  const auto whole = dist::lease_expiry_refund(50, 50, 100);
  EXPECT_EQ(whole.refund_child, 50u);
  EXPECT_EQ(whole.refund_parent, 50u);
  // Fully spent: nothing to refund.
  const auto spent = dist::lease_expiry_refund(50, 50, 0);
  EXPECT_EQ(spent.refund_child + spent.refund_parent, 0u);
  // Over-recovery (corrupt caller) is capped at the grant total.
  const auto capped = dist::lease_expiry_refund(50, 50, 999);
  EXPECT_EQ(capped.refund_child + capped.refund_parent, 100u);
  // Exhaustive small sweep: the split never loses a token.
  for (std::uint64_t fc = 0; fc <= 5; ++fc) {
    for (std::uint64_t fp = 0; fp <= 5; ++fp) {
      for (std::uint64_t rec = 0; rec <= fc + fp; ++rec) {
        const auto s = dist::lease_expiry_refund(fc, fp, rec);
        EXPECT_EQ(s.refund_child + s.refund_parent, rec);
        EXPECT_LE(s.refund_child, fc);
        EXPECT_LE(s.refund_parent, fp);
      }
    }
  }
}

TEST(DistPolicy, DebtReconcileAndSurplusClampAtTheirBounds) {
  EXPECT_EQ(dist::debt_reconcile(1000, 192), 192u);
  EXPECT_EQ(dist::debt_reconcile(100, 192), 100u);
  EXPECT_EQ(dist::debt_reconcile(0, 192), 0u);
  // The reserve is inviolable: at or below it a peer donates nothing.
  EXPECT_EQ(dist::peer_surplus(100, 24), 76u);
  EXPECT_EQ(dist::peer_surplus(24, 24), 0u);
  EXPECT_EQ(dist::peer_surplus(0, 24), 0u);
}

TEST(DistPolicy, LeaseCarveTakesChildFirstAndNeverOverdraws) {
  const auto both = dist::lease_carve(70, 50, 50);
  EXPECT_EQ(both.from_child, 50u);
  EXPECT_EQ(both.from_parent, 20u);
  EXPECT_EQ(both.tokens(), 70u);
  const auto child_only = dist::lease_carve(30, 50, 50);
  EXPECT_EQ(child_only.from_child, 30u);
  EXPECT_EQ(child_only.from_parent, 0u);
  // A want beyond both parts carves everything available, no more.
  const auto all = dist::lease_carve(999, 50, 50);
  EXPECT_EQ(all.tokens(), 100u);
}

TEST(DistPolicy, RenewalTargetWalksNearestFirstThenGoesGlobal) {
  // 0|1 share a rack, 2|3 share a rack in the other dc.
  const dist::Topology topo({{0, 0}, {0, 0}, {1, 0}, {1, 0}});
  ASSERT_TRUE(dist::renewal_target(topo, 0, 0).has_value());
  EXPECT_EQ(*dist::renewal_target(topo, 0, 0), 1u);  // rack-mate first
  // The remaining peers follow (remote dc, both nodes), then the walk
  // ends: nullopt is the "ask the global hierarchy yourself" signal.
  EXPECT_TRUE(dist::renewal_target(topo, 0, 1).has_value());
  EXPECT_TRUE(dist::renewal_target(topo, 0, 2).has_value());
  EXPECT_FALSE(dist::renewal_target(topo, 0, 3).has_value());
}

}  // namespace
}  // namespace cnet::svc
