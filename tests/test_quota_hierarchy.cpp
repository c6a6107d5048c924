// svc::QuotaHierarchy: child-first acquisition, weighted max-borrow from
// the shared parent, all-or-nothing refunds to the level each token came
// from, and exact two-level conservation — sequentially, across every
// parent backend spec, and under concurrent tenant threads (the TSan
// concurrency label covers the reservation CAS and the release ordering).
#include "cnet/svc/quota.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "cnet/svc/backend.hpp"
#include "cnet/util/prng.hpp"
#include "test_svc_util.hpp"

namespace cnet::svc {
namespace {

QuotaHierarchy::Config base_config(BackendSpec parent,
                                   std::uint64_t parent_tokens,
                                   std::uint64_t budget) {
  QuotaHierarchy::Config cfg;
  cfg.parent = parent;
  cfg.parent_initial_tokens = parent_tokens;
  cfg.borrow_budget = budget;
  return cfg;
}

// Drains a bucket one token at a time from a quiescent state.
std::uint64_t drain(NetTokenBucket& bucket) {
  std::uint64_t total = 0;
  while (bucket.consume(0, 1, kPartialOk) == 1) ++total;
  return total;
}

TEST(QuotaHierarchy, BorrowsFromTheParentOnChildShortfall) {
  QuotaHierarchy q(base_config(BackendKind::kCentralAtomic, 10, 8),
                   {{.initial_tokens = 2, .weight = 1}});
  const auto grant = q.acquire(0, 0, 5);
  ASSERT_TRUE(grant.admitted);
  EXPECT_EQ(grant.from_child, 2u);   // the child covered what it had
  EXPECT_EQ(grant.from_parent, 3u);  // the shortfall came from the parent
  EXPECT_EQ(grant.tokens(), 5u);
  EXPECT_EQ(q.borrowed(0), 3u);

  q.release(0, grant);
  EXPECT_EQ(q.borrowed(0), 0u);
  // Every token returned to its own level.
  EXPECT_EQ(drain(q.child(0)), 2u);
  EXPECT_EQ(drain(q.parent()), 10u);
}

TEST(QuotaHierarchy, RejectionRefundsEachLevelExactly) {
  // Child holds 2, borrow limit is 3, parent has plenty: a request for 7
  // cannot be covered (shortfall 5 > limit 3) and must put the child's 2
  // tokens straight back.
  QuotaHierarchy q(base_config(BackendKind::kCentralAtomic, 20, 3),
                   {{.initial_tokens = 2, .weight = 1}});
  const auto grant = q.acquire(0, 0, 7);
  EXPECT_FALSE(grant.admitted);
  EXPECT_EQ(grant.tokens(), 0u);
  EXPECT_EQ(q.borrowed(0), 0u);
  EXPECT_EQ(drain(q.child(0)), 2u);
  EXPECT_EQ(drain(q.parent()), 20u);
}

TEST(QuotaHierarchy, ParentShortfallRefundsTheParentGrab) {
  // Limit allows the borrow but the parent pool itself is short: the
  // partial parent grab goes back to the parent, the child part to the
  // child, the reservation is fully returned.
  QuotaHierarchy q(base_config(BackendKind::kCentralAtomic, 3, 50),
                   {{.initial_tokens = 1, .weight = 1}});
  const auto grant = q.acquire(0, 0, 6);  // needs 5 from a parent of 3
  EXPECT_FALSE(grant.admitted);
  EXPECT_EQ(q.borrowed(0), 0u);
  EXPECT_EQ(drain(q.child(0)), 1u);
  EXPECT_EQ(drain(q.parent()), 3u);
}

TEST(QuotaHierarchy, WeightedLimitsSplitTheBudget) {
  QuotaHierarchy q(base_config(BackendKind::kCentralAtomic, 20, 12),
                   {{.initial_tokens = 0, .weight = 2},
                    {.initial_tokens = 0, .weight = 1},
                    {.initial_tokens = 0, .weight = 1}});
  EXPECT_EQ(q.borrow_limit(0), 6u);  // 12 * 2/4
  EXPECT_EQ(q.borrow_limit(1), 3u);  // 12 * 1/4
  EXPECT_EQ(q.borrow_limit(2), 3u);
  EXPECT_EQ(q.weight(0), 2u);

  // Tenant 0 can take its 6 but not a 7th; tenant 1's own cap is intact.
  const auto six = q.acquire(0, 0, 6);
  ASSERT_TRUE(six.admitted);
  EXPECT_EQ(q.borrowed(0), 6u);
  EXPECT_FALSE(q.acquire(0, 0, 1).admitted);
  const auto other = q.acquire(1, 1, 3);
  EXPECT_TRUE(other.admitted);
  q.release(0, six);
  q.release(1, other);
  EXPECT_EQ(drain(q.parent()), 20u);
}

TEST(QuotaHierarchy, ZeroTokenAcquireIsAnAdmittedNoOp) {
  QuotaHierarchy q(base_config(BackendKind::kBatchedNetwork, 5, 4),
                   {{.initial_tokens = 3, .weight = 1}});
  const auto grant = q.acquire(0, 0, 0);
  EXPECT_TRUE(grant.admitted);
  EXPECT_EQ(grant.tokens(), 0u);
  EXPECT_EQ(q.borrowed(0), 0u);
  q.release(0, grant);  // releasing the empty grant is equally a no-op
  EXPECT_EQ(drain(q.child(0)), 3u);
  EXPECT_EQ(drain(q.parent()), 5u);
}

TEST(QuotaHierarchy, RefillsAddCapacityAtTheRightLevel) {
  QuotaHierarchy q(base_config(BackendKind::kCentralAtomic, 0, 4),
                   {{.initial_tokens = 0, .weight = 1}});
  EXPECT_FALSE(q.acquire(0, 0, 1).admitted);  // both levels empty
  q.refill_tenant(0, 0, 2);
  const auto child_grant = q.acquire(0, 0, 1);
  EXPECT_TRUE(child_grant.admitted);
  EXPECT_EQ(child_grant.from_child, 1u);
  q.refill_parent(0, 3);
  const auto mixed = q.acquire(0, 0, 3);
  ASSERT_TRUE(mixed.admitted);
  EXPECT_EQ(mixed.from_child, 1u);
  EXPECT_EQ(mixed.from_parent, 2u);
}

TEST(QuotaHierarchy, RejectsMisuse) {
  EXPECT_THROW(
      QuotaHierarchy(base_config(BackendKind::kCentralAtomic, 0, 0),
                     {}),
      std::invalid_argument);
  EXPECT_THROW(
      QuotaHierarchy(base_config(BackendKind::kCentralAtomic, 0, 0),
                     {{.initial_tokens = 0, .weight = 0}}),
      std::invalid_argument);
  QuotaHierarchy q(base_config(BackendKind::kCentralAtomic, 4, 2),
                   {{.initial_tokens = 1, .weight = 1}});
  EXPECT_THROW(q.acquire(0, 7, 1), std::invalid_argument);
  QuotaHierarchy::Grant rejected;  // admitted == false
  EXPECT_THROW(q.release(0, rejected), std::invalid_argument);
}

TEST(QuotaHierarchy, NameReflectsTheParentSpec) {
  auto cfg = base_config(BackendKind::kBatchedNetwork, 1, 1);
  const QuotaHierarchy::Config host_sized = cfg;
  cfg.net = test::shape_config({8, 24});
  QuotaHierarchy q(cfg, {{.initial_tokens = 0, .weight = 1}});
  EXPECT_EQ(q.name(), "quota·batched C(8,24)");
  // A default-built parent carries the host-sized shape.
  EXPECT_EQ(QuotaHierarchy(host_sized, {{.initial_tokens = 0, .weight = 1}})
                .name(),
            "quota·batched " + test::shape_label(util::counting_shape()));
}

// Every parent backend kind conserves tokens through a sequential
// acquire/release mix.
class QuotaParentSpecs : public ::testing::TestWithParam<BackendKind> {};

TEST_P(QuotaParentSpecs, SequentialConservation) {
  QuotaHierarchy q(base_config(GetParam(), 12, 10),
                   {{.initial_tokens = 2, .weight = 3},
                    {.initial_tokens = 1, .weight = 1}});
  std::vector<QuotaHierarchy::Grant> held;
  util::Xoshiro256 rng(0x0D0A);
  for (int i = 0; i < 200; ++i) {
    const auto tenant = static_cast<std::size_t>(rng.below(2));
    if (!held.empty() && rng.below(2) == 0) {
      q.release(0, held.back());
      held.pop_back();
    } else {
      const auto grant = q.acquire(0, tenant, 1 + rng.below(4));
      if (grant.admitted) held.push_back(grant);
    }
    EXPECT_LE(q.borrowed(0), q.borrow_limit(0));
    EXPECT_LE(q.borrowed(1), q.borrow_limit(1));
  }
  for (const auto& grant : held) q.release(0, grant);
  EXPECT_EQ(q.borrowed(0), 0u);
  EXPECT_EQ(q.borrowed(1), 0u);
  EXPECT_EQ(drain(q.child(0)), 2u);
  EXPECT_EQ(drain(q.child(1)), 1u);
  EXPECT_EQ(drain(q.parent()), 12u);
}

INSTANTIATE_TEST_SUITE_P(AllPoolBackends, QuotaParentSpecs,
                         ::testing::ValuesIn(kAllBackendKinds),
                         test::backend_param_name);

// The ISSUE's concurrency invariant: N tenant threads running a mixed
// acquire/release workload against one shared parent. At every
// observation point granted <= refilled per level (the borrow cap bounds
// the parent side, the bucket bounds each child), and at quiescence the
// ledger is exact.
TEST(QuotaHierarchy, ConcurrentMixedAcquireReleaseConservesBothLevels) {
  constexpr std::size_t kTenants = 4, kThreadsPerTenant = 2;
  constexpr std::uint64_t kParentTokens = 33, kBudget = 32;
  constexpr std::uint64_t kChildTokens = 3;
  QuotaHierarchy q(
      base_config(BackendKind::kBatchedNetwork, kParentTokens,
                  kBudget),
      std::vector<QuotaHierarchy::TenantConfig>(
          kTenants, {.initial_tokens = kChildTokens, .weight = 1}));

  std::atomic<bool> cap_violated{false};
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kTenants * kThreadsPerTenant; ++t) {
      workers.emplace_back([&, t] {
        const std::size_t tenant = t % kTenants;
        util::Xoshiro256 rng(0xC0FFEE + t);
        std::vector<QuotaHierarchy::Grant> held;
        for (int i = 0; i < 2000; ++i) {
          if (!held.empty() && rng.below(3) == 0) {
            q.release(t, held.back());
            held.pop_back();
          } else {
            const auto grant = q.acquire(t, tenant, 1 + rng.below(3));
            if (grant.admitted) held.push_back(grant);
          }
          // The reservation keeps this true at every instant, including
          // mid-acquire on other threads of the same tenant.
          if (q.borrowed(tenant) > q.borrow_limit(tenant)) {
            cap_violated.store(true, std::memory_order_relaxed);
          }
        }
        for (const auto& grant : held) q.release(t, grant);
      });
    }
  }
  EXPECT_FALSE(cap_violated.load());
  for (std::size_t i = 0; i < kTenants; ++i) {
    EXPECT_EQ(q.borrowed(i), 0u) << "tenant " << i << " leaked borrow";
    EXPECT_EQ(drain(q.child(i)), kChildTokens) << "child " << i;
  }
  EXPECT_EQ(drain(q.parent()), kParentTokens)
      << "parent pool was not conserved across the run";
}

// Cold tenants must be structurally immune to a hot tenant saturating its
// cap: with the budget sized one acquire below the parent pool, an in-cap
// reservation always finds its tokens, so the cold tenant's single-token
// borrows never fail even while hot threads hammer the parent.
TEST(QuotaHierarchy, HotTenantCannotStarveAColdTenant) {
  QuotaHierarchy q(base_config(BackendKind::kBatchedNetwork, 9, 8),
                   {{.initial_tokens = 0, .weight = 3},
                    {.initial_tokens = 0, .weight = 1}});
  ASSERT_GE(q.borrow_limit(1), 1u);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> cold_rejects{0};
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < 3; ++t) {
      workers.emplace_back([&, t] {  // hot tenant 0, hints 0..2
        std::vector<QuotaHierarchy::Grant> held;
        while (!stop.load(std::memory_order_relaxed)) {
          if (held.size() >= 2) {
            q.release(t, held.back());
            held.pop_back();
          }
          const auto grant = q.acquire(t, 0, 2);
          if (grant.admitted) held.push_back(grant);
        }
        for (const auto& grant : held) q.release(t, grant);
      });
    }
    workers.emplace_back([&] {  // cold tenant 1, hint 3
      for (int i = 0; i < 3000; ++i) {
        const auto grant = q.acquire(3, 1, 1);
        if (!grant.admitted) {
          cold_rejects.fetch_add(1, std::memory_order_relaxed);
        } else {
          q.release(3, grant);
        }
      }
      stop.store(true);
    });
  }
  EXPECT_EQ(cold_rejects.load(), 0u)
      << "a hot tenant starved a cold tenant's in-cap borrow";
  EXPECT_EQ(drain(q.parent()), 9u);
}

}  // namespace
}  // namespace cnet::svc
