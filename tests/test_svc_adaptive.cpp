// svc::AdaptiveCounter: the central→network hot swap must preserve pool
// counts exactly (the migrated token count equals the cold backend's
// remaining pool), keep the bound-at-zero guarantee at every interleaving,
// and trigger off the LoadStats probe without any cooperation from callers.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cnet/svc/adaptive.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/net_token_bucket.hpp"
#include "cnet/util/prng.hpp"

namespace cnet::svc {
namespace {

TEST(AdaptiveCounter, StartsColdAndBoundsAtZero) {
  AdaptiveCounter counter;
  EXPECT_FALSE(counter.switched());
  EXPECT_EQ(counter.name(), "adaptive·central-atomic");
  for (int i = 0; i < 10; ++i) (void)counter.fetch_increment(0);
  EXPECT_EQ(counter.try_fetch_decrement_n(0, 100), 10u);
  EXPECT_FALSE(counter.try_fetch_decrement(0));
  EXPECT_FALSE(counter.switched());
}

TEST(AdaptiveCounter, ForceSwitchMigratesThePoolExactly) {
  AdaptiveCounter counter;
  std::int64_t scratch[37];
  counter.fetch_increment_batch(0, 37, scratch);
  EXPECT_EQ(counter.try_fetch_decrement_n(0, 5), 5u);

  counter.force_switch(0);
  EXPECT_TRUE(counter.switched());
  EXPECT_EQ(counter.name(), "adaptive·batched C(8,24)");
  // The 32 remaining tokens moved across backends; not one more or less.
  EXPECT_EQ(counter.try_fetch_decrement_n(0, 100), 32u);
  EXPECT_EQ(counter.try_fetch_decrement_n(0, 100), 0u);
}

TEST(AdaptiveCounter, StallRateThresholdTriggersTheSwitchUnprompted) {
  AdaptiveCounter::Config cfg;
  cfg.tuning.sample_interval = 64;
  cfg.tuning.min_window_ops = 64;
  cfg.tuning.stall_rate_threshold = 0.0;  // any sampled window qualifies
  AdaptiveCounter counter(cfg);
  EXPECT_FALSE(counter.switched());
  for (int i = 0; i < 200 && !counter.switched(); ++i) {
    (void)counter.fetch_increment(0);
  }
  EXPECT_TRUE(counter.switched());
  // Every pre-switch increment survived the migration.
  std::uint64_t drained = 0;
  for (std::uint64_t got;
       (got = counter.try_fetch_decrement_n(0, 16)) != 0;) {
    drained += got;
  }
  EXPECT_GE(drained, 64u);
}

TEST(AdaptiveCounter, SwapUnderConcurrentMixedTrafficConservesCounts) {
  AdaptiveCounter counter;
  constexpr std::size_t kThreads = 6, kOps = 1500;
  std::vector<std::uint64_t> incs(kThreads, 0), decs(kThreads, 0);
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        util::Xoshiro256 rng(0xADA7 + t);
        std::int64_t batch[8];
        for (std::size_t i = 0; i < kOps; ++i) {
          switch (rng.below(4)) {
            case 0: {
              const std::size_t k = 1 + rng.below(8);
              counter.fetch_increment_batch(t, k, batch);
              incs[t] += k;
              break;
            }
            case 1: {
              decs[t] += counter.try_fetch_decrement_n(t, 1 + rng.below(8));
              break;
            }
            case 2: {
              if (counter.try_fetch_decrement(t)) ++decs[t];
              break;
            }
            default: {
              (void)counter.fetch_increment(t);
              ++incs[t];
              break;
            }
          }
          if (t == 0 && i == kOps / 2) counter.force_switch(t);
        }
      });
    }
  }
  EXPECT_TRUE(counter.switched());
  std::uint64_t total_incs = 0, total_decs = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    total_incs += incs[t];
    total_decs += decs[t];
  }
  ASSERT_LE(total_decs, total_incs);
  std::uint64_t drained = 0;
  for (std::uint64_t got;
       (got = counter.try_fetch_decrement_n(0, 16)) != 0;) {
    drained += got;
  }
  EXPECT_EQ(total_decs + drained, total_incs)
      << "tokens were minted or lost across the backend swap";
}

TEST(AdaptiveCounter, BulkConsumeChargesTheTokenCountNotOneOp) {
  // Regression: try_fetch_decrement_n used to charge a single op for an
  // n-token bulk claim while the batch-increment path charged k, so
  // bulk-consume-heavy loads undercounted ops and overestimated the stall
  // rate. The probe must see the tokens actually transferred (minimum one
  // for an empty-pool attempt).
  AdaptiveCounter counter;
  std::int64_t scratch[64];
  counter.fetch_increment_batch(0, 64, scratch);
  EXPECT_EQ(counter.stats().ops(), 64u);
  EXPECT_EQ(counter.try_fetch_decrement_n(0, 64), 64u);
  EXPECT_EQ(counter.stats().ops(), 128u) << "bulk consume undercharged";
  // Empty-pool attempt: one op for the failed claim.
  EXPECT_EQ(counter.try_fetch_decrement_n(0, 64), 0u);
  EXPECT_EQ(counter.stats().ops(), 129u);
}

TEST(AdaptiveCounter, RefundStormDoesNotFeedTheSwitchProbe) {
  // Regression (deterministic, fails pre-fix): an all-or-nothing shortfall
  // used to refund through refill -> fetch_increment_batch, charging the
  // refunded tokens to LoadStats as completed ops — so a pure-reject storm
  // (which admitted nothing) pumped the sampled window toward a spurious
  // switch. The refund path must be invisible to the probe.
  auto counter = std::make_unique<AdaptiveCounter>();
  auto* adaptive = counter.get();
  NetTokenBucket bucket(std::move(counter), {.initial_tokens = 5});
  // The constructor seed is a give-back too: it charges the probe nothing.
  const std::uint64_t base = adaptive->stats().ops();
  EXPECT_EQ(base, 0u) << "the initial_tokens seed was charged as load";
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(bucket.consume(0, 10, kAllOrNothing), 0u);
  }
  // Each rejected consume is charged for its take side only: a 5-token
  // grab plus the conclusive empty miss (1 op) — never the 5-token refund.
  // Pre-fix each iteration charged 11 ops (6 take + 5 refund).
  EXPECT_EQ(adaptive->stats().ops(), base + 100 * 6)
      << "refund traffic leaked into the load probe";
  EXPECT_FALSE(adaptive->switched());
  // The storm moved nothing: the pool still holds exactly its 5 tokens.
  EXPECT_EQ(bucket.consume(0, 5, kAllOrNothing), 5u);
}

TEST(AdaptiveCounter, RefundNReturnsTokensWithoutOpCharge) {
  AdaptiveCounter counter;
  EXPECT_EQ(counter.try_fetch_decrement_n(0, 4), 0u);  // empty: 1 op
  const std::uint64_t base = counter.stats().ops();
  counter.refund_n(0, 40);
  EXPECT_EQ(counter.stats().ops(), base) << "refund_n charged the probe";
  // The value-free batch adds the same count but is organic supply (a
  // bucket's refill): it charges the probe its k tokens.
  counter.fetch_increment_batch(0, 24, nullptr);
  EXPECT_EQ(counter.stats().ops(), base + 24)
      << "a value-free batch escaped the probe";
  EXPECT_EQ(counter.try_fetch_decrement_n(0, 100), 64u);
  // ... and the refunded tokens survive a switch like any others.
  counter.refund_n(0, 7);
  counter.force_switch(0);
  EXPECT_EQ(counter.try_fetch_decrement_n(0, 100), 7u);
}

TEST(AdaptiveCounter, ConcurrentRefundStormKeepsTheProbeQuietUnderTsan) {
  // The TSan face of the regression: refilling and reject-storming threads
  // race on the refund path while the probe samples. The bucket must stay
  // conserved and the probe must only ever see take-side charges (ops
  // strictly below what the pre-fix double charge would produce).
  auto counter = std::make_unique<AdaptiveCounter>();
  auto* adaptive = counter.get();
  NetTokenBucket bucket(std::move(counter), {.initial_tokens = 3});
  constexpr std::size_t kThreads = 4;
  constexpr int kIters = 2000;
  std::atomic<std::uint64_t> admitted{0};
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < kIters; ++i) {
          // Oversized all-or-nothing requests: almost every call is a
          // grab-then-refund reject.
          admitted.fetch_add(bucket.consume(t, 8, kAllOrNothing),
                             std::memory_order_relaxed);
        }
      });
    }
  }
  std::uint64_t drained = 0;
  while (bucket.consume(0, 1, kPartialOk) == 1) ++drained;
  EXPECT_EQ(admitted.load() + drained, 3u) << "refund path lost tokens";
  // Take-side-only accounting: an all-or-nothing attempt is a grab (got
  // ≤ 3 tokens exist, charging max(got, 1)) plus at most one empty
  // follow-up call, so the take side charges at most ~4 ops per attempt;
  // refunds charge none. The pre-fix path charged the refunded tokens
  // again (~got more per rejecting attempt), which blows past this cap.
  EXPECT_GT(adaptive->stats().ops(), 0u);
  EXPECT_LE(adaptive->stats().ops(),
            static_cast<std::uint64_t>(kThreads) * kIters * 5 + 16);
}

TEST(AdaptiveCounter, FactoryBuildsAndComposesWithElimination) {
  const auto plain = make_counter(BackendKind::kAdaptive);
  EXPECT_EQ(plain->name(), "adaptive·central-atomic");

  const auto composed =
      make_counter(BackendSpec{BackendKind::kAdaptive, true});
  EXPECT_EQ(composed->name(), "elim·adaptive·central-atomic");
  // Counts still conserve through both layers.
  for (int i = 0; i < 8; ++i) (void)composed->fetch_increment(0);
  EXPECT_EQ(composed->try_fetch_decrement_n(0, 100), 8u);
  EXPECT_FALSE(composed->try_fetch_decrement(0));
}

}  // namespace
}  // namespace cnet::svc
