// svc::ReconfigEngine and its consumers: the staged-commit protocol itself
// (version stamps, quiescent migration, retired-state lifetime), the
// NetTokenBucket live respec (exact token migration across backend kinds,
// the batch_divisor finally reaching the backend's own batch size), the
// QuotaHierarchy live reweigh (whole-vector limit publish, in-flight
// grants release-exact), and the concurrency hammer — consume/refill
// threads racing stage/commit threads with exact conservation and
// never-over-admit checked at quiescence, including hints that share
// scatter slots (TSan concurrency label).
#include "cnet/svc/reconfig.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cnet/svc/backend.hpp"
#include "cnet/svc/net_token_bucket.hpp"
#include "cnet/svc/overload.hpp"
#include "cnet/svc/policy.hpp"
#include "cnet/svc/quota.hpp"
#include "cnet/util/scatter.hpp"
#include "cnet/util/slot_array.hpp"

namespace cnet::svc {
namespace {

// ---------------------------------------------------------------- engine

struct Box {
  explicit Box(int v) : value(v) {}
  int value;
};

TEST(ReconfigEngine, VersionStartsAtOneAndBumpsPerCommit) {
  ReconfigEngine<Box> engine(std::make_unique<Box>(1));
  EXPECT_EQ(engine.config_version(), 1u);
  EXPECT_EQ(engine.commit(std::make_unique<Box>(2), [](Box&, Box&) {}), 2u);
  EXPECT_EQ(engine.commit(std::make_unique<Box>(3), [](Box&, Box&) {}), 3u);
  EXPECT_EQ(engine.config_version(), 3u);
  EXPECT_EQ(engine.num_retired(), 2u);
}

TEST(ReconfigEngine, ReadRunsAgainstThePublishedState) {
  ReconfigEngine<Box> engine(std::make_unique<Box>(7));
  EXPECT_EQ(engine.read(0, [](Box& b) { return b.value; }), 7);
  engine.commit(std::make_unique<Box>(9), [](Box&, Box&) {});
  EXPECT_EQ(engine.read(0, [](Box& b) { return b.value; }), 9);
  EXPECT_EQ(engine.current().value, 9);
}

TEST(ReconfigEngine, MigrationSeesOldAndNewStates) {
  ReconfigEngine<Box> engine(std::make_unique<Box>(40));
  engine.commit(std::make_unique<Box>(2), [](Box& old_state, Box& fresh) {
    fresh.value += old_state.value;  // exact hand-off of the old content
  });
  EXPECT_EQ(engine.current().value, 42);
}

TEST(ReconfigEngine, RetiredStatesOutliveTheCommit) {
  ReconfigEngine<Box> engine(std::make_unique<Box>(5));
  const Box& stale = engine.current();  // long-lived reference
  engine.commit(std::make_unique<Box>(6), [](Box&, Box&) {});
  EXPECT_EQ(stale.value, 5);  // valid, merely stale
  EXPECT_EQ(engine.current().value, 6);
}

// The staged state is published before the migration runs, so a throwing
// migration must leave it owned, not freed under the readers. Only the
// commit that completes moves the version and reaches subscribers.
TEST(ReconfigEngine, ThrowingMigrationKeepsThePublishedStateAlive) {
  ReconfigEngine<Box> engine(std::make_unique<Box>(1));
  std::vector<std::uint64_t> delivered;
  engine.subscribe(
      [&](std::uint64_t version) { delivered.push_back(version); });
  const auto failing = [](Box&, Box&) {
    throw std::runtime_error("migration failed");
  };
  EXPECT_THROW(engine.commit(std::make_unique<Box>(2), failing),
               std::runtime_error);
  EXPECT_EQ(engine.read(0, [](Box& b) { return b.value; }), 2);
  EXPECT_EQ(engine.config_version(), 1u);
  EXPECT_EQ(engine.num_retired(), 1u);
  EXPECT_TRUE(delivered.empty());

  const auto add_old = [](Box& old_state, Box& fresh) {
    fresh.value += old_state.value;
  };
  EXPECT_EQ(engine.commit(std::make_unique<Box>(3), add_old), 2u);
  EXPECT_EQ(engine.read(0, [](Box& b) { return b.value; }), 5);
  EXPECT_EQ(engine.num_retired(), 2u);
  EXPECT_EQ(delivered, std::vector<std::uint64_t>{2});
}

TEST(ReconfigEngine, NullStagedStateThrows) {
  ReconfigEngine<Box> engine(std::make_unique<Box>(0));
  EXPECT_THROW(engine.commit(nullptr, [](Box&, Box&) {}), std::exception);
  EXPECT_THROW(ReconfigEngine<Box>(nullptr), std::exception);
}

// ---------------------------------------------------- bucket live respec

std::uint64_t drain(NetTokenBucket& bucket) {
  std::uint64_t total = 0, got = 0;
  while ((got = bucket.consume(0, 64, kPartialOk)) != 0) {
    total += got;
  }
  return total;
}

TEST(BucketRespec, MigratesTheRemainingCountExactlyAcrossEverySpec) {
  NetTokenBucket bucket(
      make_counter(BackendKind::kCentralAtomic),
      NetTokenBucket::Config{/*initial_tokens=*/1000, /*refill_chunk=*/64});
  ASSERT_EQ(bucket.consume(0, 300, kAllOrNothing), 300u);
  std::uint64_t version = 1;
  for (const BackendKind kind : kAllBackendKinds) {
    EXPECT_EQ(bucket.respec(0, {kind, BackendConfig{}, 32}), ++version)
        << backend_kind_name(kind);
    EXPECT_EQ(bucket.config_version(), version);
    EXPECT_EQ(bucket.refill_chunk(), 32u);
  }
  // 1000 - 300 survived every hop, bit-exact.
  EXPECT_EQ(drain(bucket), 700u);
  EXPECT_EQ(bucket.consume(0, 1, kPartialOk), 0u);
}

TEST(BucketRespec, RejectsAnOutOfRangeChunk) {
  NetTokenBucket bucket(make_counter(BackendKind::kCentralAtomic));
  EXPECT_THROW(bucket.respec(
                   0, {BackendKind::kCentralAtomic, {}, 0}),
               std::exception);
  EXPECT_THROW(
      bucket.respec(0, {BackendKind::kCentralAtomic, {}, 257}),
      std::exception);
  EXPECT_EQ(bucket.config_version(), 1u);  // nothing committed
}

TEST(BucketRespec, TelemetryNeverRegressesAcrossACommit) {
  NetTokenBucket bucket(
      make_counter(BackendKind::kBatchedNetwork),
      NetTokenBucket::Config{0, 64});
  bucket.refill(0, 512);  // 8 passes of 64 through the batched network
  const std::uint64_t traversals = bucket.traversal_count();
  const std::uint64_t passes = bucket.batch_pass_count();
  EXPECT_EQ(traversals, 512u);
  EXPECT_EQ(passes, 8u);
  bucket.respec(0, {BackendKind::kCentralAtomic, {}, 64});
  // Retired totals rolled up: the counts are still visible (migration may
  // add traversals on top, never subtract).
  EXPECT_GE(bucket.traversal_count(), traversals);
  EXPECT_GE(bucket.batch_pass_count(), passes);
  EXPECT_EQ(drain(bucket), 512u);
}

TEST(BucketRespec, BatchDivisorReachesTheRespeccedBackendEndToEnd) {
  // The acceptance check for the tentpole's motivating bug: under tier >= 1
  // the shrunken refill chunk must show up in the *backend's own* observed
  // tokens-per-pass, not just in caller arithmetic. batch_pass_count makes
  // that observable: traversals / passes == the chunk that actually
  // traversed the network.
  NetTokenBucket bucket(
      make_counter(BackendKind::kBatchedNetwork),
      NetTokenBucket::Config{0, 64});
  OverloadManager mgr;
  auto gauge = std::make_unique<GaugeMonitor>("script", 100);
  GaugeMonitor* script = gauge.get();
  mgr.add_monitor(std::move(gauge));
  bucket.attach_overload(&mgr);

  bucket.refill(0, 128);  // nominal: 2 passes of 64
  EXPECT_EQ(bucket.batch_pass_count(), 2u);

  script->set(55);  // tier 1: batch_divisor kicks in
  ASSERT_NE(mgr.evaluate(), OverloadTier::kNominal);
  const std::size_t divisor = mgr.actions().batch_divisor;
  ASSERT_GT(divisor, 1u);

  // Re-spec mid-overload: the staged pool is wired to the manager before
  // publish, so its first refill already runs divided.
  bucket.respec(0, {BackendKind::kBatchedNetwork, {}, 64});
  const std::uint64_t passes_before = bucket.batch_pass_count();
  const std::uint64_t traversals_before = bucket.traversal_count();
  bucket.refill(0, 128);
  const std::uint64_t passes = bucket.batch_pass_count() - passes_before;
  const std::uint64_t traversals =
      bucket.traversal_count() - traversals_before;
  EXPECT_EQ(traversals, 128u);  // count-conserving: same tokens
  EXPECT_EQ(passes, 128 / divided_chunk(64, divisor));  // smaller holds
  EXPECT_EQ(traversals / passes, divided_chunk(64, divisor));
  EXPECT_EQ(drain(bucket), 256u);
}

// A scripted single-threaded op sequence across one respec, from each kind
// to each kind. Every tally the bucket reports is pinned exactly: the
// consume counters live on the engine's reader lines, the pool counters
// on the counter's own lines, and the respec rolls the retired pool's
// totals into the bucket's sums. Hints run past the scatter width, so
// several land on one line. A network pool's costs are noted per op as
// (traversals, batch passes); central pools count neither. One thread
// never retries a CAS, so every stall count is 0.
class BucketTallies
    : public ::testing::TestWithParam<std::tuple<BackendKind, BackendKind>> {
};

TEST_P(BucketTallies, PinnedExactlyAcrossOneRespec) {
  const auto [from, to] = GetParam();
  const std::uint64_t from_net = from == BackendKind::kBatchedNetwork;
  const std::uint64_t to_net = to == BackendKind::kBatchedNetwork;
  const std::size_t h = util::scatter_slots();
  // Seeded by one refund_n of 10: (10, 1).
  NetTokenBucket bucket(make_counter(from),
                        NetTokenBucket::Config{/*initial_tokens=*/10,
                                               /*refill_chunk=*/4});
  bucket.refill(1, 10);  // chunks 4, 4, 2: (10, 3); pool 20
  EXPECT_EQ(bucket.consume(h + 2, 1), 1u);  // one antitoken: (1, 0)
  EXPECT_EQ(bucket.consume(2 * h + 3, 5), 5u);  // bulk claim: (1, 0)
  // All-or-nothing shortfall: a grab of 14, a grab of 0, and a refund of
  // 14 in one pass: (16, 1); rejected.
  EXPECT_EQ(bucket.consume(3 * h + 4, 100), 0u);
  EXPECT_EQ(bucket.consume(5, 0), 0u);  // the no-op: not an attempt
  EXPECT_EQ(bucket.consume(6, 11, kPartialOk), 11u);  // (1, 0); pool 3
  EXPECT_EQ(bucket.consume_attempts(), 4u);
  EXPECT_EQ(bucket.consume_rejects(), 1u);
  EXPECT_EQ(bucket.traversal_count(), from_net * 39);
  EXPECT_EQ(bucket.batch_pass_count(), from_net * 5);
  EXPECT_EQ(bucket.stall_count(), 0u);

  // The migration drains the old pool in two calls, 3 then 0: (2, 0) on
  // it; and refunds 3 into the new pool in one pass: (3, 1) on that.
  EXPECT_EQ(bucket.respec(7, {to, {}, /*refill_chunk=*/2}), 2u);
  EXPECT_EQ(bucket.traversal_count(), from_net * 41 + to_net * 3);
  EXPECT_EQ(bucket.batch_pass_count(), from_net * 5 + to_net * 1);

  bucket.refill(4 * h + 8, 5);  // chunks 2, 2, then 1 token: (5, 2); pool 8
  EXPECT_EQ(bucket.consume(9, 8), 8u);  // (1, 0); pool 0
  EXPECT_EQ(bucket.consume(h + 10, 1), 0u);  // sweeps every cell: (1, 0)
  EXPECT_EQ(bucket.consume(11, 3, kPartialOk), 0u);  // (1, 0)

  EXPECT_EQ(bucket.consume_attempts(), 7u);
  EXPECT_EQ(bucket.consume_rejects(), 3u);
  EXPECT_EQ(bucket.traversal_count(), from_net * 41 + to_net * 11);
  EXPECT_EQ(bucket.batch_pass_count(), from_net * 5 + to_net * 3);
  EXPECT_EQ(bucket.stall_count(), 0u);
  EXPECT_EQ(bucket.config_version(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    EveryKindPair, BucketTallies,
    ::testing::Combine(::testing::ValuesIn(kAllBackendKinds),
                       ::testing::ValuesIn(kAllBackendKinds)),
    [](const auto& info) {
      std::string name = backend_kind_name(std::get<0>(info.param));
      name += "_to_";
      name += backend_kind_name(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --------------------------------------------------- quota live reweigh

QuotaHierarchy::Config small_quota_config() {
  QuotaHierarchy::Config cfg;
  cfg.parent = BackendKind::kCentralAtomic;
  cfg.parent_initial_tokens = 100;
  cfg.borrow_budget = 100;
  return cfg;
}

TEST(QuotaReweigh, PublishesTheWholeLimitVectorAsOneUnit) {
  QuotaHierarchy quota(small_quota_config(),
                       {{.initial_tokens = 0, .weight = 1},
                        {.initial_tokens = 0, .weight = 1}});
  EXPECT_EQ(quota.config_version(), 1u);
  EXPECT_EQ(quota.borrow_limit(0), 50u);
  EXPECT_EQ(quota.borrow_limit(1), 50u);
  EXPECT_EQ(quota.reweigh(0, {3, 1}), 2u);
  EXPECT_EQ(quota.config_version(), 2u);
  EXPECT_EQ(quota.weight(0), 3u);
  EXPECT_EQ(quota.weight(1), 1u);
  EXPECT_EQ(quota.borrow_limit(0), 75u);
  EXPECT_EQ(quota.borrow_limit(1), 25u);
}

TEST(QuotaReweigh, RejectsAMalformedWeightVector) {
  QuotaHierarchy quota(small_quota_config(),
                       {{.initial_tokens = 0, .weight = 1},
                        {.initial_tokens = 0, .weight = 1}});
  EXPECT_THROW(quota.reweigh(0, {1}), std::exception);        // wrong size
  EXPECT_THROW(quota.reweigh(0, {1, 0}), std::exception);     // zero weight
  EXPECT_THROW(quota.reweigh(0, {1, 1, 1}), std::exception);  // wrong size
  EXPECT_EQ(quota.config_version(), 1u);
}

TEST(QuotaReweigh, InFlightGrantsStayReleaseExactUnderAShrunkenLimit) {
  QuotaHierarchy quota(small_quota_config(),
                       {{.initial_tokens = 0, .weight = 1},
                        {.initial_tokens = 0, .weight = 1}});
  // Tenant 0 borrows 40 of its 50-limit from the parent.
  const auto held = quota.acquire(0, 0, 40);
  ASSERT_TRUE(held.admitted);
  EXPECT_EQ(held.from_parent, 40u);
  EXPECT_EQ(quota.borrowed(0), 40u);

  // Shrink tenant 0's share to 10: the outstanding 40 is overage, never
  // clawed back (borrow_overage names it), and no new allowance exists.
  quota.reweigh(0, {1, 9});
  EXPECT_EQ(quota.borrow_limit(0), 10u);
  EXPECT_EQ(quota.borrowed(0), 40u);  // untouched
  EXPECT_EQ(borrow_overage(quota.borrowed(0), quota.borrow_limit(0)), 30u);
  EXPECT_FALSE(quota.acquire(0, 0, 1).admitted);  // child empty, no borrow

  // Tenant 1's new 90-limit binds immediately against the remaining pool.
  const auto sibling = quota.acquire(0, 1, 60);
  ASSERT_TRUE(sibling.admitted);
  EXPECT_EQ(sibling.from_parent, 60u);

  // Release is the exact undo recorded in the grant — under the *new*
  // generation, and the drained overage restores allowance.
  quota.release(0, held);
  EXPECT_EQ(quota.borrowed(0), 0u);
  const auto after = quota.acquire(0, 0, 10);
  ASSERT_TRUE(after.admitted);  // back inside the shrunken limit
  quota.release(0, after);
  quota.release(0, sibling);
  EXPECT_EQ(quota.borrowed(1), 0u);
  // Parent pool conserved exactly: everything released went back.
  std::uint64_t total = 0, got = 0;
  while ((got = quota.parent().consume(0, 64, kPartialOk)) != 0) total += got;
  EXPECT_EQ(total, 100u);
}

// ------------------------------------------------------ concurrency hammer

TEST(ReconfigHammer, BucketConservesTokensUnderConcurrentRespecs) {
  // N consume/refill threads race M stage/commit threads cycling the pool
  // through every backend kind. At quiescence conservation must be exact:
  // refilled == consumed + remaining, and never-over-admit held throughout
  // (each consume was bounded by a pool that only ever held real tokens).
  // Workers keep going past kRounds until a commit has been delivered, so
  // at least one commit always overlaps live traffic.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kReconfigurers = 2;
  constexpr std::uint64_t kRounds = 2000;

  NetTokenBucket bucket(
      make_counter(BackendKind::kCentralAtomic),
      NetTokenBucket::Config{0, 32});
  std::atomic<bool> committed{false};
  bucket.subscribe(
      [&](std::uint64_t) { committed.store(true, std::memory_order_release); });

  std::atomic<std::uint64_t> consumed{0}, refilled{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      for (std::uint64_t i = 0;
           i < kRounds || !committed.load(std::memory_order_acquire); ++i) {
        bucket.refill(w, 3);
        refilled.fetch_add(3, std::memory_order_relaxed);
        consumed.fetch_add(bucket.consume(w, 2, kPartialOk),
                           std::memory_order_relaxed);
        consumed.fetch_add(bucket.consume(w, 5, kAllOrNothing),
                           std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t r = 0; r < kReconfigurers; ++r) {
    threads.emplace_back([&, r] {
      std::size_t i = r;
      while (!stop.load(std::memory_order_acquire)) {
        const BackendKind kind =
            kAllBackendKinds[i++ % std::size(kAllBackendKinds)];
        bucket.respec(kWorkers + r,
                      {kind, BackendConfig{}, 1 + (i * 37) % 256});
      }
    });
  }
  for (std::size_t w = 0; w < kWorkers; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t r = 0; r < kReconfigurers; ++r) {
    threads[kWorkers + r].join();
  }

  const std::uint64_t remaining = drain(bucket);
  EXPECT_EQ(refilled.load(), consumed.load() + remaining)
      << "tokens leaked or were minted across respec commits";
  EXPECT_GE(refilled.load(), consumed.load());  // never over-admitted
  EXPECT_GT(bucket.config_version(), 1u);  // the respec threads did commit
}

// The scatter width follows the host's cores, so hints share slots once
// threads outnumber them. Eight threads spread over hints 0..4×width (each
// hint owned by one thread, each slot shared by several) race a default
// util::SlotArray and a bucket's consume/refill across one respec: the tally,
// both consume counters and the token count must all stay exact.
TEST(ReconfigHammer, HintsSharingScatterSlotsStayExact) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kRounds = 300;
  constexpr std::uint64_t kInitial = 100;
  const std::size_t top_hint = 4 * util::scatter_slots();

  util::SlotArray<1> tallies;
  NetTokenBucket bucket(
      make_counter(BackendKind::kBatchedNetwork),
      NetTokenBucket::Config{kInitial, /*refill_chunk=*/16});
  std::atomic<std::uint64_t> events{0}, attempts{0}, rejects{0};
  std::atomic<std::uint64_t> consumed{0}, refilled{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kRounds; ++i) {
        if (t == 0 && i == kRounds / 2) {
          bucket.respec(0, {BackendKind::kCentralAtomic, {}, 8});
        }
        for (std::size_t hint = t; hint <= top_hint; hint += kThreads) {
          tallies.add(0, hint, 1 + hint % 3);
          events.fetch_add(1 + hint % 3, std::memory_order_relaxed);
          bucket.refill(hint, 3);
          refilled.fetch_add(3, std::memory_order_relaxed);
          const std::uint64_t partial = bucket.consume(hint, 2, kPartialOk);
          const std::uint64_t whole = bucket.consume(hint, 5, kAllOrNothing);
          attempts.fetch_add(2, std::memory_order_relaxed);
          rejects.fetch_add((partial == 0 ? 1 : 0) + (whole == 0 ? 1 : 0),
                            std::memory_order_relaxed);
          consumed.fetch_add(partial + whole, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(tallies.total(0), events.load());
  EXPECT_EQ(bucket.consume_attempts(), attempts.load());
  EXPECT_EQ(bucket.consume_rejects(), rejects.load());
  EXPECT_EQ(bucket.config_version(), 2u);
  EXPECT_EQ(kInitial + refilled.load(), consumed.load() + drain(bucket))
      << "tokens leaked or were minted across hints sharing a slot";
}

TEST(ReconfigHammer, QuotaStaysReleaseExactUnderConcurrentReweighs) {
  // Tenant threads acquire/release against live reweighs. At quiescence,
  // after every held grant is released: borrowed == 0 for all tenants and
  // the parent pool holds exactly its initial count again. Tenants keep
  // going past kRounds until a reweigh commit has been delivered.
  constexpr std::size_t kTenants = 4;
  constexpr std::uint64_t kRounds = 1500;
  QuotaHierarchy::Config cfg;
  cfg.parent = BackendKind::kCentralAtomic;
  cfg.parent_initial_tokens = 200;
  cfg.borrow_budget = 120;
  QuotaHierarchy quota(cfg, {{.initial_tokens = 10, .weight = 4},
                             {.initial_tokens = 10, .weight = 2},
                             {.initial_tokens = 10, .weight = 1},
                             {.initial_tokens = 10, .weight = 1}});
  std::atomic<bool> committed{false};
  quota.subscribe(
      [&](std::uint64_t) { committed.store(true, std::memory_order_release); });

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      std::vector<QuotaHierarchy::Grant> held;
      for (std::uint64_t i = 0;
           i < kRounds || !committed.load(std::memory_order_acquire); ++i) {
        const auto grant = quota.acquire(t, t, 1 + i % 7);
        if (grant.admitted) held.push_back(grant);
        if (held.size() > 4 || (!held.empty() && i % 3 == 0)) {
          quota.release(t, held.back());
          held.pop_back();
        }
      }
      for (const auto& grant : held) quota.release(t, grant);
    });
  }
  threads.emplace_back([&] {
    const std::vector<std::vector<std::uint64_t>> cycles = {
        {4, 2, 1, 1}, {1, 1, 1, 1}, {8, 1, 1, 2}, {1, 6, 2, 3}};
    std::size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      quota.reweigh(kTenants, cycles[i++ % cycles.size()]);
    }
  });
  for (std::size_t t = 0; t < kTenants; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  for (std::size_t t = 0; t < kTenants; ++t) {
    EXPECT_EQ(quota.borrowed(t), 0u) << "tenant " << t;
    // Child pool conserved: initial tokens all came home.
    std::uint64_t total = 0, got = 0;
    while ((got = quota.child(t).consume(t, 16, kPartialOk)) != 0) total += got;
    EXPECT_EQ(total, 10u) << "tenant " << t;
  }
  std::uint64_t parent_total = 0, got = 0;
  while ((got = quota.parent().consume(0, 64, kPartialOk)) != 0) {
    parent_total += got;
  }
  EXPECT_EQ(parent_total, 200u);
  EXPECT_GT(quota.config_version(), 1u);
}

}  // namespace
}  // namespace cnet::svc
