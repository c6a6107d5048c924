// svc::NetTokenBucket: envoy-style consume semantics (partial vs.
// all-or-nothing), and the core rate-limiter safety property — the bucket
// never over-admits: at every observation point, tokens handed out by
// consume() never exceed tokens pushed in by refill(), for every counter
// backend kind, under concurrent refillers and consumers.
#include "cnet/svc/net_token_bucket.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "cnet/svc/backend.hpp"
#include "test_svc_util.hpp"

namespace cnet::svc {
namespace {

NetTokenBucket make_bucket(BackendKind kind, NetTokenBucket::Config cfg) {
  return NetTokenBucket(make_counter(kind), cfg);
}

// Empties the bucket from a quiescent state and returns the token count.
std::uint64_t drain(NetTokenBucket& bucket) {
  std::uint64_t total = 0;
  while (bucket.consume(0, 1, kPartialOk) == 1) ++total;
  return total;
}

class BucketBackends : public ::testing::TestWithParam<BackendKind> {};

TEST_P(BucketBackends, SequentialConsumeSemantics) {
  auto bucket = make_bucket(GetParam(), {.initial_tokens = 10});
  // All-or-nothing: a request larger than the pool consumes nothing.
  EXPECT_EQ(bucket.consume(0, 3, kAllOrNothing), 3u);
  EXPECT_EQ(bucket.consume(1, 20, kAllOrNothing), 0u);
  EXPECT_EQ(bucket.consume(2, 7, kAllOrNothing), 7u);  // the 20 left the pool intact
  EXPECT_EQ(bucket.consume(3, 1, kPartialOk), 0u);   // empty
  // Partial: a short pool yields what it has.
  bucket.refill(0, 5);
  EXPECT_EQ(bucket.consume(4, 3, kPartialOk), 3u);
  EXPECT_EQ(bucket.consume(5, 9, kPartialOk), 2u);
  EXPECT_EQ(drain(bucket), 0u);
}

// One refiller, five consumers and an observer that checks, while they
// run, that consumed tokens never exceed refilled ones.
void expect_never_over_admits(NetTokenBucket& bucket) {
  constexpr std::size_t kConsumers = 5;
  constexpr std::uint64_t kRefillRounds = 400, kTokensPerRound = 16;
  // `refilled` is published BEFORE tokens enter the pool and `admitted`
  // AFTER consume returns, so admitted <= refilled is exact at every
  // sampling point, not just at quiescence.
  std::atomic<std::uint64_t> refilled{0}, admitted{0};
  std::atomic<bool> stop{false}, over_admitted{false};
  std::vector<std::uint64_t> per_thread(kConsumers, 0);
  {
    std::vector<std::jthread> threads;
    threads.emplace_back([&] {  // refiller (hint 0)
      for (std::uint64_t r = 0; r < kRefillRounds; ++r) {
        refilled.fetch_add(kTokensPerRound);
        bucket.refill(0, kTokensPerRound);
      }
      stop.store(true);
    });
    for (std::size_t t = 0; t < kConsumers; ++t) {
      threads.emplace_back([&, t] {  // consumers (hints 1..)
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t want = 1 + (per_thread[t] % 4);
          const std::uint64_t got = bucket.consume(
              t + 1, want, (t % 2 == 0) ? kPartialOk : kAllOrNothing);
          if (got != 0) {
            admitted.fetch_add(got);
            per_thread[t] += got;
          }
        }
      });
    }
    threads.emplace_back([&] {  // observer
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t a = admitted.load();
        // The pool's own RMWs are relaxed, so the refiller's `refilled`
        // update has no happens-before edge to a consumer's `admitted`
        // update; on weakly-ordered hardware `refilled` can lag a just-
        // observed `admitted` transiently. `refilled` is monotonic, so a
        // real over-admission persists: confirm before flagging.
        bool violated = a > refilled.load();
        for (int retry = 0; violated && retry < 1000; ++retry) {
          std::this_thread::yield();
          violated = a > refilled.load();
        }
        if (violated) {
          over_admitted.store(true);
          return;
        }
        std::this_thread::yield();
      }
    });
  }
  EXPECT_FALSE(over_admitted.load()) << "bucket over-admitted mid-run";
  const std::uint64_t leftover = drain(bucket);
  EXPECT_LE(admitted.load(), refilled.load());
  // Conservation at quiescence: every refilled token was either admitted
  // or still in the pool.
  EXPECT_EQ(admitted.load() + leftover, refilled.load());
}

TEST_P(BucketBackends, NeverOverAdmitsUnderConcurrency) {
  auto bucket = make_bucket(GetParam(), {});
  expect_never_over_admits(bucket);
}

TEST_P(BucketBackends, AllOrNothingGrabsAreMultiplesOfCost) {
  auto bucket = make_bucket(GetParam(), {.initial_tokens = 1000});
  constexpr std::uint64_t kCost = 3;
  std::vector<std::uint64_t> grabs(4, 0);
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < grabs.size(); ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 200; ++i) {
          const std::uint64_t got = bucket.consume(t, kCost, kAllOrNothing);
          EXPECT_TRUE(got == 0 || got == kCost);
          grabs[t] += got;
        }
      });
    }
  }
  std::uint64_t total = 0;
  for (const auto g : grabs) total += g;
  EXPECT_EQ(total % kCost, 0u);
  EXPECT_EQ(total + drain(bucket), 1000u);
}

TEST_P(BucketBackends, ZeroTokenConsumeIsATrivialNoOp) {
  // Regression: consume(hint, 0, ...) was undefined by the bucket_consume
  // plan (AdmissionController only guards cost > 0 at its own layer). It
  // is now a defined no-op: returns 0, succeeds, and never touches the
  // backend — in both partial and all-or-nothing modes, even on an empty
  // pool.
  NetTokenBucket bucket(make_counter(GetParam()), {.initial_tokens = 4});
  const std::uint64_t traversals_before = bucket.pool().traversal_count();
  EXPECT_EQ(bucket.consume(0, 0, kAllOrNothing), 0u);
  EXPECT_EQ(bucket.consume(1, 0, kPartialOk), 0u);
  EXPECT_EQ(bucket.pool().traversal_count(), traversals_before)
      << "a zero-token consume reached the backend";
  EXPECT_EQ(drain(bucket), 4u);  // the pool is untouched
  // ... and on the now-empty pool as well.
  EXPECT_EQ(bucket.consume(0, 0, kAllOrNothing), 0u);
  EXPECT_EQ(bucket.consume(0, 0, kPartialOk), 0u);
}

TEST_P(BucketBackends, ShortfallRefundConservesThePool) {
  // A storm of oversized all-or-nothing consumes: every call grabs the
  // partial pool and must put it back through the refund path, leaving
  // the pool bit-exact.
  NetTokenBucket bucket(make_counter(GetParam()), {.initial_tokens = 7});
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(bucket.consume(i % 4, 100, kAllOrNothing), 0u);
  }
  EXPECT_EQ(drain(bucket), 7u) << "the refund path minted or lost tokens";
}

TEST_P(BucketBackends, LargeInitialSeedDrainsExactly) {
  // The constructor seeds initial_tokens through refund_n in one bulk step;
  // every kind must end up holding exactly that many.
  NetTokenBucket bucket(make_counter(GetParam()), {.initial_tokens = 16384});
  EXPECT_EQ(drain(bucket), 16384u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BucketBackends,
                         ::testing::ValuesIn(kAllBackendKinds),
                         test::backend_param_name);

// A backend without take-back support: consume must degrade to "always
// empty" rather than over-admit.
class NoTakebackCounter final : public rt::Counter {
 public:
  void fetch_increment_batch(std::size_t, std::size_t k,
                             std::int64_t* out_values) override {
    for (std::size_t i = 0; i < k; ++i) {
      const std::int64_t v = next_++;
      if (out_values != nullptr) out_values[i] = v;
    }
  }
  std::string name() const override { return "no-takeback"; }

 private:
  std::int64_t next_ = 0;
};

TEST(NetTokenBucket, BackendWithoutTakebackNeverAdmits) {
  NetTokenBucket bucket(std::make_unique<NoTakebackCounter>(),
                        {.initial_tokens = 50});
  EXPECT_EQ(bucket.consume(0, 1, kPartialOk), 0u);
  EXPECT_EQ(bucket.consume(1, 5, kAllOrNothing), 0u);
}

TEST(NetTokenBucket, RejectsBadConfiguration) {
  EXPECT_THROW(NetTokenBucket(nullptr), std::invalid_argument);
  EXPECT_THROW(make_bucket(BackendKind::kCentralAtomic, {.refill_chunk = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      make_bucket(BackendKind::kCentralAtomic, {.refill_chunk = 10000}),
      std::invalid_argument);
}

TEST(NetTokenBucket, DefaultRefillTakesFullWidthPasses) {
  // The default chunk is kMaxRefillChunk: 1024 tokens enter a batched
  // network in 4 value-free passes, not 16 passes of 64.
  auto bucket = make_bucket(BackendKind::kBatchedNetwork, {});
  EXPECT_EQ(bucket.refill_chunk(), kMaxRefillChunk);
  bucket.refill(0, 1024);
  EXPECT_EQ(bucket.batch_pass_count(), 4u);
  EXPECT_EQ(bucket.traversal_count(), 1024u);
  EXPECT_EQ(drain(bucket), 1024u);
}

TEST(NetTokenBucket, NameReflectsThePoolBackend) {
  NetTokenBucket bucket(
      make_counter(BackendKind::kBatchedNetwork, test::shape_config({8, 24})),
      {});
  EXPECT_EQ(bucket.name(), "bucket·batched C(8,24)");
  // A default-built pool carries the host-sized shape.
  EXPECT_EQ(make_bucket(BackendKind::kBatchedNetwork, {}).name(),
            "bucket·batched " + test::shape_label(util::counting_shape()));
}

// Every shape the host-sizing rule can pick, on every host.
class BucketShapes : public ::testing::TestWithParam<util::CountingShape> {};

TEST_P(BucketShapes, NeverOverAdmitsUnderConcurrency) {
  NetTokenBucket bucket(make_counter(BackendKind::kBatchedNetwork,
                                     test::shape_config(GetParam())),
                        {});
  ASSERT_EQ(bucket.name(), "bucket·batched " + test::shape_label(GetParam()));
  expect_never_over_admits(bucket);
}

INSTANTIATE_TEST_SUITE_P(RuleShapes, BucketShapes,
                         ::testing::ValuesIn(test::kRuleShapes),
                         test::shape_param_name);

}  // namespace
}  // namespace cnet::svc
