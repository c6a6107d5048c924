// Property test for the widened Counter API: for every backend, the
// virtual fetch_increment_batch and the per-token path (a loop of
// fetch_increment, each the batch of one) must be interchangeable — same
// no-gap / no-duplicate value sets sequentially, and exact-range union
// when both paths race on one instance. One parameterized fixture sweeps all five
// backends through the svc factory. The bulk paths follow: a central batch
// is one contiguous block, and refund_n(n) and the value-free batch of n
// each add exactly n on every pool spec (the batched network in a single
// pass). Last, the factory's shape memo: one compiled C(w,t) per (w,t),
// even under racing first builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "cnet/runtime/counter.hpp"
#include "cnet/runtime/network_counter.hpp"
#include "cnet/svc/backend.hpp"
#include "test_svc_util.hpp"
#include "test_util.hpp"

namespace cnet::svc {
namespace {

constexpr std::size_t kSizes[] = {1, 2, 7, 32};

class BatchEquivalence : public ::testing::TestWithParam<BackendKind> {
 protected:
  std::unique_ptr<rt::Counter> fresh() const { return make_counter(GetParam()); }
};

// The per-token reference path: k single-token increments.
void per_token_batch(rt::Counter& counter, std::size_t hint, std::size_t k,
                     std::int64_t* out_values) {
  for (std::size_t i = 0; i < k; ++i) {
    out_values[i] = counter.fetch_increment(hint);
  }
}

void expect_exact_range(std::vector<std::int64_t> values) {
  EXPECT_TRUE(test::is_exact_range(
      std::vector<seq::Value>(values.begin(), values.end())))
      << "gaps or duplicates among " << values.size() << " values";
}

TEST_P(BatchEquivalence, DefaultLoopMatchesOverrideSequentially) {
  // Same call sequence against two fresh instances: one through the
  // virtual batch entry point, one on the per-token path.
  const auto via_override = fresh();
  const auto via_default = fresh();
  std::vector<std::int64_t> got_override, got_default;
  std::int64_t buf[32];
  std::size_t hint = 0;
  for (int round = 0; round < 6; ++round) {
    for (const std::size_t k : kSizes) {
      via_override->fetch_increment_batch(hint, k, buf);
      got_override.insert(got_override.end(), buf, buf + k);
      per_token_batch(*via_default, hint, k, buf);
      got_default.insert(got_default.end(), buf, buf + k);
      ++hint;
    }
  }
  std::sort(got_override.begin(), got_override.end());
  std::sort(got_default.begin(), got_default.end());
  EXPECT_EQ(got_override, got_default)
      << "override and default batch paths diverge on "
      << backend_kind_name(GetParam());
  expect_exact_range(got_override);
}

TEST_P(BatchEquivalence, MixedPathsOnOneInstanceStaySequentiallyExact) {
  const auto counter = fresh();
  std::vector<std::int64_t> all;
  std::int64_t buf[32];
  for (int round = 0; round < 8; ++round) {
    for (const std::size_t k : kSizes) {
      if (round % 2 == 0) {
        counter->fetch_increment_batch(static_cast<std::size_t>(round), k,
                                       buf);
      } else {
        per_token_batch(*counter, static_cast<std::size_t>(round), k, buf);
      }
      all.insert(all.end(), buf, buf + k);
    }
  }
  expect_exact_range(std::move(all));
}

TEST_P(BatchEquivalence, ConcurrentDefaultAndOverrideCallersAreExactRange) {
  // Half the threads batch through the override, half through the
  // per-token path, all on one shared counter: the union must still be the
  // exact range (the two paths claim from the same cells).
  const auto counter = fresh();
  constexpr std::size_t kThreads = 6, kCalls = 300;
  std::vector<std::vector<std::int64_t>> got(kThreads);
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        std::int64_t buf[32];
        for (std::size_t i = 0; i < kCalls; ++i) {
          const std::size_t k = kSizes[(t + i) % std::size(kSizes)];
          if (t % 2 == 0) {
            counter->fetch_increment_batch(t, k, buf);
          } else {
            per_token_batch(*counter, t, k, buf);
          }
          got[t].insert(got[t].end(), buf, buf + k);
        }
      });
    }
  }
  std::vector<std::int64_t> all;
  for (auto& v : got) all.insert(all.end(), v.begin(), v.end());
  expect_exact_range(std::move(all));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BatchEquivalence,
                         ::testing::ValuesIn(kAllBackendKinds),
                         test::backend_param_name);

// Central counters claim a whole batch with one RMW (or one lock hold), so
// every batch is the contiguous block base..base+k-1, and concurrent
// batches tile the value range with no duplicates and no gaps.
class CentralBatch : public ::testing::TestWithParam<BackendKind> {};

void expect_contiguous_block(const std::int64_t* values, std::size_t k) {
  for (std::size_t i = 1; i < k; ++i) {
    ASSERT_EQ(values[i], values[0] + static_cast<std::int64_t>(i))
        << "batch of " << k << " is not one contiguous block";
  }
}

TEST_P(CentralBatch, EachBatchIsOneContiguousBlock) {
  const auto counter = make_counter(GetParam());
  std::int64_t buf[32];
  std::int64_t next = 0;
  for (const std::size_t k : kSizes) {
    counter->fetch_increment_batch(0, k, buf);
    EXPECT_EQ(buf[0], next);
    expect_contiguous_block(buf, k);
    next += static_cast<std::int64_t>(k);
  }
}

TEST_P(CentralBatch, ConcurrentBatchesTileTheRangeExactly) {
  const auto counter = make_counter(GetParam());
  constexpr std::size_t kThreads = 4, kCalls = 500;
  std::vector<std::vector<std::int64_t>> got(kThreads);
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        std::int64_t buf[32];
        for (std::size_t i = 0; i < kCalls; ++i) {
          const std::size_t k = kSizes[(t + i) % std::size(kSizes)];
          counter->fetch_increment_batch(t, k, buf);
          expect_contiguous_block(buf, k);
          got[t].insert(got[t].end(), buf, buf + k);
        }
      });
    }
  }
  std::vector<std::int64_t> all;
  for (auto& v : got) all.insert(all.end(), v.begin(), v.end());
  expect_exact_range(std::move(all));
}

INSTANTIATE_TEST_SUITE_P(
    CentralKinds, CentralBatch,
    ::testing::Values(BackendKind::kCentralAtomic, BackendKind::kCentralCas),
    test::backend_param_name);

// refund_n(n) and the value-free batch fetch_increment_batch(hint, n,
// nullptr) are each count-wise exactly n increments on every pool kind: a
// drain from quiescence takes back exactly n, whatever bulk step the
// backend used to add them.
class RefundN : public ::testing::TestWithParam<BackendKind> {};

struct BulkAdd {
  const char* name;
  void (*add)(rt::Counter&, std::uint64_t);
};

constexpr BulkAdd kBulkAdds[] = {
    {"refund_n", [](rt::Counter& c, std::uint64_t n) { c.refund_n(1, n); }},
    {"value-free batch",
     [](rt::Counter& c, std::uint64_t n) {
       c.fetch_increment_batch(1, n, nullptr);
     }},
};

std::uint64_t drain(rt::Counter& counter) {
  std::uint64_t total = 0;
  for (std::uint64_t got; (got = counter.try_fetch_decrement_n(0, 256)) != 0;) {
    total += got;
  }
  return total;
}

TEST_P(RefundN, DrainReturnsExactlyTheRefundedCount) {
  for (const BulkAdd& bulk : kBulkAdds) {
    for (const std::uint64_t n : {1u, 7u, 300u, 16384u}) {
      const auto counter = make_counter(GetParam());
      bulk.add(*counter, n);
      EXPECT_EQ(drain(*counter), n) << bulk.name << "(" << n << ")";
      EXPECT_FALSE(counter->try_fetch_decrement(0))
          << bulk.name << "(" << n << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, RefundN,
                         ::testing::ValuesIn(kAllBackendKinds),
                         test::backend_param_name);

TEST(BatchedNetworkRefund, OneBatchPassForAnyCount) {
  // No 256-token chunking: 16384 tokens enter in one traverse_batch.
  for (const BulkAdd& bulk : kBulkAdds) {
    const auto counter = make_counter(BackendKind::kBatchedNetwork);
    bulk.add(*counter, 16384);
    EXPECT_EQ(counter->traversal_count(), 16384u) << bulk.name;
    EXPECT_EQ(counter->batch_pass_count(), 1u) << bulk.name;
    EXPECT_EQ(drain(*counter), 16384u) << bulk.name;
  }
}

// make_counter compiles each C(w,t) once per process: every network-backed
// counter of one (w,t) gets the same immutable wiring.
const rt::CompiledShape* shape_of(const rt::Counter& counter) {
  return dynamic_cast<const rt::NetworkCounter&>(counter).shape().get();
}

BackendConfig shape_config(std::size_t w, std::size_t t) {
  BackendConfig cfg;
  cfg.width_in = w;
  cfg.width_out = t;
  return cfg;
}

TEST(ShapeMemo, EqualShapesShareOneCompile) {
  const auto first =
      make_counter(BackendKind::kBatchedNetwork, shape_config(4, 8));
  const auto second =
      make_counter(BackendKind::kBatchedNetwork, shape_config(4, 8));
  const auto wider_out =
      make_counter(BackendKind::kBatchedNetwork, shape_config(4, 12));
  const auto wider_in =
      make_counter(BackendKind::kBatchedNetwork, shape_config(8, 8));
  EXPECT_EQ(shape_of(*first), shape_of(*second));
  EXPECT_NE(shape_of(*first), shape_of(*wider_out));
  EXPECT_NE(shape_of(*first), shape_of(*wider_in));
  EXPECT_EQ(shape_of(*wider_out)->width_out(), 12u);
  EXPECT_EQ(shape_of(*wider_in)->width_in(), 8u);
  // Sharing the wiring shares no state.
  EXPECT_EQ(first->fetch_increment(0), 0);
  EXPECT_EQ(second->fetch_increment(0), 0);
}

TEST(ShapeMemo, RacingFirstBuildsGetOneShape) {
  // No other test in this binary builds C(16,32), so the threads race the
  // shape's first compile.
  constexpr std::size_t kThreads = 8;
  std::vector<std::unique_ptr<rt::Counter>> built(kThreads);
  {
    std::latch start(kThreads);
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        start.arrive_and_wait();
        built[t] = make_counter(BackendKind::kBatchedNetwork,
                                shape_config(16, 32));
      });
    }
  }
  for (const auto& counter : built) {
    EXPECT_EQ(shape_of(*counter), shape_of(*built[0]));
    EXPECT_EQ(counter->fetch_increment(0), 0);
  }
}

}  // namespace
}  // namespace cnet::svc
