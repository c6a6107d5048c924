// Batched-token runtime: traverse_batch equivalence with per-token
// traversal (quiescent step property), and fetch_increment_batch no-gap /
// no-duplicate guarantees, across batch sizes on C(w,t), bitonic, and the
// central baseline.
#include "cnet/runtime/network_counter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>
#include <vector>

#include "cnet/baselines/bitonic.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/runtime/central.hpp"
#include "cnet/runtime/compiled_network.hpp"
#include "cnet/seq/sequence.hpp"
#include "cnet/topology/topology.hpp"
#include "test_util.hpp"

namespace cnet::rt {
namespace {

constexpr std::size_t kBatchSizes[] = {1, 3, 8, 64};

// Per-wire exit counts after pushing `k` tokens into `input_wire` of a
// fresh compiled copy of `net`, batched.
std::vector<std::uint64_t> batch_counts(const topo::Topology& net,
                                        std::size_t input_wire,
                                        std::uint64_t k, BalancerMode mode) {
  CompiledNetwork cn(net);
  BatchScratch scratch;
  std::vector<std::uint64_t> counts(cn.width_out(), 0);
  std::uint64_t stalls = 0;
  cn.traverse_batch(input_wire, k, mode, &stalls, scratch, counts.data());
  return counts;
}

// The same tokens pushed one at a time through traverse().
std::vector<std::uint64_t> serial_counts(const topo::Topology& net,
                                         std::size_t input_wire,
                                         std::uint64_t k) {
  CompiledNetwork cn(net);
  std::vector<std::uint64_t> counts(cn.width_out(), 0);
  for (std::uint64_t i = 0; i < k; ++i) {
    ++counts[cn.traverse(input_wire, BalancerMode::kFetchAdd, nullptr)];
  }
  return counts;
}

class BatchTraversal : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchTraversal, MatchesSerialTraversalOnCounting) {
  const std::uint64_t k = GetParam();
  const auto net = core::make_counting(8, 24);
  for (std::size_t wire = 0; wire < net.width_in(); ++wire) {
    EXPECT_EQ(batch_counts(net, wire, k, BalancerMode::kFetchAdd),
              serial_counts(net, wire, k))
        << "wire " << wire << " k " << k;
  }
}

TEST_P(BatchTraversal, MatchesSerialTraversalOnBitonic) {
  const std::uint64_t k = GetParam();
  const auto net = baselines::make_bitonic(8);
  for (std::size_t wire = 0; wire < net.width_in(); ++wire) {
    EXPECT_EQ(batch_counts(net, wire, k, BalancerMode::kFetchAdd),
              serial_counts(net, wire, k));
  }
}

TEST_P(BatchTraversal, CasModeMatchesFetchAddWhenSequential) {
  const std::uint64_t k = GetParam();
  const auto net = core::make_counting(4, 8);
  EXPECT_EQ(batch_counts(net, 1, k, BalancerMode::kCasRetry),
            batch_counts(net, 1, k, BalancerMode::kFetchAdd));
}

TEST_P(BatchTraversal, QuiescentOutputHasStepProperty) {
  // A counting network's quiescent output after any token count is a step
  // sequence (paper Thm 4.2); batches must preserve that, including when
  // several batches enter on different wires.
  const std::uint64_t k = GetParam();
  const auto net = core::make_counting(8, 16);
  CompiledNetwork cn(net);
  BatchScratch scratch;
  std::vector<std::uint64_t> counts(cn.width_out(), 0);
  std::uint64_t total = 0;
  for (std::size_t wire = 0; wire < net.width_in(); ++wire) {
    cn.traverse_batch(wire, k + wire, BalancerMode::kFetchAdd, nullptr,
                      scratch, counts.data());
    total += k + wire;
  }
  seq::Sequence out(counts.begin(), counts.end());
  EXPECT_TRUE(seq::is_step(out));
  EXPECT_EQ(static_cast<std::uint64_t>(
                std::accumulate(counts.begin(), counts.end(),
                                std::uint64_t{0})),
            total);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatchTraversal,
                         ::testing::Values(std::size_t{1}, std::size_t{3},
                                           std::size_t{8}, std::size_t{64}),
                         [](const auto& pinfo) {
                           return "k" + std::to_string(pinfo.param);
                         });

// Hammers counter.fetch_increment_batch from several threads, mixing batch
// sizes, and returns every value obtained.
std::vector<std::int64_t> hammer_batched(Counter& counter,
                                         std::size_t threads,
                                         std::size_t calls_per_thread) {
  std::vector<std::vector<std::int64_t>> got(threads);
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        std::int64_t values[64];
        for (std::size_t i = 0; i < calls_per_thread; ++i) {
          const std::size_t k =
              kBatchSizes[(t + i) % std::size(kBatchSizes)];
          counter.fetch_increment_batch(t, k, values);
          got[t].insert(got[t].end(), values, values + k);
        }
      });
    }
  }
  std::vector<std::int64_t> all;
  for (auto& v : got) all.insert(all.end(), v.begin(), v.end());
  return all;
}

void expect_exact_range(std::vector<std::int64_t> values) {
  EXPECT_TRUE(test::is_exact_range(
      std::vector<seq::Value>(values.begin(), values.end())))
      << "gaps or duplicates among " << values.size() << " values";
}

TEST(NetworkCounterBatch, SequentialBatchesAreGapFree) {
  NetworkCounter counter(core::make_counting(8, 24), "C(8,24)");
  std::vector<std::int64_t> all;
  std::int64_t values[64];
  for (const std::size_t k : kBatchSizes) {
    for (int round = 0; round < 8; ++round) {
      counter.fetch_increment_batch(static_cast<std::size_t>(round), k,
                                    values);
      all.insert(all.end(), values, values + k);
    }
  }
  expect_exact_range(std::move(all));
}

TEST(NetworkCounterBatch, SingleTokenBatchMatchesFetchIncrement) {
  NetworkCounter counter(core::make_counting(4, 8), "C(4,8)");
  std::int64_t value = -1;
  for (std::int64_t expect = 0; expect < 100; ++expect) {
    if (expect % 2 == 0) {
      counter.fetch_increment_batch(static_cast<std::size_t>(expect), 1,
                                    &value);
    } else {
      value = counter.fetch_increment(static_cast<std::size_t>(expect));
    }
    EXPECT_EQ(value, expect);
  }
}

struct BatchedCase {
  const char* label;
  std::size_t w, t;
  BalancerMode mode;
};

class BatchedCounterThreads : public ::testing::TestWithParam<BatchedCase> {};

TEST_P(BatchedCounterThreads, ConcurrentMixedBatchesAreExactRange) {
  const auto& param = GetParam();
  NetworkCounter counter(core::make_counting(param.w, param.t), param.label,
                         param.mode);
  expect_exact_range(hammer_batched(counter, 8, 400));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchedCounterThreads,
    ::testing::Values(BatchedCase{"C44_fa", 4, 4, BalancerMode::kFetchAdd},
                      BatchedCase{"C824_fa", 8, 24, BalancerMode::kFetchAdd},
                      BatchedCase{"C88_cas", 8, 8, BalancerMode::kCasRetry}),
    [](const auto& pinfo) { return std::string(pinfo.param.label); });

TEST(NetworkCounterBatch, BitonicBackendConcurrentBatches) {
  NetworkCounter counter(baselines::make_bitonic(8), "bitonic(8)");
  expect_exact_range(hammer_batched(counter, 6, 400));
}

TEST(NetworkCounterBatch, MixedBatchedAndPerTokenCallers) {
  // Batched and per-token callers share one counter; the union of their
  // values must still be gap-free and duplicate-free.
  NetworkCounter counter(core::make_counting(8, 16), "C(8,16)");
  std::vector<std::vector<std::int64_t>> got(8);
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < 8; ++t) {
      workers.emplace_back([&, t] {
        std::int64_t values[8];
        for (int i = 0; i < 1000; ++i) {
          if (t % 2 == 0) {
            counter.fetch_increment_batch(t, 8, values);
            got[t].insert(got[t].end(), values, values + 8);
          } else {
            got[t].push_back(counter.fetch_increment(t));
          }
        }
      });
    }
  }
  std::vector<std::int64_t> all;
  for (auto& v : got) all.insert(all.end(), v.begin(), v.end());
  expect_exact_range(std::move(all));
}

TEST(CentralBaseline, DefaultBatchLoopIsExactRange) {
  // The widened Counter API's default implementation (a fetch_increment
  // loop) must give the same guarantee on the central baseline.
  AtomicCounter counter;
  expect_exact_range(hammer_batched(counter, 8, 400));
}

TEST(CentralBaseline, MutexBackendBatches) {
  MutexCounter counter;
  expect_exact_range(hammer_batched(counter, 4, 200));
}

TEST(NetworkCounterBatch, ZeroBatchIsANoOp) {
  NetworkCounter counter(core::make_counting(4, 4), "C(4,4)");
  counter.fetch_increment_batch(0, 0, nullptr);
  EXPECT_EQ(counter.fetch_increment(0), 0);
}

TEST(NetworkCounterBatch, StallsTrackedInCasMode) {
  NetworkCounter counter(core::make_counting(4, 8), "C(4,8)/cas",
                         BalancerMode::kCasRetry);
  (void)hammer_batched(counter, 4, 100);
  // No assertion on the exact count (scheduling-dependent); the API must
  // simply not lose the tally.
  EXPECT_GE(counter.stall_count(), 0u);
}

}  // namespace
}  // namespace cnet::rt
