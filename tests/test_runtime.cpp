// Concurrent runtime: compiled networks, network counters under real
// threads, both balancer disciplines, counters sharing one compiled shape.
#include "cnet/runtime/network_counter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "cnet/baselines/bitonic.hpp"
#include "cnet/baselines/periodic.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/runtime/compiled_network.hpp"
#include "cnet/util/prng.hpp"
#include "test_util.hpp"

namespace cnet::rt {
namespace {

// Runs `threads` workers, each performing `per_thread` fetch_increments,
// and returns all values obtained.
std::vector<std::int64_t> hammer(Counter& counter, std::size_t threads,
                                 std::size_t per_thread) {
  std::vector<std::vector<std::int64_t>> got(threads);
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        got[t].reserve(per_thread);
        for (std::size_t i = 0; i < per_thread; ++i) {
          got[t].push_back(counter.fetch_increment(t));
        }
      });
    }
  }
  std::vector<std::int64_t> all;
  for (auto& v : got) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

TEST(CompiledNetwork, SequentialTraversalMatchesBalancerSemantics) {
  // One (2,4)-balancer: successive tokens exit wires 0,1,2,3,0,...
  topo::Builder b;
  const auto in = b.add_network_inputs(2);
  b.set_outputs(b.add_balancer(in, 4));
  const auto net = std::move(b).build();
  CompiledNetwork cn(net);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t expect = 0; expect < 4; ++expect) {
      EXPECT_EQ(cn.traverse(0, BalancerMode::kFetchAdd, nullptr), expect);
    }
  }
}

TEST(CompiledNetwork, ResetRestoresInitialState) {
  topo::Builder b;
  const auto in = b.add_network_inputs(2);
  b.set_outputs(b.add_balancer(in, 2));
  const auto net = std::move(b).build();
  CompiledNetwork cn(net);
  EXPECT_EQ(cn.traverse(0, BalancerMode::kFetchAdd, nullptr), 0u);
  EXPECT_EQ(cn.traverse(0, BalancerMode::kFetchAdd, nullptr), 1u);
  cn.reset();
  EXPECT_EQ(cn.traverse(0, BalancerMode::kFetchAdd, nullptr), 0u);
}

TEST(CompiledNetwork, CasModeCountsNoStallsWhenSequential) {
  const auto net = core::make_counting(4, 4);
  CompiledNetwork cn(net);
  std::uint64_t stalls = 0;
  for (int i = 0; i < 100; ++i) {
    (void)cn.traverse(static_cast<std::size_t>(i) % 4,
                      BalancerMode::kCasRetry, &stalls);
  }
  EXPECT_EQ(stalls, 0u);
}

TEST(NetworkCounter, SequentialValuesAreSequential) {
  NetworkCounter counter(core::make_counting(4, 8), "C(4,8)");
  for (std::int64_t expect = 0; expect < 200; ++expect) {
    EXPECT_EQ(counter.fetch_increment(static_cast<std::size_t>(expect) % 4),
              expect);
  }
}

struct CounterCase {
  const char* label;
  std::size_t w, t;
  BalancerMode mode;
};

class NetworkCounterThreads : public ::testing::TestWithParam<CounterCase> {};

TEST_P(NetworkCounterThreads, ConcurrentValuesAreExactRange) {
  const auto& param = GetParam();
  NetworkCounter counter(core::make_counting(param.w, param.t), param.label,
                         param.mode);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 2000;
  auto values = hammer(counter, kThreads, kPerThread);
  ASSERT_EQ(values.size(), kThreads * kPerThread);
  EXPECT_TRUE(test::is_exact_range(
      std::vector<seq::Value>(values.begin(), values.end())));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetworkCounterThreads,
    ::testing::Values(CounterCase{"C44_fa", 4, 4, BalancerMode::kFetchAdd},
                      CounterCase{"C48_fa", 4, 8, BalancerMode::kFetchAdd},
                      CounterCase{"C816_fa", 8, 16, BalancerMode::kFetchAdd},
                      CounterCase{"C88_cas", 8, 8, BalancerMode::kCasRetry},
                      CounterCase{"C1648_fa", 16, 48,
                                  BalancerMode::kFetchAdd}),
    [](const auto& pinfo) { return std::string(pinfo.param.label); });

TEST(NetworkCounter, BitonicBackendAlsoCounts) {
  NetworkCounter counter(baselines::make_bitonic(8), "bitonic(8)");
  auto values = hammer(counter, 6, 1500);
  EXPECT_TRUE(test::is_exact_range(
      std::vector<seq::Value>(values.begin(), values.end())));
}

TEST(NetworkCounter, PeriodicBackendAlsoCounts) {
  NetworkCounter counter(baselines::make_periodic(8), "periodic(8)");
  auto values = hammer(counter, 6, 1500);
  EXPECT_TRUE(test::is_exact_range(
      std::vector<seq::Value>(values.begin(), values.end())));
}

TEST(NetworkCounter, StallCountIsZeroForFetchAdd) {
  NetworkCounter counter(core::make_counting(4, 4), "C(4,4)");
  (void)hammer(counter, 4, 500);
  EXPECT_EQ(counter.stall_count(), 0u);
}

TEST(NetworkCounter, NameAndWidthsExposed) {
  NetworkCounter counter(core::make_counting(4, 12), "C(4,12)");
  EXPECT_EQ(counter.name(), "C(4,12)");
  EXPECT_EQ(counter.width_in(), 4u);
  EXPECT_EQ(counter.width_out(), 12u);
}

// A counter on a shared compiled shape is the same machine as one that
// compiled its own: one seeded stream of every op kind gives bit-identical
// results and leaves bit-identical exit cells, in both balancer modes.
TEST(SharedShape, OpStreamMatchesTopologyCounter) {
  const auto net = core::make_counting(8, 24);
  const auto shape = std::make_shared<const CompiledShape>(net);
  for (const BalancerMode mode :
       {BalancerMode::kFetchAdd, BalancerMode::kCasRetry}) {
    BatchedNetworkCounter own(net, "own", mode);
    BatchedNetworkCounter shared(shape, "shared", mode);
    util::Xoshiro256 rng(1998);
    std::int64_t own_buf[32], shared_buf[32];
    for (int op = 0; op < 4000; ++op) {
      const std::size_t hint = rng.below(8);
      switch (rng.below(5)) {
        case 0:
          ASSERT_EQ(own.fetch_increment(hint), shared.fetch_increment(hint));
          break;
        case 1: {
          const std::size_t k = 1 + rng.below(32);
          own.fetch_increment_batch(hint, k, own_buf);
          shared.fetch_increment_batch(hint, k, shared_buf);
          ASSERT_TRUE(std::equal(own_buf, own_buf + k, shared_buf)) << op;
          break;
        }
        case 2: {
          std::int64_t own_v = -1, shared_v = -1;
          ASSERT_EQ(own.try_fetch_decrement(hint, &own_v),
                    shared.try_fetch_decrement(hint, &shared_v));
          ASSERT_EQ(own_v, shared_v);
          break;
        }
        case 3: {
          const std::uint64_t n = rng.below(48);
          ASSERT_EQ(own.try_fetch_decrement_n(hint, n),
                    shared.try_fetch_decrement_n(hint, n));
          break;
        }
        default: {
          const std::uint64_t n = rng.below(64);
          own.refund_n(hint, n);
          shared.refund_n(hint, n);
          break;
        }
      }
    }
    for (std::size_t wire = 0; wire < own.width_out(); ++wire) {
      EXPECT_EQ(own.exit_cell(wire), shared.exit_cell(wire)) << wire;
    }
    EXPECT_EQ(own.traversal_count(), shared.traversal_count());
    EXPECT_EQ(own.batch_pass_count(), shared.batch_pass_count());
  }
}

// Counters on one shape share only the wiring: each has its own balancer
// states and exit cells, so each hands out exactly 0..n-1.
TEST(SharedShape, CountersOnOneShapeAreIndependent) {
  const auto shape =
      std::make_shared<const CompiledShape>(core::make_counting(4, 8));
  NetworkCounter a(shape, "a");
  NetworkCounter b(shape, "b");
  EXPECT_EQ(a.shape(), b.shape());
  std::int64_t next_a = 0, next_b = 0;
  for (std::size_t i = 0; i < 600; ++i) {
    ASSERT_EQ(a.fetch_increment(i % 4), next_a++);
    if (i % 3 != 0) ASSERT_EQ(b.fetch_increment((i + 1) % 4), next_b++);
  }
  // And under concurrency: two threads per counter, both at once.
  NetworkCounter c(shape, "c");
  NetworkCounter d(shape, "d");
  std::vector<std::int64_t> got_c, got_d;
  {
    std::jthread on_c([&] { got_c = hammer(c, 2, 3000); });
    std::jthread on_d([&] { got_d = hammer(d, 2, 3000); });
  }
  EXPECT_TRUE(test::is_exact_range(
      std::vector<seq::Value>(got_c.begin(), got_c.end())));
  EXPECT_TRUE(test::is_exact_range(
      std::vector<seq::Value>(got_d.begin(), got_d.end())));
}

}  // namespace
}  // namespace cnet::rt
