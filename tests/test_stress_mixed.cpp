// Mixed-operation stress on one NetworkCounter: concurrent fetch_increment,
// antitoken fetch_decrement, and fetch_increment_batch interleavings. The
// paper-level guarantee under test: at quiescence the net outstanding set
// (values incremented out minus values reclaimed) is exactly the gap-free,
// duplicate-free prefix {0..c-1} (paper §1.4.2 net-balance semantics).
// A second suite stresses the bounded try_fetch_decrement, whose weaker
// contract (counts conserved, no duplicates, but not necessarily a prefix)
// is what svc::NetTokenBucket relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "cnet/core/counting.hpp"
#include "cnet/runtime/network_counter.hpp"
#include "cnet/util/prng.hpp"

namespace cnet::rt {
namespace {

struct ThreadLog {
  std::vector<std::int64_t> incs;
  std::vector<std::int64_t> decs;
};

// Runs `threads` workers over `counter`, each randomly mixing single
// increments, k-token batches, and decrements. Decrements are gated on the
// worker's own net surplus, so the global outstanding count never goes
// negative (the fetch_decrement precondition) at any interleaving.
std::vector<ThreadLog> run_mixed(NetworkCounter& counter, std::size_t threads,
                                 std::size_t ops_per_thread,
                                 std::uint64_t seed) {
  std::vector<ThreadLog> logs(threads);
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        util::Xoshiro256 rng(seed + t);
        ThreadLog& log = logs[t];
        std::int64_t surplus = 0;
        std::int64_t batch[16];
        for (std::size_t i = 0; i < ops_per_thread; ++i) {
          const std::uint64_t pick = rng.below(8);
          if (pick < 3 && surplus > 0) {
            log.decs.push_back(counter.fetch_decrement(t));
            --surplus;
          } else if (pick < 6) {
            log.incs.push_back(counter.fetch_increment(t));
            ++surplus;
          } else {
            const std::size_t k = 2 + rng.below(15);  // 2..16
            counter.fetch_increment_batch(t, k, batch);
            log.incs.insert(log.incs.end(), batch, batch + k);
            surplus += static_cast<std::int64_t>(k);
          }
        }
      });
    }
  }
  return logs;
}

// Multiset difference incs - decs; fails the test if some dec value was
// never handed out.
std::vector<std::int64_t> outstanding_of(const std::vector<ThreadLog>& logs) {
  std::map<std::int64_t, std::int64_t> net;
  for (const auto& log : logs) {
    for (const auto v : log.incs) ++net[v];
    for (const auto v : log.decs) --net[v];
  }
  std::vector<std::int64_t> out;
  for (const auto& [value, count] : net) {
    EXPECT_GE(count, 0) << "value " << value
                        << " reclaimed more often than handed out";
    for (std::int64_t i = 0; i < count; ++i) out.push_back(value);
  }
  return out;
}

void expect_exact_prefix(const std::vector<std::int64_t>& outstanding) {
  for (std::size_t i = 0; i < outstanding.size(); ++i) {
    ASSERT_EQ(outstanding[i], static_cast<std::int64_t>(i))
        << "outstanding set is not the prefix {0..c-1} at position " << i;
  }
}

TEST(StressMixed, QuiescentOutstandingSetIsExactPrefix) {
  NetworkCounter counter(core::make_counting(8, 24), "C(8,24)");
  const auto logs = run_mixed(counter, 8, 1200, 0x51A1);
  expect_exact_prefix(outstanding_of(logs));
}

TEST(StressMixed, CasDisciplineKeepsThePrefixProperty) {
  NetworkCounter counter(core::make_counting(4, 8), "C(4,8)/cas",
                         BalancerMode::kCasRetry);
  const auto logs = run_mixed(counter, 6, 800, 0x51A2);
  expect_exact_prefix(outstanding_of(logs));
}

// --- bounded try_fetch_decrement ------------------------------------------

TEST(StressTryDecrement, NeverReclaimsMoreThanHandedOutAndNoDuplicates) {
  NetworkCounter counter(core::make_counting(8, 24), "C(8,24)");
  constexpr std::size_t kThreads = 8, kOps = 1500;
  std::vector<ThreadLog> logs(kThreads);
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        util::Xoshiro256 rng(0x7D3C + t);
        ThreadLog& log = logs[t];
        std::int64_t reclaimed[8];
        for (std::size_t i = 0; i < kOps; ++i) {
          // Ungated: single and bulk takes must bound themselves at empty,
          // and a bulk take reports every value it reclaims.
          const std::uint64_t draw = rng.below(4);
          if (draw == 0) {
            if (counter.try_fetch_decrement(t, reclaimed)) {
              log.decs.push_back(reclaimed[0]);
            }
          } else if (draw == 1) {
            const std::uint64_t got =
                counter.try_fetch_decrement_n(t, 1 + rng.below(8), reclaimed);
            log.decs.insert(log.decs.end(), reclaimed, reclaimed + got);
          } else {
            log.incs.push_back(counter.fetch_increment(t));
          }
        }
      });
    }
  }
  std::size_t incs = 0, decs = 0;
  for (const auto& log : logs) {
    incs += log.incs.size();
    decs += log.decs.size();
  }
  ASSERT_LE(decs, incs);
  // outstanding_of() also checks decs ⊆ incs as multisets; on top of that,
  // no value may be outstanding twice (no duplicates), though with failed
  // antitokens absorbed in the balancers the set need not be a prefix.
  const auto outstanding = outstanding_of(logs);
  ASSERT_EQ(outstanding.size(), incs - decs);
  ASSERT_EQ(std::adjacent_find(outstanding.begin(), outstanding.end()),
            outstanding.end())
      << "some value is outstanding twice";
}

TEST(StressTryDecrement, BulkClaimsConserveCountsUnderConcurrency) {
  // Value-free bulk claims: the property under stress is pure
  // conservation — claims never exceed increments, and a quiescent drain
  // recovers exactly what was left. The test above checks the values bulk
  // claims report.
  NetworkCounter counter(core::make_counting(8, 16), "C(8,16)");
  constexpr std::size_t kThreads = 6, kOps = 1200;
  std::vector<std::uint64_t> incs(kThreads, 0), decs(kThreads, 0);
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        util::Xoshiro256 rng(0xB01C + t);
        for (std::size_t i = 0; i < kOps; ++i) {
          if (rng.below(2) == 0) {
            decs[t] += counter.try_fetch_decrement_n(t, 1 + rng.below(8));
          } else {
            (void)counter.fetch_increment(t);
            ++incs[t];
          }
        }
      });
    }
  }
  std::uint64_t total_incs = 0, total_decs = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    total_incs += incs[t];
    total_decs += decs[t];
  }
  ASSERT_LE(total_decs, total_incs);
  std::uint64_t drained = 0, grabbed = 0;
  while ((grabbed = counter.try_fetch_decrement_n(0, 5)) != 0) {
    drained += grabbed;
  }
  EXPECT_EQ(total_decs + drained, total_incs);
}

TEST(StressTryDecrement, SequentialEmptyPoolAlwaysFails) {
  NetworkCounter counter(core::make_counting(4, 8), "C(4,8)");
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(counter.try_fetch_decrement(static_cast<std::size_t>(i)));
  }
  // The absorbed antitokens cancel against later tokens: counts still add
  // up once tokens flow again.
  std::int64_t reclaimed = -1;
  for (int i = 0; i < 100; ++i) (void)counter.fetch_increment(i);
  std::size_t drained = 0;
  while (counter.try_fetch_decrement(drained, &reclaimed)) ++drained;
  EXPECT_EQ(drained, 100u);
}

}  // namespace
}  // namespace cnet::rt
