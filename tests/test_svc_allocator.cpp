// svc::ShardedIdAllocator: global uniqueness of IDs handed out across
// threads and shards (the dynomite-style residue-class composition), the
// shard-affinity structure, the batched refill path, and the precondition
// contract — for every counter backend kind.
#include "cnet/svc/sharded_id_allocator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cnet/svc/backend.hpp"
#include "test_svc_util.hpp"

namespace cnet::svc {
namespace {

ShardedIdAllocator make_allocator(BackendKind kind, std::size_t shards,
                                  ShardedIdAllocator::Config cfg) {
  std::vector<std::unique_ptr<rt::Counter>> counters;
  for (std::size_t s = 0; s < shards; ++s) {
    counters.push_back(make_counter(kind));
  }
  return ShardedIdAllocator(std::move(counters), cfg);
}

class AllocatorBackends : public ::testing::TestWithParam<BackendKind> {};

TEST_P(AllocatorBackends, GloballyUniqueAcrossEightThreadsFourShards) {
  constexpr std::size_t kThreads = 8, kShards = 4, kOps = 900;
  auto alloc = make_allocator(GetParam(), kShards,
                              {.max_threads = kThreads, .refill_batch = 16});
  std::vector<std::vector<std::int64_t>> got(kThreads);
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        std::int64_t buf[40];
        // Caches get their storage from their thread's first refill, so
        // each thread's first call meets an empty cache: through allocate,
        // a cache-sized batch or a direct batch, in turn by thread.
        const std::size_t skew = t % 3 == 0 ? 0 : t % 3 == 1 ? 4 : 9;
        for (std::size_t i = skew; i < kOps + skew; ++i) {
          if (i % 5 == 4) {
            // Mixed sizes: below and above refill_batch, exercising both
            // the cache refill and the direct-batch bypass.
            const std::size_t k = (i % 10 == 9) ? 40 : 5;
            alloc.allocate_batch(t, k, buf);
            got[t].insert(got[t].end(), buf, buf + k);
          } else {
            got[t].push_back(alloc.allocate(t));
          }
        }
      });
    }
  }
  std::vector<std::int64_t> all;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (const auto id : got[t]) {
      ASSERT_GE(id, 0);
      // Thread affinity: every ID a thread receives comes from its shard's
      // residue class.
      ASSERT_EQ(static_cast<std::size_t>(id) % kShards, t % kShards)
          << "thread " << t << " got an ID outside its shard class";
      all.push_back(id);
    }
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "duplicate ID handed out (" << all.size() << " total)";
}

TEST_P(AllocatorBackends, SequentialIdsArePerShardStrides) {
  auto alloc = make_allocator(GetParam(), 3,
                              {.max_threads = 8, .refill_batch = 4});
  // One thread per shard class: shard s hands out s, s+3, s+6, ... in some
  // order; the set of the first n must be the n smallest of the class.
  for (std::size_t hint = 0; hint < 3; ++hint) {
    std::set<std::int64_t> seen;
    for (int i = 0; i < 20; ++i) seen.insert(alloc.allocate(hint));
    std::int64_t expect = static_cast<std::int64_t>(hint);
    for (const auto id : seen) {
      EXPECT_EQ(id, expect);
      expect += 3;
    }
  }
}

TEST_P(AllocatorBackends, DirectBatchBypassIsUniqueAndAligned) {
  auto alloc = make_allocator(GetParam(), 2,
                              {.max_threads = 4, .refill_batch = 8});
  std::vector<std::int64_t> ids(64);
  alloc.allocate_batch(1, 64, ids.data());  // 64 >= refill_batch: direct
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  for (const auto id : ids) EXPECT_EQ(id % 2, 1);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, AllocatorBackends,
                         ::testing::ValuesIn(kAllBackendKinds),
                         test::backend_param_name);

TEST(ShardedIdAllocator, RejectsBadConfiguration) {
  EXPECT_THROW(ShardedIdAllocator({}), std::invalid_argument);
  auto alloc = make_allocator(BackendKind::kCentralAtomic, 2,
                              {.max_threads = 4, .refill_batch = 8});
  EXPECT_THROW((void)alloc.allocate(4), std::invalid_argument);
  std::int64_t buf[4];
  EXPECT_THROW(alloc.allocate_batch(9, 4, buf), std::invalid_argument);
}

TEST(ShardedIdAllocator, ReportsShardsAndStalls) {
  auto alloc = make_allocator(BackendKind::kCentralCas, 4,
                              {.max_threads = 8, .refill_batch = 8});
  EXPECT_EQ(alloc.num_shards(), 4u);
  EXPECT_EQ(alloc.shard_of(6), 2u);
  (void)alloc.allocate(0);
  EXPECT_EQ(alloc.name(), "sharded[4]·central-cas");
  EXPECT_GE(alloc.stall_count(), 0u);
}

}  // namespace
}  // namespace cnet::svc
