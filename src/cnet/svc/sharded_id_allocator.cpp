#include "cnet/svc/sharded_id_allocator.hpp"

#include <algorithm>

#include "cnet/util/ensure.hpp"

namespace cnet::svc {

ShardedIdAllocator::ShardedIdAllocator(
    std::vector<std::unique_ptr<rt::Counter>> shards)
    : ShardedIdAllocator(std::move(shards), Config()) {}

ShardedIdAllocator::ShardedIdAllocator(
    std::vector<std::unique_ptr<rt::Counter>> shards, Config cfg)
    : shards_(std::move(shards)), cfg_(cfg), caches_(cfg.max_threads) {
  CNET_REQUIRE(!shards_.empty(), "at least one shard counter");
  CNET_REQUIRE(cfg_.max_threads > 0, "max_threads must be positive");
  CNET_REQUIRE(cfg_.refill_batch > 0, "refill_batch must be positive");
  for (const auto& shard : shards_) {
    CNET_REQUIRE(shard != nullptr, "null shard counter");
  }
}

void ShardedIdAllocator::refill_cache(std::size_t thread_hint, Cache& cache) {
  const std::size_t shard = shard_of(thread_hint);
  const std::size_t old_size = cache.ids.size();
  cache.ids.resize(old_size + cfg_.refill_batch);
  std::int64_t* block = cache.ids.data() + old_size;
  shards_[shard]->fetch_increment_batch(thread_hint, cfg_.refill_batch,
                                        block);
  for (std::size_t i = 0; i < cfg_.refill_batch; ++i) {
    block[i] = to_global(shard, block[i]);
  }
}

std::int64_t ShardedIdAllocator::allocate(std::size_t thread_hint) {
  CNET_REQUIRE(thread_hint < cfg_.max_threads,
               "thread_hint must be < max_threads");
  Cache& cache = caches_[thread_hint];
  if (cache.ids.empty()) refill_cache(thread_hint, cache);
  const std::int64_t id = cache.ids.back();
  cache.ids.pop_back();
  return id;
}

void ShardedIdAllocator::allocate_batch(std::size_t thread_hint,
                                        std::size_t k,
                                        std::int64_t* out_ids) {
  CNET_REQUIRE(thread_hint < cfg_.max_threads,
               "thread_hint must be < max_threads");
  Cache& cache = caches_[thread_hint];
  std::size_t filled = 0;
  // Drain the cache first so cached IDs are never stranded behind direct
  // claims.
  while (filled < k && !cache.ids.empty()) {
    out_ids[filled++] = cache.ids.back();
    cache.ids.pop_back();
  }
  const std::size_t remaining = k - filled;
  if (remaining == 0) return;
  if (remaining >= cfg_.refill_batch) {
    // Big request: one direct batched claim, no cache round trip.
    const std::size_t shard = shard_of(thread_hint);
    shards_[shard]->fetch_increment_batch(thread_hint, remaining,
                                          out_ids + filled);
    for (std::size_t i = 0; i < remaining; ++i) {
      out_ids[filled + i] = to_global(shard, out_ids[filled + i]);
    }
    return;
  }
  refill_cache(thread_hint, cache);
  for (std::size_t i = 0; i < remaining; ++i) {
    out_ids[filled + i] = cache.ids.back();
    cache.ids.pop_back();
  }
}

std::uint64_t ShardedIdAllocator::stall_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->stall_count();
  return total;
}

std::string ShardedIdAllocator::name() const {
  return "sharded[" + std::to_string(shards_.size()) + "]·" +
         shards_.front()->name();
}

}  // namespace cnet::svc
