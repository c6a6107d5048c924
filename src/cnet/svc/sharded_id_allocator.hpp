// Dynomite-style sharded ID allocation on top of the Counter abstraction:
// N independent counters (any backend) composed via a modular shard map.
// Shard s with local counter value v owns the global ID v·N + s, so the
// shards partition the ID space into disjoint residue classes and global
// uniqueness reduces to each backend's per-counter no-duplicate guarantee.
//
// Two amortization layers sit above the raw counters:
//   * per-thread shard affinity — thread_hint % N — keeps each thread on
//     one shard's wires (and one entry-wire class within a network shard);
//   * a per-thread ID cache refilled through fetch_increment_batch, so the
//     common allocate() is a cache pop with zero shared-memory traffic and
//     the backend sees one batched claim per refill_batch IDs. A cache's
//     storage is created by its thread's first refill, so construction
//     pays only for the max_threads empty cache headers, not for a buffer
//     per hint that may never run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cnet/runtime/counter.hpp"
#include "cnet/util/cacheline.hpp"

namespace cnet::svc {

class ShardedIdAllocator {
 public:
  struct Config {
    // Number of per-thread cache slots; thread hints must stay below this
    // (slots are unsynchronized, one owner thread each).
    std::size_t max_threads = 64;
    // IDs claimed from the shard counter per cache refill. 1 disables
    // caching in effect (every allocate hits the backend).
    std::size_t refill_batch = 16;
  };

  // Takes ownership of one Counter per shard; stride = shards.size().
  ShardedIdAllocator(std::vector<std::unique_ptr<rt::Counter>> shards,
                     Config cfg);
  explicit ShardedIdAllocator(
      std::vector<std::unique_ptr<rt::Counter>> shards);

  // Returns an ID no other allocate/allocate_batch call ever returns.
  // `thread_hint` must be a stable per-thread index < max_threads.
  std::int64_t allocate(std::size_t thread_hint);

  // Claims k unique IDs into out_ids[0..k). Large requests (>= refill_batch
  // beyond what the cache holds) go straight through the backend's batch
  // path instead of round-tripping the cache.
  void allocate_batch(std::size_t thread_hint, std::size_t k,
                      std::int64_t* out_ids);

  std::size_t num_shards() const noexcept { return shards_.size(); }
  std::size_t max_threads() const noexcept { return cfg_.max_threads; }
  std::size_t shard_of(std::size_t thread_hint) const noexcept {
    return thread_hint % shards_.size();
  }

  std::uint64_t stall_count() const;
  std::string name() const;

 private:
  // One thread's stash of pre-claimed IDs, served LIFO.
  struct alignas(util::kCacheLine) Cache {
    std::vector<std::int64_t> ids;
  };

  std::int64_t to_global(std::size_t shard, std::int64_t local) const noexcept {
    return local * static_cast<std::int64_t>(shards_.size()) +
           static_cast<std::int64_t>(shard);
  }
  void refill_cache(std::size_t thread_hint, Cache& cache);

  std::vector<std::unique_ptr<rt::Counter>> shards_;
  Config cfg_;
  util::LineArray<Cache> caches_;
};

}  // namespace cnet::svc
