#include "cnet/svc/net_token_bucket.hpp"

#include <algorithm>
#include <utility>

#include "cnet/svc/overload.hpp"
#include "cnet/svc/policy.hpp"
#include "cnet/util/ensure.hpp"

namespace cnet::svc {

std::unique_ptr<NetTokenBucket::PoolState> NetTokenBucket::make_state(
    std::unique_ptr<rt::Counter> pool, std::size_t refill_chunk) {
  CNET_REQUIRE(pool != nullptr, "null pool counter");
  CNET_REQUIRE(respec_safe(refill_chunk), "refill_chunk must be in 1..256");
  auto state = std::make_unique<PoolState>();
  state->pool = std::move(pool);
  state->refill_chunk = refill_chunk;
  return state;
}

NetTokenBucket::NetTokenBucket(std::unique_ptr<rt::Counter> pool)
    : NetTokenBucket(std::move(pool), Config()) {}

NetTokenBucket::NetTokenBucket(std::unique_ptr<rt::Counter> pool, Config cfg)
    : engine_(make_state(std::move(pool), cfg.refill_chunk)) {
  // The seed is a give-back, not organic load (no overload manager can be
  // attached yet): one bulk refund_n step, not refill_chunk-sized batches.
  refund(0, cfg.initial_tokens);
}

std::uint64_t NetTokenBucket::consume(std::size_t thread_hint,
                                      std::uint64_t tokens,
                                      ConsumeOptions opts) {
  if (tokens == 0) return 0;  // defined no-op: success, pool untouched
  engine_.tally(kAttempts, thread_hint, 1);
  const std::uint64_t got =
      engine_.read(thread_hint, [&](PoolState& state) -> std::uint64_t {
        // Every consume runs the shared svc::bucket_consume plan (the
        // virtual-time simulator runs the identical plan against its pool
        // models). Bulk claims: central backends take the whole remainder in
        // one CAS, network backends in one antitoken traversal + block cell
        // claims. A zero return is conclusive — the pool was observably
        // empty — and an all-or-nothing shortfall goes back through
        // refund_n in one bulk step, not refill()'s chunked passes. Grab and
        // shortfall-refund run inside one read section, so a racing respec
        // migrates either the untouched pool or the fully settled one —
        // never a half-refunded state.
        return bucket_consume(
            tokens, opts,
            [&](std::uint64_t want) {
              return state.pool->try_fetch_decrement_n(thread_hint, want);
            },
            [&](std::uint64_t refund) {
              state.pool->refund_n(thread_hint, refund);
            });
      });
  if (got == 0) engine_.tally(kRejects, thread_hint, 1);
  return got;
}

void NetTokenBucket::refill(std::size_t thread_hint, std::uint64_t tokens) {
  // A pool token has no identity, only the net count matters, so each pass
  // is a value-free batch: no value is written anywhere. Under overload the
  // shrink-batch action divides the chunk size (shared divided_chunk rule,
  // floor 1): the same token count lands in the pool, in smaller exclusive
  // batch holds.
  const std::size_t divisor =
      overload_ != nullptr ? overload_->actions().batch_divisor : 1;
  while (tokens > 0) {
    const std::uint64_t left = tokens;
    const std::uint64_t pushed =
        engine_.read(thread_hint, [&](PoolState& state) -> std::uint64_t {
          const std::size_t chunk = divided_chunk(state.refill_chunk, divisor);
          const auto k =
              static_cast<std::size_t>(std::min<std::uint64_t>(left, chunk));
          state.pool->fetch_increment_batch(thread_hint, k, nullptr);
          return k;
        });
    tokens -= pushed;
  }
}

void NetTokenBucket::refund(std::size_t thread_hint, std::uint64_t tokens) {
  if (tokens == 0) return;
  engine_.read(thread_hint, [&](PoolState& state) {
    state.pool->refund_n(thread_hint, tokens);
    return 0;
  });
}

std::uint64_t NetTokenBucket::respec(std::size_t thread_hint, const Respec& r) {
  CNET_REQUIRE(respec_safe(r.refill_chunk),
               "staged refill_chunk must be in 1..256");
  auto next = make_state(make_counter(r.kind, r.net), r.refill_chunk);
  return engine_.commit(
      std::move(next), [&](PoolState& old_state, PoolState& new_state) {
        // Post-quiescence: no consume/refill/refund can touch the old pool
        // again, so its remaining count is exactly what the drain reclaims.
        // Tokens move in bounded chunks and are re-injected through
        // refund_n — migration is a give-back, not organic refill load.
        std::uint64_t moved = 0;
        constexpr std::uint64_t kChunk = 256;
        for (std::uint64_t got; (got = old_state.pool->try_fetch_decrement_n(
                                     thread_hint, kChunk)) != 0;) {
          moved += got;
        }
        new_state.pool->refund_n(thread_hint, moved);
        // Roll the retired pool's (now final) telemetry into the cumulative
        // totals. Readers of those totals saw a dip since the publish above
        // (the fresh pool without this sum); from here on they are exact.
        retired_stalls_.fetch_add(old_state.pool->stall_count(),
                                  std::memory_order_relaxed);
        retired_traversals_.fetch_add(old_state.pool->traversal_count(),
                                      std::memory_order_relaxed);
        retired_batch_passes_.fetch_add(old_state.pool->batch_pass_count(),
                                        std::memory_order_relaxed);
      });
}

void NetTokenBucket::attach_overload(const OverloadManager* manager) noexcept {
  // Not synchronized with a concurrent refill(), which reads overload_:
  // attach before opening the bucket to traffic.
  overload_ = manager;
}

}  // namespace cnet::svc
