// An envoy-style token-bucket rate limiter (consume(k, ConsumeOptions), cf.
// envoy/common/token_bucket.h) whose token pool is a shared counter:
// increments refill the pool, bounded antitoken decrements consume it. With
// a counting-network backend the admission decisions spread across the
// network's wires and exit cells instead of serializing on one atomic, and
// refills ride the batched traversal path.
//
// The never-over-admit guarantee is local to the backend: Counter::
// try_fetch_decrement_n only succeeds against a specific prior increment
// (central backends bound one value at zero; network backends bound each
// exit cell at its floor, sweeping the other cells when the antitoken's
// exit wire is drained), so at every moment the number of tokens handed
// out by consume() is at most the number pushed in by refill(), and a
// failed consume means the pool was observably empty.
//
// The pool configuration is hot-reconfigurable (svc::ReconfigEngine): a
// respec() stages a whole replacement — new backend spec, new network
// shape, new refill chunk — and commits it mid-traffic with the remaining
// pool count migrated exactly into the new backend. This is what finally
// lets the overload manager's batch_divisor reach a backend's own batch
// size instead of stopping at per-call chunk arithmetic: a re-spec under
// tier >= 1 bakes the divided chunk into the published configuration.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "cnet/runtime/counter.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/policy.hpp"
#include "cnet/svc/reconfig.hpp"

namespace cnet::svc {

class OverloadManager;

class NetTokenBucket {
 public:
  struct Config {
    // Seeded through refund() in one bulk step: a seed is not load.
    std::uint64_t initial_tokens = 0;
    // Tokens pushed per value-free backend batch pass during refill
    // (1..256). The default is the widest pass: a batch costs one RMW per
    // balancer touched plus one per exit wire, whatever its size.
    std::size_t refill_chunk = kMaxRefillChunk;
  };

  // A staged pool replacement: the backend to build, its network shape,
  // and the refill chunking the new configuration adopts. Validated by the
  // pure respec_safe rule before anything is constructed.
  struct Respec {
    BackendSpec spec;
    BackendConfig net;
    std::size_t refill_chunk = kMaxRefillChunk;
  };

  // Takes ownership of the pool counter. The backend must support
  // try_fetch_decrement_n (central and network counters do); on one that
  // does not, consume() always reports an empty pool.
  NetTokenBucket(std::unique_ptr<rt::Counter> pool, Config cfg);
  explicit NetTokenBucket(std::unique_ptr<rt::Counter> pool);

  // Takes up to `tokens` from the pool and returns how many were actually
  // consumed. With opts.partial_ok, a short pool yields a partial grab
  // (possibly 0); without, the call is all-or-nothing — on shortfall the
  // partial grab is returned to the pool and 0 is reported. A failed
  // single-token consume means the pool was observably empty; multi-token
  // all-or-nothing grabs are not atomic (grab then refund), so concurrent
  // callers racing for the last tokens can mutually false-reject even
  // when the pool briefly held enough for one of them.
  //
  // tokens == 0 is a defined, trivially successful no-op returning 0 on
  // every backend: the pool is never touched and the call must not be
  // read as a rejection (the bucket_consume plan pins the same contract).
  std::uint64_t consume(std::size_t thread_hint, std::uint64_t tokens,
                        ConsumeOptions opts = kAllOrNothing);

  // Adds `tokens` to the pool in ceil(tokens / chunk) value-free batch
  // passes (fetch_increment_batch with null values): organic supply, whose
  // chunk the overload manager's shrink-batch action divides.
  void refill(std::size_t thread_hint, std::uint64_t tokens);

  // Returns previously consumed tokens to the pool. Count-wise identical
  // to refill(), but routed through Counter::refund_n — one bulk step for
  // any count, no refill_chunk batching — for give-backs: the
  // all-or-nothing shortfall un-consume above, a QuotaHierarchy release,
  // the constructor's initial_tokens seed.
  void refund(std::size_t thread_hint, std::uint64_t tokens);

  // Applies a staged pool replacement mid-traffic (ReconfigEngine commit):
  // the new backend is built, published, and — after reader quiescence —
  // the old pool's remaining tokens are drained and re-injected into it
  // exactly. Consumers racing the commit see tokens in one pool or the
  // other, never both; a consume against the new pool during the drain
  // window can transiently under-admit, never over-admit. Concurrent
  // respecs serialize; consume/refill/refund never block. Returns the new
  // config version. Requires respec_safe(r.refill_chunk).
  std::uint64_t respec(std::size_t thread_hint, const Respec& r);

  // Version stamp: bumped once per committed respec (starts at 1).
  std::uint64_t config_version() const noexcept {
    return engine_.config_version();
  }
  // Watch respec commits (ReconfigEngine::subscribe contract; delivered by
  // the engine on the committing thread, under the commit lock).
  void subscribe(CommitCallback on_commit) {
    engine_.subscribe(std::move(on_commit));
  }
  // The refill chunk of the currently published configuration.
  std::size_t refill_chunk() const noexcept {
    return engine_.current().refill_chunk;
  }

  // Puts the bucket under an overload manager: refills shrink their chunk
  // size by the tier's batch divisor (count-conserving — the same tokens in
  // smaller exclusive holds), on the pools a later respec() installs too.
  // The manager never changes *whether* tokens are admitted here — consume()
  // stays exact; degrading to partial grants is the caller's
  // (AdmissionController's / QuotaHierarchy's) decision, because only the
  // caller can record the partial charge for a later exact refund. The
  // manager must outlive the bucket; nullptr detaches.
  void attach_overload(const OverloadManager* manager) noexcept;

  // Contention events observed by the pool backends (CAS retries / lock
  // waits), cumulative across respecs; the numerator of the stall-rate
  // overload monitor. A respec rolls the retired pool's final totals into
  // these sums only in its migration step, after the new pool is published
  // and the readers have drained. Between that publish and the rollup,
  // stall_count(), traversal_count() and batch_pass_count() read the fresh
  // pool plus the earlier retired sum, so a read can dip below an earlier
  // one; once the commit returns they are exact again. WindowedRateMonitor
  // clamps such a dip to an empty window and keeps its high-water total.
  std::uint64_t stall_count() const {
    return retired_stalls_.load(std::memory_order_relaxed) +
           engine_.current().pool->stall_count();
  }
  std::uint64_t traversal_count() const {
    return retired_traversals_.load(std::memory_order_relaxed) +
           engine_.current().pool->traversal_count();
  }
  std::uint64_t batch_pass_count() const {
    return retired_batch_passes_.load(std::memory_order_relaxed) +
           engine_.current().pool->batch_pass_count();
  }
  // consume() calls with tokens > 0 / those that returned 0 ("observably
  // empty pool"). Their windowed ratio is the reject-ratio overload signal:
  // rejections per attempt, saturation at 1.0.
  std::uint64_t consume_attempts() const noexcept {
    return engine_.tally_total(kAttempts);
  }
  std::uint64_t consume_rejects() const noexcept {
    return engine_.tally_total(kRejects);
  }
  std::string name() const { return "bucket·" + engine_.current().pool->name(); }
  // The currently published pool. With live respecs the reference can go
  // stale (it stays valid — retired pools live as long as the bucket — but
  // no longer receives traffic); prefer the telemetry accessors above.
  rt::Counter& pool() noexcept { return *engine_.current().pool; }
  const rt::Counter& pool() const noexcept { return *engine_.current().pool; }

 private:
  // The unit the engine swaps: the pool and the chunking that feeds it are
  // one configuration — a respec replaces both atomically, so no refill
  // ever pairs an old chunk with a new backend or vice versa.
  struct PoolState {
    std::unique_ptr<rt::Counter> pool;
    std::size_t refill_chunk = kMaxRefillChunk;
  };

  static std::unique_ptr<PoolState> make_state(std::unique_ptr<rt::Counter> pool,
                                               std::size_t refill_chunk);

  // The consume tallies, kept on the engine's per-hint reader lines: a
  // consume's reader enter, its attempt tally and its reader exit land on
  // one line.
  enum Tally : std::size_t { kAttempts, kRejects, kTallies };

  ReconfigEngine<PoolState, kTallies> engine_;
  const OverloadManager* overload_ = nullptr;
  std::atomic<std::uint64_t> retired_stalls_{0};
  std::atomic<std::uint64_t> retired_traversals_{0};
  std::atomic<std::uint64_t> retired_batch_passes_{0};
};

}  // namespace cnet::svc
