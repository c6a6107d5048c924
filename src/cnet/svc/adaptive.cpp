#include "cnet/svc/adaptive.hpp"

#include <algorithm>

#include "cnet/util/ensure.hpp"
#include "cnet/util/sched_point.hpp"

namespace cnet::svc {

AdaptiveCounter::AdaptiveCounter(const Config& cfg)
    : cfg_(cfg),
      engine_(make_counter(cfg.cold, cfg.net)),
      hot_staged_(make_counter(cfg.hot, cfg.net)),
      cold_(&engine_.current()),
      hot_(hot_staged_.get()),
      // Of the central kinds only the CAS word records stalls on its
      // increment path (atomic is fetch_add, mutex does not track), so
      // only there can a refund batch pollute the window (see refund_n).
      cold_increments_stall_(cfg.cold == BackendKind::kCentralCas),
      stats_(cfg.tuning.sample_interval) {
  CNET_REQUIRE(cfg.cold != BackendKind::kAdaptive &&
                   cfg.hot != BackendKind::kAdaptive,
               "adaptive backends do not nest");
}

std::int64_t AdaptiveCounter::fetch_increment(std::size_t thread_hint) {
  const std::int64_t v = engine_.read(thread_hint, [&](rt::Counter& c) {
    return c.fetch_increment(thread_hint);
  });
  after_ops(thread_hint, 1);
  return v;
}

void AdaptiveCounter::fetch_increment_batch(std::size_t thread_hint,
                                            std::size_t k,
                                            std::int64_t* out_values) {
  // A value-free batch (null out_values) is organic supply — a bucket's
  // refill — and is charged k ops like any other; only refund_n is free.
  engine_.read(thread_hint, [&](rt::Counter& c) {
    c.fetch_increment_batch(thread_hint, k, out_values);
    return 0;
  });
  after_ops(thread_hint, static_cast<std::uint64_t>(k));
}

bool AdaptiveCounter::try_fetch_decrement(std::size_t thread_hint,
                                          std::int64_t* reclaimed) {
  const bool ok = engine_.read(thread_hint, [&](rt::Counter& c) {
    return c.try_fetch_decrement(thread_hint, reclaimed);
  });
  after_ops(thread_hint, 1);
  return ok;
}

std::uint64_t AdaptiveCounter::try_fetch_decrement_n(std::size_t thread_hint,
                                                     std::uint64_t n) {
  const std::uint64_t got = engine_.read(thread_hint, [&](rt::Counter& c) {
    return c.try_fetch_decrement_n(thread_hint, n);
  });
  // Charge the tokens actually transferred (minimum one for the attempt),
  // mirroring the batch-increment path's per-token charge: a bulk consume
  // of 64 is 64 ops of load, not one, and undercounting it inflates the
  // observed stall rate into spurious switches.
  after_ops(thread_hint, std::max<std::uint64_t>(got, 1));
  return got;
}

void AdaptiveCounter::refund_n(std::size_t thread_hint, std::uint64_t n) {
  // Pre-switch, the stalls this refund provokes on the cold word would
  // land in the very total the probe windows over — so they are banked
  // for exclusion. Attribution is exact for the atomic (and mutex) cold
  // kinds, whose increments are wait-free (lock-silent) and provoke no
  // stalls at all: nothing is banked. Only a CAS cold word stalls on the
  // refund's one CAS loop; its bracket reads the shared lifetime total, which
  // can pick up other threads' concurrent stalls, so the banked delta is
  // capped at the refunded token count — the over-exclusion stays
  // proportional to refund volume instead of tiling wall time, and steady
  // release traffic cannot indefinitely suppress a legitimate switch.
  // (Post-switch the probe is dead, so no tracking is needed.)
  const bool track = cold_increments_stall_ &&
                     !switched_.load(std::memory_order_relaxed);
  const std::uint64_t before = track ? cold_->stall_count() : 0;
  engine_.read(thread_hint, [&](rt::Counter& c) {
    c.refund_n(thread_hint, n);
    return 0;
  });
  if (track) {
    refund_stalls_.fetch_add(std::min(cold_->stall_count() - before, n),
                             std::memory_order_relaxed);
  }
  // Deliberately no after_ops(): refunds are not load.
}

std::string AdaptiveCounter::name() const {
  return "adaptive·" + engine_.current().name();
}

void AdaptiveCounter::after_ops(std::size_t thread_hint, std::uint64_t n) {
  if (switched_.load(std::memory_order_relaxed)) return;  // one-way switch
  if (!stats_.record_ops(thread_hint, n)) return;
  // Overload override, checked only at sample boundaries: the manager's
  // force-eliminate tier takes the swap now rather than waiting for the
  // stall-rate window to fill.
  if (const OverloadManager* mgr = overload_.load(std::memory_order_acquire);
      mgr != nullptr && mgr->actions().force_eliminate) {
    do_switch(thread_hint);
    return;
  }
  // The stall total is read *inside* sample(), after the sampler claim is
  // won — a total captured out here could predate a concurrent sampler's
  // window and underflow into a spurious switch. Refund-attributed stalls
  // are excluded (clamped at zero: concurrent refunds can over-attribute).
  const auto window = stats_.sample([this] {
    const std::uint64_t total = cold_->stall_count();
    const std::uint64_t excluded =
        refund_stalls_.load(std::memory_order_relaxed);
    return total >= excluded ? total - excluded : 0;
  });
  if (!window) return;  // another thread holds the sampler
  if (!should_switch(*window, cfg_.tuning)) return;
  do_switch(thread_hint);
}

void AdaptiveCounter::force_switch(std::size_t thread_hint) {
  do_switch(thread_hint);
  while (!switched_.load(std::memory_order_acquire)) {
    util::sched_yield();  // lost the claim race: wait for the winner
  }
}

void AdaptiveCounter::do_switch(std::size_t thread_hint) {
  bool expected = false;
  if (!switch_claimed_.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
    return;  // someone else is (or was) the switcher
  }
  // The engine publishes the hot backend and waits for reader quiescence;
  // the migration then runs against a cold backend no op can touch again,
  // so its remaining pool count is exactly what try_fetch_decrement_n can
  // reclaim. Values are pool tokens (no identity), so only the count must
  // be conserved — and it is, exactly: consumers racing with the drain see
  // tokens in one pool or the other, never in both.
  // The re-inject is a give-back (refund_n), like a bucket respec's.
  engine_.commit(std::move(hot_staged_),
                 [&](rt::Counter& cold, rt::Counter& hot) {
                   std::uint64_t moved = 0;
                   constexpr std::uint64_t kChunk = 256;
                   for (std::uint64_t got; (got = cold.try_fetch_decrement_n(
                                                thread_hint, kChunk)) != 0;) {
                     moved += got;
                   }
                   hot.refund_n(thread_hint, moved);
                 });
  switched_.store(true, std::memory_order_release);
}

}  // namespace cnet::svc
