// svc::OverloadManager — an envoy-style overload manager (cf. envoy's
// overload manager / resource-monitor registry) over the counting-network
// service layer: a registry of pluggable load monitors, each producing a
// normalized 0–1 pressure reading (a backend's windowed stall rate,
// bucket reject ratio, admission queue depth, per-tenant borrow pressure
// from QuotaHierarchy), combined by the pure rules in svc/policy.hpp
// (combine_pressure → overload_tier → overload_actions) into a tiered
// response:
//
//   tier 1  shrink-batch      refill/batch chunks divide by 4 — bounds the
//                             latency one exclusive bulk hold can impose
//   tier 2  degrade-partial   all-or-nothing consumes/acquires degrade to
//                             allow_partial grants (callers are told the
//                             exact charged amount, so conservation holds)
//   tier 3  shed-tenants      whole tenants shed by weight (policy
//                             shed_set), already-held grant parts refunded
//                             exactly to the level they came from
//
// Sampling is explicit and pull-based: someone — a bench loop, a
// maintenance thread, the simulator's virtual clock — calls evaluate()
// periodically. There is no background thread, so tier transitions are
// deterministic functions of the monitor readings at each evaluate(), which
// is exactly what lets sim::simulate_overload replay the same ladder in
// virtual time and pin the transition instants in CI.
//
// Conservation contract: no action ever creates or destroys tokens. Shrink
// only re-chunks; degrade admits a partial grant whose exact parts the
// caller receives and must release; shed refunds every held part to the
// level it was taken from. The bench's
// shed-conservation check drains every pool after a full
// escalate-shed-recover cycle and requires the exact initial totals.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cnet/svc/policy.hpp"
#include "cnet/util/atomic.hpp"
#include "cnet/util/mutex.hpp"
#include "cnet/util/thread_annotations.hpp"

namespace cnet::svc {

class QuotaHierarchy;
class NetTokenBucket;

// A pluggable load signal. Implementations turn some raw observation into
// a normalized pressure reading in [0, 1] (the manager clamps anyway); 0
// means idle, 1 means saturated. sample_pressure() is only ever called
// under the manager's sampler claim — implementations need not be
// re-entrant against themselves, but must tolerate concurrent hot-path
// writers feeding whatever totals they read.
class LoadMonitor {
 public:
  virtual ~LoadMonitor() = default;
  // Registry key; unique per manager (duplicate registration throws).
  virtual const std::string& name() const noexcept = 0;
  virtual double sample_pressure() = 0;
};

// Windowed rate signal: between two samples, Δevents/Δops normalized
// against `saturation_rate` (the rate that counts as pressure 1.0). Covers
// the stall-rate monitor (ops = bucket ops, events = backend stalls) and
// the reject-ratio monitor (ops = consume attempts, events = rejections,
// saturation 1.0). Deltas are clamped at zero: totals read from
// concurrently-written slots may be momentarily stale, and a stale read
// must yield an empty window, never an underflowed one. An empty window
// (no ops since the last sample) reads as zero pressure — an idle system
// decays to nominal (policy window_pressure rule).
class WindowedRateMonitor final : public LoadMonitor {
 public:
  using TotalFn = std::function<std::uint64_t()>;

  WindowedRateMonitor(std::string name, TotalFn ops_total, TotalFn events_total,
                      double saturation_rate);

  const std::string& name() const noexcept override { return name_; }
  double sample_pressure() override;

 private:
  std::string name_;
  TotalFn ops_total_;
  TotalFn events_total_;
  double saturation_rate_;
  // Touched only from sample_pressure(), which the manager calls under its
  // registry mutex (the LoadMonitor contract above) — the discipline the
  // manager's own CNET_GUARDED_BY fields make compiler-checked. Primed at
  // construction to the totals as of attachment, so the first window never
  // spans the counters' whole pre-attachment lifetime.
  std::uint64_t last_ops_ = 0;
  std::uint64_t last_events_ = 0;
};

// Level signal: an externally maintained gauge (admission queue depth,
// in-flight requests) over its capacity (policy occupancy_pressure). set()
// is a relaxed store, callable from any thread at any time. Capacity 0 is
// legal and means "no budget": any nonzero value reads as full saturation
// — the state a live reweigh can produce when a tenant's share is divided
// away while holders are still outstanding.
class GaugeMonitor final : public LoadMonitor {
 public:
  GaugeMonitor(std::string name, std::uint64_t capacity);

  void set(std::uint64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  std::uint64_t capacity() const noexcept { return capacity_; }

  const std::string& name() const noexcept override { return name_; }
  double sample_pressure() override;

 private:
  std::string name_;
  std::uint64_t capacity_;
  std::atomic<std::uint64_t> value_{0};
};

// Aggregate borrow pressure: total outstanding parent borrow across all
// tenants against the total of their weighted limits (policy
// occupancy_pressure over the sums). A single tenant pinned at its own cap
// is isolation *working*, not overload; what signals parent contention is
// the whole borrow budget filling up.
class BorrowPressureMonitor final : public LoadMonitor {
 public:
  explicit BorrowPressureMonitor(const QuotaHierarchy& quota);

  const std::string& name() const noexcept override { return name_; }
  double sample_pressure() override;

 private:
  std::string name_;
  const QuotaHierarchy* quota_;
};

// Convenience factories for the two standard counter-backed monitors.
// Stall rate: backend stalls per bucket op, against the stall rate that
// counts as saturation. Reject ratio: rejected consumes per attempt.
std::unique_ptr<LoadMonitor> make_stall_rate_monitor(
    const NetTokenBucket& bucket, double saturation_stall_rate);
std::unique_ptr<LoadMonitor> make_reject_ratio_monitor(
    const NetTokenBucket& bucket);

struct OverloadConfig {
  OverloadThresholds thresholds;
  // Weight fraction shed at the top tier (policy shed_set).
  double shed_fraction = 0.25;
};

class OverloadManager {
 public:
  // One recorded tier transition (evaluate() that changed the tier).
  struct TierChange {
    OverloadTier from = OverloadTier::kNominal;
    OverloadTier to = OverloadTier::kNominal;
    double pressure = 0.0;
    std::uint64_t sample_seq = 0;  // 1-based index of the evaluate() call
  };

  explicit OverloadManager(const OverloadConfig& cfg = {});

  // Registers a monitor. Names are the registry keys: registering two
  // monitors with the same name throws (a silently shadowed signal is a
  // blind spot exactly where visibility matters most). Returns the stored
  // monitor for caller-side wiring (e.g. keeping a GaugeMonitor* to set).
  // Safe against a concurrent evaluate(): the registry is mutated under
  // the same mutex the sampler iterates it under.
  LoadMonitor& add_monitor(std::unique_ptr<LoadMonitor> monitor)
      CNET_EXCLUDES(mutex_);
  std::size_t num_monitors() const CNET_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    return monitors_.size();
  }

#if defined(CNET_SCHED_CHECK)
  // TEST-ONLY SEAM for the schedule checker's seeded-race fixture: performs
  // the registration the way the pre-PR-9 code did — mutating the registry
  // with NO lock held — so tests/schedcheck/check_seeded_race.cpp can prove
  // the checker rediscovers that race deterministically. In the real bug
  // the damage was a sampler walking a vector mid-growth (memory-unsafe);
  // here the oracle below turns the same interleaving into a clean
  // invariant throw: the method CNET_ENSUREs that no evaluate() walk is in
  // progress at either of its two registry mutations, and evaluate() marks
  // its locked walk in registry_walkers_. With the correct (locked)
  // add_monitor the mutex makes the overlap impossible; with this seam the
  // checker finds the overlapping schedule in milliseconds. Never compiled
  // into production builds.
  LoadMonitor& testonly_add_monitor_unlocked(
      std::unique_ptr<LoadMonitor> monitor);
#endif

  // Puts a quota hierarchy under management: the shed-tenants tier sheds
  // its lowest-weight tenants (policy shed_set, cfg.shed_fraction) with
  // exact refund of held grant parts (QuotaHierarchy::shed), and leaving
  // the tier restores them. Also attaches this manager to the hierarchy so
  // its acquires see the degrade-partial action. At most one hierarchy;
  // the manager must outlive it being governed.
  void govern(QuotaHierarchy& quota);

  // Samples every monitor, combines (max), and applies the tier rule with
  // hysteresis. Thread-safe via a claim: concurrent callers skip (the tier
  // they read is at most one sample stale). Returns the tier now in force.
  OverloadTier evaluate() CNET_EXCLUDES(mutex_);

  // The current tier / action set, cheap enough for hot paths (one acquire
  // load; the action table is a pure function of the tier).
  OverloadTier tier() const noexcept {
    return static_cast<OverloadTier>(tier_.load(std::memory_order_acquire));
  }
  OverloadActions actions() const noexcept { return overload_actions(tier()); }

  // Last combined pressure and per-monitor reading (post-clamp), for
  // reporting. pressure_of throws on an unknown name.
  double pressure() const noexcept {
    return pressure_.load(std::memory_order_acquire);
  }
  double pressure_of(std::string_view name) const CNET_EXCLUDES(mutex_);

  // Every tier transition so far, in order. (Copies under a lock; meant
  // for end-of-run reporting and tests, not hot paths.)
  std::vector<TierChange> history() const CNET_EXCLUDES(mutex_);
  // Tenants currently shed by this manager (empty below the shed tier).
  std::vector<std::size_t> shed_tenants() const CNET_EXCLUDES(mutex_);

  const OverloadConfig& config() const noexcept { return cfg_; }

 private:
  void apply_transition(OverloadTier from, OverloadTier to, double pressure)
      CNET_EXCLUDES(mutex_);

  OverloadConfig cfg_;
  util::Atomic<bool> evaluating_{false};
  util::Atomic<std::uint8_t> tier_{0};
  util::Atomic<double> pressure_{0.0};
  // Set once by govern() before sampling traffic starts (the manager/
  // hierarchy attachment contract); never flips between hierarchies.
  QuotaHierarchy* governed_ = nullptr;
  // The registry mutex. Everything the sampler walks or the reporting
  // accessors copy lives under it — including the registry itself, so a
  // monitor registered while an evaluate() is mid-sample is either in
  // this sample or the next, never torn. last_pressures_[i] pairs with
  // monitors_[i].
  mutable util::Mutex mutex_;
  std::vector<std::unique_ptr<LoadMonitor>> monitors_ CNET_GUARDED_BY(mutex_);
  std::vector<double> last_pressures_ CNET_GUARDED_BY(mutex_);
  std::vector<TierChange> history_ CNET_GUARDED_BY(mutex_);
  std::vector<std::size_t> shed_ CNET_GUARDED_BY(mutex_);
  std::uint64_t samples_ CNET_GUARDED_BY(mutex_) = 0;
#if defined(CNET_SCHED_CHECK)
  // Oracle for the seeded-race fixture: nonzero exactly while evaluate()'s
  // locked registry walk is running. util::Atomic so both the marker
  // stores and the seam's probes are schedulable checker steps.
  util::Atomic<std::uint32_t> registry_walkers_{0};
#endif
};

}  // namespace cnet::svc
