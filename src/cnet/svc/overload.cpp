#include "cnet/svc/overload.hpp"

#include <utility>

#include "cnet/svc/net_token_bucket.hpp"
#include "cnet/svc/quota.hpp"
#include "cnet/util/ensure.hpp"

namespace cnet::svc {

WindowedRateMonitor::WindowedRateMonitor(std::string name, TotalFn ops_total,
                                         TotalFn events_total,
                                         double saturation_rate)
    : name_(std::move(name)),
      ops_total_(std::move(ops_total)),
      events_total_(std::move(events_total)),
      saturation_rate_(saturation_rate) {
  CNET_REQUIRE(ops_total_ && events_total_, "both total callables required");
  CNET_REQUIRE(saturation_rate_ > 0.0, "saturation rate must be positive");
  // Prime the baselines at the totals as of attachment: the first sampled
  // window starts *now*, not at the counters' birth. Without this, a
  // monitor attached to a pre-warmed bucket read the entire lifetime
  // history as one instantaneous window and could spuriously escalate on
  // the very first evaluate().
  last_ops_ = ops_total_();
  last_events_ = events_total_();
}

double WindowedRateMonitor::sample_pressure() {
  const std::uint64_t ops_now = ops_total_();
  const std::uint64_t events_now = events_total_();
  // Clamped deltas: slot-summed totals read under concurrent writers can
  // regress between samples; a stale read must produce an empty window,
  // never a wrapped one.
  const LoadWindow window{
      ops_now >= last_ops_ ? ops_now - last_ops_ : 0,
      events_now >= last_events_ ? events_now - last_events_ : 0};
  if (ops_now > last_ops_) last_ops_ = ops_now;
  if (events_now > last_events_) last_events_ = events_now;
  return window_pressure(window, saturation_rate_);
}

GaugeMonitor::GaugeMonitor(std::string name, std::uint64_t capacity)
    : name_(std::move(name)), capacity_(capacity) {}

double GaugeMonitor::sample_pressure() {
  return occupancy_pressure(value_.load(std::memory_order_relaxed), capacity_);
}

BorrowPressureMonitor::BorrowPressureMonitor(const QuotaHierarchy& quota)
    : name_("borrow_pressure"), quota_(&quota) {}

double BorrowPressureMonitor::sample_pressure() {
  std::uint64_t borrowed = 0;
  std::uint64_t limit = 0;
  for (std::size_t t = 0; t < quota_->num_tenants(); ++t) {
    borrowed += quota_->borrowed(t);
    limit += quota_->borrow_limit(t);
  }
  return occupancy_pressure(borrowed, limit);
}

std::unique_ptr<LoadMonitor> make_stall_rate_monitor(
    const NetTokenBucket& bucket, double saturation_stall_rate) {
  return std::make_unique<WindowedRateMonitor>(
      "stall_rate", [&bucket] { return bucket.consume_attempts(); },
      [&bucket] { return bucket.stall_count(); }, saturation_stall_rate);
}

std::unique_ptr<LoadMonitor> make_reject_ratio_monitor(
    const NetTokenBucket& bucket) {
  // Every attempt rejected is saturation by definition: rate 1.0 maps to
  // pressure 1.0.
  return std::make_unique<WindowedRateMonitor>(
      "reject_ratio", [&bucket] { return bucket.consume_attempts(); },
      [&bucket] { return bucket.consume_rejects(); }, 1.0);
}

OverloadManager::OverloadManager(const OverloadConfig& cfg) : cfg_(cfg) {
  CNET_REQUIRE(cfg_.thresholds.hysteresis >= 0.0,
               "hysteresis must be non-negative");
  for (std::size_t i = 2; i < kNumOverloadTiers; ++i) {
    CNET_REQUIRE(cfg_.thresholds.enter[i] >= cfg_.thresholds.enter[i - 1],
                 "tier enter thresholds must be non-decreasing");
  }
  CNET_REQUIRE(cfg_.shed_fraction >= 0.0 && cfg_.shed_fraction <= 1.0,
               "shed_fraction must be in [0, 1]");
}

LoadMonitor& OverloadManager::add_monitor(
    std::unique_ptr<LoadMonitor> monitor) {
  CNET_REQUIRE(monitor != nullptr, "null monitor");
  LoadMonitor* const stored = monitor.get();
  // Registry and pressure vector mutate together under the mutex: a
  // concurrent evaluate() samples either the pre- or post-registration
  // registry, never a torn pair. (The registry itself used to be pushed
  // outside the lock — a racing sampler could walk a vector mid-growth.)
  const util::MutexLock lock(mutex_);
  for (const auto& existing : monitors_) {
    CNET_REQUIRE(existing->name() != stored->name(),
                 "duplicate load-monitor name: " + stored->name());
  }
  monitors_.push_back(std::move(monitor));
  last_pressures_.push_back(0.0);
  return *stored;
}

#if defined(CNET_SCHED_CHECK)
LoadMonitor& OverloadManager::testonly_add_monitor_unlocked(
    std::unique_ptr<LoadMonitor> monitor) {
  CNET_REQUIRE(monitor != nullptr, "null monitor");
  LoadMonitor* const stored = monitor.get();
  // Deliberately NO MutexLock here — this is the pre-PR-9 registration
  // order the seeded-race fixture re-introduces. The registry_walkers_
  // probes stand in for the original memory-unsafety: if an evaluate()
  // walk can be scheduled between (or during) these two unlocked vector
  // growths, the walk was traversing a vector mid-mutation. The probes
  // are util::Atomic loads, so the checker can preempt at exactly the
  // gap the real race needed. last_pressures_ grows before monitors_ so
  // the interleaved walk stays index-safe while still being detected.
  CNET_ENSURE(registry_walkers_.load(std::memory_order_seq_cst) == 0,
              "unlocked monitor registration overlapped an in-progress "
              "evaluate() registry walk (pre-PR-9 race)");
  last_pressures_.push_back(0.0);
  CNET_ENSURE(registry_walkers_.load(std::memory_order_seq_cst) == 0,
              "unlocked monitor registration overlapped an in-progress "
              "evaluate() registry walk (pre-PR-9 race)");
  monitors_.push_back(std::move(monitor));
  return *stored;
}
#endif

void OverloadManager::govern(QuotaHierarchy& quota) {
  CNET_REQUIRE(governed_ == nullptr || governed_ == &quota,
               "manager already governs a different hierarchy");
  governed_ = &quota;
  quota.attach_overload(this);
}

OverloadTier OverloadManager::evaluate() {
  bool expected = false;
  if (!evaluating_.compare_exchange_strong(expected, true,
                                           std::memory_order_acquire)) {
    return tier();  // a concurrent evaluate() is already sampling
  }
  double combined = 0.0;
  {
    const util::MutexLock lock(mutex_);
    ++samples_;
#if defined(CNET_SCHED_CHECK)
    // Seeded-race oracle (see testonly_add_monitor_unlocked): mark the
    // locked walk so an unlocked registration overlapping it is a caught
    // invariant violation instead of silent vector corruption.
    registry_walkers_.store(1, std::memory_order_seq_cst);
#endif
    for (std::size_t i = 0; i < monitors_.size(); ++i) {
      const double p = clamp_pressure(monitors_[i]->sample_pressure());
      last_pressures_[i] = p;
      if (p > combined) combined = p;
    }
#if defined(CNET_SCHED_CHECK)
    registry_walkers_.store(0, std::memory_order_seq_cst);
#endif
  }
  const OverloadTier from = tier();
  const OverloadTier to = overload_tier(combined, from, cfg_.thresholds);
  pressure_.store(combined, std::memory_order_release);
  if (to != from) {
    apply_transition(from, to, combined);
    // Publish the tier only after shed/restore took effect, so a hot path
    // that reads the new tier never races a half-applied transition.
    tier_.store(static_cast<std::uint8_t>(to), std::memory_order_release);
  }
  evaluating_.store(false, std::memory_order_release);
  return to;
}

void OverloadManager::apply_transition(OverloadTier from, OverloadTier to,
                                       double pressure) {
  const bool was_shedding = overload_actions(from).shed_tenants;
  const bool now_shedding = overload_actions(to).shed_tenants;
  std::vector<std::size_t> shed_now;
  if (governed_ != nullptr && now_shedding && !was_shedding) {
    std::vector<std::uint64_t> weights(governed_->num_tenants());
    for (std::size_t t = 0; t < weights.size(); ++t) {
      weights[t] = governed_->weight(t);
    }
    shed_now = shed_set(weights, cfg_.shed_fraction);
    for (const std::size_t t : shed_now) governed_->shed(t);
  }
  const util::MutexLock lock(mutex_);
  if (governed_ != nullptr && was_shedding && !now_shedding) {
    for (const std::size_t t : shed_) governed_->restore(t);
    shed_.clear();
  }
  if (!shed_now.empty()) shed_ = std::move(shed_now);
  history_.push_back(TierChange{from, to, pressure, samples_});
}

double OverloadManager::pressure_of(std::string_view name) const {
  const util::MutexLock lock(mutex_);
  for (std::size_t i = 0; i < monitors_.size(); ++i) {
    if (monitors_[i]->name() == name) return last_pressures_[i];
  }
  CNET_REQUIRE(false, "unknown monitor name: " + std::string(name));
  return 0.0;  // unreachable
}

std::vector<OverloadManager::TierChange> OverloadManager::history() const {
  const util::MutexLock lock(mutex_);
  return history_;
}

std::vector<std::size_t> OverloadManager::shed_tenants() const {
  const util::MutexLock lock(mutex_);
  return shed_;
}

}  // namespace cnet::svc
