// Backend-independent *decision* logic of the service layer, factored out
// of the concurrent implementations so the virtual-time multicore simulator
// (the sim::simulate_* functions of sim/multicore.hpp) runs the exact same
// rules as the real machinery — how a bucket consume grabs and refunds,
// which overload tier a pressure reading lands in — instead of a drifting
// reimplementation. Everything here is pure: no atomics, no time, no I/O.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cnet::svc {

// One observation window: ops completed and contention events (stalls, CAS
// retries — whatever total the observer feeds in) since the previous
// sample. The overload monitors produce these from live threads; the
// simulator produces them from virtual-time stall events.
struct LoadWindow {
  std::uint64_t ops = 0;
  std::uint64_t events = 0;
  double event_rate() const noexcept {
    return ops == 0 ? 0.0
                    : static_cast<double>(events) / static_cast<double>(ops);
  }
};

// How a consume/acquire settles a short pool, as one options struct rather
// than a bare positional bool (which read as line noise at call sites).
// Passed by value through every consume-shaped call in the service layer —
// NetTokenBucket::consume, QuotaHierarchy::acquire, and the shared rules
// below — and by the simulator's pool models, so live code and model agree
// on the same struct.
struct ConsumeOptions {
  // A short pool yields a partial grab (possibly 0) instead of the
  // all-or-nothing refund-and-reject.
  bool partial_ok = false;
};

// The two common settlements, named so call sites read as intent.
inline constexpr ConsumeOptions kAllOrNothing{};
inline constexpr ConsumeOptions kPartialOk{/*partial_ok=*/true};

// The token-bucket consume plan: grab up to `tokens` through `take_n`
// (which returns how many it claimed; zero is conclusive — the pool was
// observably empty), and on an all-or-nothing shortfall refund the partial
// grab through `put_n`. Returns tokens actually consumed. NetTokenBucket
// runs this against a live rt::Counter; the simulator runs it against its
// virtual-time pool models.
//
// tokens == 0 is a defined, trivially successful no-op: neither take_n nor
// put_n is ever invoked and 0 is returned. (A zero-token request is vacuous
// in both partial and all-or-nothing modes — "all of nothing" is nothing —
// so it must not be reported or treated as a rejection.)
template <class TakeN, class PutN>
std::uint64_t bucket_consume(std::uint64_t tokens, ConsumeOptions opts,
                             TakeN&& take_n, PutN&& put_n) {
  if (tokens == 0) return 0;  // the defined no-op, never a backend touch
  std::uint64_t got = 0;
  while (got < tokens) {
    const std::uint64_t grabbed = take_n(tokens - got);
    if (grabbed == 0) break;
    got += grabbed;
  }
  if (!opts.partial_ok && got < tokens && got > 0) {
    put_n(got);
    got = 0;
  }
  return got;
}

// ---------------------------------------------------------------------------
// Quota-hierarchy decision rules (svc::QuotaHierarchy and the simulator's
// quota model share these; see sim/multicore.cpp, which drives the same
// rules in continuation-passing form).

// A tenant's parent-borrow cap under the weighted max-borrow policy: its
// weight's share of the hierarchy's borrow budget, rounded down. The sum
// over all tenants never exceeds `budget`, so sizing the budget at most
// (parent capacity - largest single cost) guarantees a successful
// reservation always finds its tokens in the parent pool — the isolation
// property the hierarchy's checks gate on.
constexpr std::uint64_t weighted_borrow_limit(
    std::uint64_t budget, std::uint64_t weight,
    std::uint64_t total_weight) noexcept {
  if (total_weight == 0) return 0;
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(budget) * weight / total_weight);
}

// How much more a tenant may draw from the parent right now: with
// `outstanding` tokens already borrowed against `limit`, at most this much
// of `want` is grantable. Pure arithmetic; the concurrent reservation in
// QuotaHierarchy CAS-loops over it so `outstanding` can never overshoot the
// limit, even transiently.
constexpr std::uint64_t borrow_allowance(std::uint64_t want,
                                         std::uint64_t outstanding,
                                         std::uint64_t limit) noexcept {
  if (outstanding >= limit) return 0;
  return want < limit - outstanding ? want : limit - outstanding;
}

// The settlement of a two-level grab: given what the child and parent takes
// actually yielded, either the request is covered (admitted, keep both
// parts) or every token goes back to the level it was taken from. By
// default the settlement is all-or-nothing; with opts.partial_ok (the
// overload manager's kDegradePartial action) any nonzero yield settles as
// admitted — the caller keeps exactly from_child + from_parent tokens and
// must release exactly those parts later, so conservation stays level-exact
// either way. tokens == 0 settles as admitted with empty parts — the same
// defined no-op as bucket_consume's.
struct QuotaSettlement {
  bool admitted = false;
  std::uint64_t refund_child = 0;
  std::uint64_t refund_parent = 0;
};

constexpr QuotaSettlement quota_settle(std::uint64_t tokens,
                                       std::uint64_t from_child,
                                       std::uint64_t from_parent,
                                       ConsumeOptions opts = {}) noexcept {
  if (from_child + from_parent == tokens) return {true, 0, 0};
  if (opts.partial_ok && from_child + from_parent > 0) return {true, 0, 0};
  return {false, from_child, from_parent};
}

// Composition of a successful (or rejected) two-level acquire.
struct QuotaGrantPlan {
  bool admitted = false;
  std::uint64_t from_child = 0;   // tokens covered by the tenant's bucket
  std::uint64_t from_parent = 0;  // tokens borrowed from the shared parent
};

// The two-level acquire plan: take from the tenant's child bucket first
// (partial), cover any shortfall from the shared parent only after a
// successful reservation against the tenant's borrow limit, and on failure
// refund every token to the level it came from and return the reservation.
// take_child/take_parent claim up to n and return what they got; reserve(n)
// returns how much borrow headroom was secured (all-or-nothing decisions
// need exactly n); unreserve(n) gives headroom back when the grant fails.
// On success the reservation is kept — it *is* the tenant's outstanding
// borrow until release().
//
// With opts.partial_ok (the overload manager's kDegradePartial action) a
// short yield still admits: the plan keeps whatever the child plus parent
// actually produced, and any reserved headroom beyond the parent tokens
// actually claimed is unreserved before returning — so the outstanding
// borrow equals from_parent exactly, and releasing (from_child,
// from_parent) restores both pools and the headroom to the token.
template <class TakeChild, class Reserve, class Unreserve, class TakeParent,
          class PutChild, class PutParent>
QuotaGrantPlan quota_acquire(std::uint64_t tokens, TakeChild&& take_child,
                             Reserve&& reserve, Unreserve&& unreserve,
                             TakeParent&& take_parent, PutChild&& put_child,
                             PutParent&& put_parent,
                             ConsumeOptions opts = {}) {
  QuotaGrantPlan plan;
  if (tokens == 0) {  // the defined no-op, as in bucket_consume
    plan.admitted = true;
    return plan;
  }
  const std::uint64_t from_child = take_child(tokens);
  std::uint64_t from_parent = 0;
  std::uint64_t reserved = 0;
  if (from_child < tokens) {
    const std::uint64_t shortfall = tokens - from_child;
    reserved = reserve(shortfall);
    if (reserved == shortfall) {
      from_parent = take_parent(shortfall);
    } else if (opts.partial_ok && reserved > 0) {
      // Degraded mode accepts a partial reservation and borrows only what
      // was secured; the all-or-nothing path must not (a short borrow
      // would turn into a short grant and a spurious rejection).
      from_parent = take_parent(reserved);
    }
  }
  const QuotaSettlement settle =
      quota_settle(tokens, from_child, from_parent, opts);
  if (settle.admitted) {
    // A degraded (partial) admit may hold a reservation larger than the
    // parent tokens it actually claimed; give the unused headroom back so
    // outstanding borrow == from_parent, the amount release() will return.
    if (reserved > from_parent) unreserve(reserved - from_parent);
    plan.admitted = true;
    plan.from_child = from_child;
    plan.from_parent = from_parent;
    return plan;
  }
  // Pool before headroom, the same ordering release() documents: the
  // parent grab must be observable in the pool again before the
  // reservation frees, or a racing reservation could win headroom whose
  // tokens are still in flight back and falsely reject.
  if (settle.refund_parent > 0) put_parent(settle.refund_parent);
  if (settle.refund_child > 0) put_child(settle.refund_child);
  if (reserved > 0) unreserve(reserved);
  return plan;
}

// ---------------------------------------------------------------------------
// Overload-manager decision rules (svc::OverloadManager and the simulator's
// sim::simulate_overload drive the exact same ladder; see svc/overload.hpp).
// Signals arrive as normalized 0–1 "pressure" readings, are combined by
// combine_pressure, and map to a tier through overload_tier; each tier's
// interventions come from the monotone action table overload_actions.

// The escalation ladder. Tiers are ordered by severity and the action table
// below is monotone — every tier keeps the interventions of the tiers under
// it — so operators can reason in "at least" terms: a system at
// kDegradePartial already has shrunken batches. Every tier adds an
// intervention of its own.
enum class OverloadTier : std::uint8_t {
  kNominal = 0,         // no intervention
  kShrinkBatch = 1,     // shrink batch/refill chunks (bound exclusive holds)
  kDegradePartial = 2,  // all-or-nothing consumes degrade to partial grants
  kShedTenants = 3,     // shed whole tenants by weight, refund held grants
};

inline constexpr std::size_t kNumOverloadTiers = 4;

constexpr const char* overload_tier_name(OverloadTier tier) noexcept {
  switch (tier) {
    case OverloadTier::kNominal:
      return "nominal";
    case OverloadTier::kShrinkBatch:
      return "shrink-batch";
    case OverloadTier::kDegradePartial:
      return "degrade-partial";
    case OverloadTier::kShedTenants:
      return "shed-tenants";
  }
  return "?";
}

// Escalation thresholds with recovery hysteresis. enter[i] is the combined
// pressure at or above which tier i engages; enter[0] is unused (nominal
// needs no entry). A tier, once entered, is only left when pressure drops
// to or below its *exit* threshold enter[i] - hysteresis — the gap is what
// keeps a signal oscillating around a boundary from flapping actions on
// and off every sample.
struct OverloadThresholds {
  double enter[kNumOverloadTiers] = {0.0, 0.50, 0.85, 0.95};
  double hysteresis = 0.10;
};

// The tier rule. Escalation is immediate: the result is at least the
// highest tier whose enter threshold the pressure meets. De-escalation is
// hysteretic: from `current`, the tier only drops to the highest tier
// still *held* — one whose exit threshold (enter - hysteresis) the
// pressure still exceeds — so recovery retraces the ladder without
// re-triggering on boundary noise. Pure and total: any pressure, any
// current tier.
constexpr OverloadTier overload_tier(double pressure, OverloadTier current,
                                     const OverloadThresholds& th) noexcept {
  std::size_t up = 0;
  for (std::size_t i = 1; i < kNumOverloadTiers; ++i) {
    if (pressure >= th.enter[i]) up = i;
  }
  const auto cur = static_cast<std::size_t>(current);
  if (up >= cur) return static_cast<OverloadTier>(up);
  std::size_t held = 0;
  for (std::size_t i = 1; i <= cur; ++i) {
    if (pressure > th.enter[i] - th.hysteresis) held = i;
  }
  return static_cast<OverloadTier>(held > up ? held : up);
}

// What each tier actually does to the service layer. The table is monotone
// in the tier (checked by test_svc_policy and the bench's monotone-tiers
// gate): batch_divisor never shrinks back and the booleans never turn off
// as the tier climbs.
struct OverloadActions {
  // Batched refills/traversals divide their chunk size by this (floor 1):
  // smaller exclusive holds bound the latency a single batch can impose.
  std::size_t batch_divisor = 1;
  // Degrade all-or-nothing consumes/acquires to allow_partial grants.
  bool degrade_to_partial = false;
  // Shed whole tenants (shed_set below) with exact refund of held grants.
  bool shed_tenants = false;
};

inline constexpr std::size_t kOverloadBatchDivisor = 4;

constexpr OverloadActions overload_actions(OverloadTier tier) noexcept {
  OverloadActions a;
  if (tier >= OverloadTier::kShrinkBatch) a.batch_divisor = kOverloadBatchDivisor;
  if (tier >= OverloadTier::kDegradePartial) a.degrade_to_partial = true;
  if (tier >= OverloadTier::kShedTenants) a.shed_tenants = true;
  return a;
}

// Pressure readings live in [0, 1]; everything a monitor produces is
// clamped through this before combining.
constexpr double clamp_pressure(double p) noexcept {
  return p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
}

// A windowed rate signal normalized against the rate that counts as
// saturation: stalls/op against the stall rate considered fully saturated,
// rejects/attempt against 1.0, and so on. The empty window reads as zero
// pressure — an idle system must decay toward nominal, not hold its last
// tier forever.
inline double window_pressure(const LoadWindow& window,
                              double saturation_rate) noexcept {
  if (window.ops == 0 || saturation_rate <= 0.0) return 0.0;
  return clamp_pressure(window.event_rate() / saturation_rate);
}

// A level signal: current occupancy over capacity (admission queue depth,
// per-tenant outstanding borrow against its limit). Capacity 0 means "no
// budget at all": any occupancy against it is full saturation (1.0), and
// an empty gauge is idle (0.0). The earlier reading of capacity-0 as
// always-zero pressure silently blinded the tier ladder to a resource
// whose budget had been reconfigured away while holders were still
// outstanding — exactly the state a reweigh can now produce live.
constexpr double occupancy_pressure(std::uint64_t value,
                                    std::uint64_t capacity) noexcept {
  if (capacity == 0) return value > 0 ? 1.0 : 0.0;
  return clamp_pressure(static_cast<double>(value) /
                        static_cast<double>(capacity));
}

// Combining rule: the worst signal wins. Max (not sum or mean) because
// pressure readings are not commensurable — a saturated borrow cap is a
// real overload even when every other signal is idle, and averaging it
// away would be exactly the failure mode an overload manager exists to
// prevent.
inline double combine_pressure(const std::vector<double>& readings) noexcept {
  double worst = 0.0;
  for (const double r : readings) {
    const double p = clamp_pressure(r);
    if (p > worst) worst = p;
  }
  return worst;
}

// The shed selection: lowest-weight tenants go first (weight is the same
// importance signal the borrow limits divide by), ties broken toward the
// higher index so tenant 0 — conventionally the most important — is shed
// last. Tenants are added until the shed weight reaches `fraction` of the
// total; at least one tenant is shed for any positive fraction, and the
// rule never sheds *every* tenant (a manager that sheds 100% of its load
// has just failed differently). Deterministic; returns ascending indices.
inline std::vector<std::size_t> shed_set(
    const std::vector<std::uint64_t>& weights, double fraction) {
  if (weights.size() <= 1 || fraction <= 0.0) return {};
  std::vector<std::size_t> order(weights.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              if (weights[a] != weights[b]) return weights[a] < weights[b];
              return a > b;
            });
  double total = 0.0;
  for (const std::uint64_t w : weights) total += static_cast<double>(w);
  const double target = total * (fraction > 1.0 ? 1.0 : fraction);
  std::vector<std::size_t> shed;
  double shed_weight = 0.0;
  for (const std::size_t t : order) {
    if (shed.size() + 1 >= weights.size()) break;  // never shed everyone
    shed.push_back(t);
    shed_weight += static_cast<double>(weights[t]);
    if (shed_weight >= target) break;
  }
  std::sort(shed.begin(), shed.end());
  return shed;
}

// ---------------------------------------------------------------------------
// Hot-reconfiguration decision rules (svc::ReconfigEngine consumers and the
// simulator's sim::simulate_reconfig mirror share these; see svc/reconfig.hpp
// for the staged-commit protocol itself).

// Batch/refill chunking under a divisor — the shrink-batch action's
// arithmetic, and the chunk a staged bucket re-spec adopts when it folds the
// current overload tier into its configuration. Floor 1: a divided chunk
// still makes progress.
constexpr std::size_t divided_chunk(std::size_t chunk,
                                    std::size_t divisor) noexcept {
  if (divisor <= 1) return chunk < 1 ? 1 : chunk;
  const std::size_t divided = chunk / divisor;
  return divided < 1 ? 1 : divided;
}

// Refill/batch chunks live in 1..256 everywhere; a staged re-spec outside
// the range is rejected before anything is built. The cap bounds one
// refill pass's exclusive balancer holds, not a buffer: refill passes are
// value-free. It is also NetTokenBucket's default chunk, which the
// shrink-batch action divides by kOverloadBatchDivisor (256 down to 64).
inline constexpr std::size_t kMaxRefillChunk = 256;

// When a staged bucket re-spec is safe to commit: the chunk must be a legal
// refill chunk. (The backend kind itself needs no rule — every pool kind
// migrates by drain/re-inject, conserving the count exactly.)
constexpr bool respec_safe(std::size_t refill_chunk) noexcept {
  return refill_chunk >= 1 && refill_chunk <= kMaxRefillChunk;
}

// When a staged weight vector is safe to commit against a live hierarchy:
// same tenant count (weights are positional — a resize would orphan
// outstanding borrows), every weight positive (a zero weight is a shed, not
// a share, and would make the tenant's limit permanently zero while its
// borrows stay outstanding).
inline bool reweigh_safe(std::size_t tenants,
                         const std::vector<std::uint64_t>& weights) noexcept {
  if (weights.size() != tenants || tenants == 0) return false;
  for (const std::uint64_t w : weights) {
    if (w == 0) return false;
  }
  return true;
}

// The whole-vector re-division of a borrow budget: every tenant's limit
// recomputed from the *same* staged vector, so the sum-never-exceeds-budget
// sizing rule holds for the published vector as a unit. This is why a
// reweigh goes through the reconfig engine rather than storing per-tenant
// atomics one at a time: a reader mixing limits from two generations could
// see a vector whose limit sum exceeds the budget, and two tenants could
// then reserve more parent headroom than the pool was sized for.
inline std::vector<std::uint64_t> reweigh_limits(
    std::uint64_t budget, const std::vector<std::uint64_t>& weights) {
  std::uint64_t total = 0;
  for (const std::uint64_t w : weights) total += w;
  std::vector<std::uint64_t> limits(weights.size());
  for (std::size_t t = 0; t < weights.size(); ++t) {
    limits[t] = weighted_borrow_limit(budget, weights[t], total);
  }
  return limits;
}

// How a re-divided limit meets outstanding borrows: tokens already on loan
// above the new limit are never clawed back — the grant holders release
// exactly what they hold, in their own time. The overage merely blocks new
// reservations (borrow_allowance yields 0 while outstanding >= limit) until
// releases drain it. Pure bookkeeping for monitors and the simulator.
constexpr std::uint64_t borrow_overage(std::uint64_t outstanding,
                                       std::uint64_t limit) noexcept {
  return outstanding > limit ? outstanding - limit : 0;
}

}  // namespace cnet::svc
