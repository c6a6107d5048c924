// The overload manager's tiered ladder, live and in virtual time, over the
// counting-network service layer.
//
// Table E — svc::OverloadManager over a real AdmissionController and
//           QuotaHierarchy: a scripted GaugeMonitor ramps pressure
//           0 → 0.97 → 0 and every tier's actuation is verified in place —
//           tier 1 publishes the batch divisor, tier 2 degrades both the
//           admission charge (Ticket::charged < cost) and the quota grant
//           (parts < asked, recorded exactly), tier 3 sheds the
//           lowest-weight tenants (policy shed_set) while held grants stay
//           releasable, and the descent restores them under hysteresis.
//           The cell ends with an exact-drain conservation audit.
// Table E′ — sim::simulate_overload: the same control loop on staggered
//           simulated cores ramping past saturation, where the full
//           escalate→shed→recover trace (and its transition instants) is
//           deterministic on any host.
//
// Named checks (--json + exit code, the artifact CI gates on):
//   E:ladder[kind]       — observed tier at every script step matches the
//       hysteretic expectation, and history() records exactly the expected
//       transitions in order;
//   E:degrade[kind]      — nominal admission stays all-or-nothing; under
//       tier 2 the short pool admits partially with the exact charge and
//       grant parts reported;
//   E:shed_restore[kind] — tier 3 sheds exactly shed_set's pick, shed
//       acquires reject without touching pools, unshed tenants still
//       admit, and the descent restores everyone;
//   E:conservation[kind] — after releasing every grant and refunding every
//       charge, all pools drain to exactly their initial counts with zero
//       outstanding borrow;
//   overload_actions_monotone   — the tier→action table only accumulates
//       interventions as tiers rise (pure policy scan);
//   overload_shed_conservation  — every live cell's post-cycle drain was
//       exact;
//   overload_recovery_hysteresis — every live ladder descended through the
//       hysteresis band correctly, and every simulated trace satisfied the
//       per-transition hysteresis predicate;
//   overload_sim_conservation / overload_sim_recovered — the model mirror,
//       for every backend kind;
//   overload_sim_full_ladder    — the reference workload drives the
//       central-word parent through the complete ladder: peak tier 3,
//       genuinely short (degraded) grants, and shed-time force-refunds;
//   overload_sim_determinism    — a re-run with the same seed reproduces
//       the headline cell bit-identically, transition instants included.
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cnet/sim/multicore.hpp"
#include "cnet/svc/admission.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/overload.hpp"
#include "cnet/svc/policy.hpp"
#include "cnet/svc/quota.hpp"
#include "cnet/util/table.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

// The scripted pressure ramp (gauge value out of 100) and the tier the
// hysteretic rule must be in after evaluating each step. The descent
// values sit inside the hysteresis bands: 0.80 releases tier 3 (<= 0.85)
// but holds tier 2 (> 0.75), 0.55 holds tier 1 (> 0.40) after tier 2 lets
// go.
struct ScriptStep {
  std::uint64_t gauge;
  svc::OverloadTier expect;
};
constexpr ScriptStep kScript[] = {
    {0, svc::OverloadTier::kNominal},
    {55, svc::OverloadTier::kShrinkBatch},
    {88, svc::OverloadTier::kDegradePartial},
    {97, svc::OverloadTier::kShedTenants},
    {80, svc::OverloadTier::kDegradePartial},
    {55, svc::OverloadTier::kShrinkBatch},
    {5, svc::OverloadTier::kNominal},
};

constexpr std::uint64_t kChildInitial = 2;
// The parent pool is deliberately smaller than the weight-2 tenant's
// borrow cap: the reservation commits in full (reserve_borrow is
// all-or-nothing, degrade or not) but the pool take comes up short, which
// is exactly the shape the degrade-partial tier exists for.
constexpr std::uint64_t kParentInitial = 1;
constexpr std::uint64_t kBorrowBudget = 8;  // weights {4,2,1,1} -> limits
constexpr std::uint64_t kQuotaAsk = 4;      // degraded quota acquire
constexpr std::uint64_t kAdmitPool = 3;     // admission bucket pool
constexpr std::uint64_t kAdmitCost = 8;     // degraded admission charge

struct LiveCellResult {
  std::string ladder;              // observed tier at each step
  bool ladder_ok = false;          // tiers + recorded history both match
  bool degrade_ok = false;         // exact partial charge + grant parts
  bool shed_ok = false;            // shed set, shed reject, restore
  bool conserved = false;          // exact drain after the full cycle
  std::uint64_t quota_granted = 0; // degraded grant tokens (of kQuotaAsk)
  std::uint64_t admit_charged = 0; // degraded ticket charge (of kAdmitCost)
  std::vector<std::size_t> shed;   // tenants shed at tier 3
};

// One Table E cell: a hierarchy (4 tenants, weights {4,2,1,1}) and an
// admission controller on the same backend kind, governed by one manager
// whose only meaningful signal is the scripted gauge (the real stall /
// reject / borrow monitors are registered too, but a single-threaded
// script keeps them well below the gauge — the max-combine makes the
// script the driver).
LiveCellResult run_live_cell(svc::BackendKind kind) {
  svc::QuotaHierarchy::Config qcfg;
  qcfg.parent = kind;
  qcfg.parent_initial_tokens = kParentInitial;
  qcfg.borrow_budget = kBorrowBudget;
  std::vector<svc::QuotaHierarchy::TenantConfig> tenants(4);
  const std::uint64_t weights[4] = {4, 2, 1, 1};
  for (std::size_t i = 0; i < 4; ++i) {
    tenants[i].initial_tokens = kChildInitial;
    tenants[i].weight = weights[i];
  }
  svc::QuotaHierarchy hierarchy(qcfg, std::move(tenants));

  svc::AdmissionConfig acfg;
  acfg.backend = kind;
  acfg.bucket.initial_tokens = kAdmitPool;
  svc::AdmissionController admission(acfg);

  svc::OverloadManager manager;  // default thresholds, shed_fraction 0.25
  auto gauge_owner = std::make_unique<svc::GaugeMonitor>("script", 100);
  svc::GaugeMonitor* gauge = gauge_owner.get();
  manager.add_monitor(std::move(gauge_owner));
  manager.add_monitor(
      svc::make_stall_rate_monitor(hierarchy.parent(), /*saturation=*/8.0));
  manager.add_monitor(svc::make_reject_ratio_monitor(hierarchy.parent()));
  manager.add_monitor(std::make_unique<svc::BorrowPressureMonitor>(hierarchy));
  manager.govern(hierarchy);
  admission.attach_overload(&manager);

  LiveCellResult res;
  res.ladder_ok = true;
  res.degrade_ok = true;
  res.shed_ok = true;

  // Nominal baseline: all-or-nothing holds — a short pool rejects with
  // nothing charged and nothing consumed.
  {
    const auto t = admission.admit(0, kAdmitCost);
    res.degrade_ok = res.degrade_ok && !t.admitted && t.charged == 0;
  }
  // A low-weight tenant takes a grant *before* the ramp and holds it
  // across being shed: live shedding leaves held grants valid (release
  // keeps working), so the cycle must still conserve exactly.
  svc::QuotaHierarchy::Grant held_across_shed = hierarchy.acquire(0, 3, 1);
  res.shed_ok = res.shed_ok && held_across_shed.admitted;

  svc::QuotaHierarchy::Grant degraded_grant;
  svc::AdmissionController::Ticket degraded_ticket;

  for (const auto& step : kScript) {
    gauge->set(step.gauge);
    const auto tier = manager.evaluate();
    if (!res.ladder.empty()) res.ladder += '-';
    res.ladder += std::to_string(static_cast<int>(tier));
    res.ladder_ok = res.ladder_ok && tier == step.expect;

    if (step.expect == svc::OverloadTier::kShrinkBatch &&
        res.shed.empty()) {
      // Tier 1's action is published through actions(): refill chunking
      // divides by the policy constant.
      res.ladder_ok = res.ladder_ok &&
                      manager.actions().batch_divisor ==
                          svc::kOverloadBatchDivisor;
    } else if (step.expect == svc::OverloadTier::kDegradePartial &&
               !degraded_grant.admitted) {
      // Tier 2, on the way up: both degrade paths produce exact partials.
      // Quota: child has 2, the weight-2 tenant reserves its full cap of 2
      // but the parent pool holds only 1 — an ask of 4 admits with exactly
      // 3, parts recorded, and the unused headroom is unreserved so the
      // outstanding borrow equals the parent part release() will return.
      degraded_grant = hierarchy.acquire(0, 1, kQuotaAsk);
      res.quota_granted = degraded_grant.tokens();
      res.degrade_ok = res.degrade_ok && degraded_grant.admitted &&
                       degraded_grant.from_child == kChildInitial &&
                       degraded_grant.from_parent == kParentInitial &&
                       hierarchy.borrowed(1) == kParentInitial;
      // Admission: pool of 3 against a cost of 8 charges exactly 3.
      degraded_ticket = admission.admit(0, kAdmitCost);
      res.admit_charged = degraded_ticket.charged;
      res.degrade_ok = res.degrade_ok && degraded_ticket.admitted &&
                       degraded_ticket.charged == kAdmitPool;
    } else if (step.expect == svc::OverloadTier::kShedTenants) {
      // Tier 3: shed_set over weights {4,2,1,1} at fraction 0.25 sheds
      // weight 2 of 8 — the two weight-1 tenants, highest index first,
      // reported ascending.
      res.shed = manager.shed_tenants();
      res.shed_ok = res.shed_ok &&
                    res.shed == std::vector<std::size_t>{2, 3} &&
                    hierarchy.is_shed(2) && hierarchy.is_shed(3) &&
                    !hierarchy.is_shed(0);
      // A shed tenant rejects before touching any pool; an unshed one
      // still admits.
      const auto shed_try = hierarchy.acquire(0, 2, 1);
      res.shed_ok = res.shed_ok && !shed_try.admitted;
      const auto alive = hierarchy.acquire(0, 0, 1);
      res.shed_ok = res.shed_ok && alive.admitted;
      if (alive.admitted) hierarchy.release(0, alive);
    } else if (step.gauge == 80) {
      // Descent out of tier 3: the restore fired and the tenant admits
      // again (tier 2 is still degrade, so a 1-token ask in a live child
      // is an exact full grant either way).
      res.shed_ok = res.shed_ok && manager.shed_tenants().empty() &&
                    !hierarchy.is_shed(2) && !hierarchy.is_shed(3);
      const auto back = hierarchy.acquire(0, 2, 1);
      res.shed_ok = res.shed_ok && back.admitted;
      if (back.admitted) hierarchy.release(0, back);
    }
  }

  // history() must hold exactly the script's transitions, in order.
  const auto history = manager.history();
  const svc::OverloadTier expected_path[] = {
      svc::OverloadTier::kNominal,        svc::OverloadTier::kShrinkBatch,
      svc::OverloadTier::kDegradePartial, svc::OverloadTier::kShedTenants,
      svc::OverloadTier::kDegradePartial, svc::OverloadTier::kShrinkBatch,
      svc::OverloadTier::kNominal,
  };
  constexpr std::size_t kChanges = std::size(expected_path) - 1;
  res.ladder_ok = res.ladder_ok && history.size() == kChanges;
  if (history.size() == kChanges) {
    for (std::size_t i = 0; i < kChanges; ++i) {
      res.ladder_ok = res.ladder_ok &&
                      history[i].from == expected_path[i] &&
                      history[i].to == expected_path[i + 1];
    }
  }

  // Undo everything through the exact-refund paths, then audit: every pool
  // back at its initial count, zero outstanding borrow.
  if (degraded_grant.admitted) hierarchy.release(0, degraded_grant);
  if (held_across_shed.admitted) hierarchy.release(0, held_across_shed);
  if (degraded_ticket.admitted) {
    admission.bucket().refund(0, degraded_ticket.charged);
  }
  bool conserved = true;
  for (std::size_t i = 0; i < 4; ++i) {
    std::uint64_t drained = 0;
    while (hierarchy.child(i).consume(0, 1, svc::kPartialOk) == 1) {
      ++drained;
    }
    conserved = conserved && drained == kChildInitial &&
                hierarchy.borrowed(i) == 0;
  }
  std::uint64_t parent_drained = 0;
  while (hierarchy.parent().consume(0, 1, svc::kPartialOk) == 1) {
    ++parent_drained;
  }
  std::uint64_t admit_drained = 0;
  while (admission.bucket().consume(0, 1, svc::kPartialOk) == 1) {
    ++admit_drained;
  }
  res.conserved = conserved && parent_drained == kParentInitial &&
                  admit_drained == kAdmitPool;
  return res;
}

std::string shed_cell(const std::vector<std::size_t>& shed) {
  std::string out = "{";
  for (std::size_t i = 0; i < shed.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(shed[i]);
  }
  return out + "}";
}

// The tier→action table may only accumulate interventions as tiers rise:
// no boolean ever turns back off at a higher tier, and the batch divisor
// never shrinks. Pure policy scan — no counters involved.
bool actions_monotone() {
  bool ok = true;
  auto prev = svc::overload_actions(svc::OverloadTier::kNominal);
  ok = ok && !prev.degrade_to_partial && !prev.shed_tenants &&
       prev.batch_divisor == 1;
  for (int t = 1; t < static_cast<int>(svc::kNumOverloadTiers); ++t) {
    const auto cur =
        svc::overload_actions(static_cast<svc::OverloadTier>(t));
    ok = ok && (cur.degrade_to_partial || !prev.degrade_to_partial) &&
         (cur.shed_tenants || !prev.shed_tenants) &&
         cur.batch_divisor >= prev.batch_divisor;
    prev = cur;
  }
  ok = ok && prev.degrade_to_partial && prev.shed_tenants &&
       prev.batch_divisor == svc::kOverloadBatchDivisor;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);

  bench::check("overload_actions_monotone", actions_monotone(), opts);

  bench::section("Table E: OverloadManager tier ladder, live actuation");
  bool all_live_conserved = true;
  bool all_live_hysteresis = true;
  {
    util::Table table({"backend", "tier ladder", "quota grant",
                       "admit charge", "shed", "conserved"});
    for (const svc::BackendKind kind : svc::kAllBackendKinds) {
      const std::string name = svc::backend_kind_name(kind);
      const auto r = run_live_cell(kind);
      all_live_conserved = all_live_conserved && r.conserved;
      all_live_hysteresis = all_live_hysteresis && r.ladder_ok;
      table.add_row(
          {name, r.ladder,
           util::fmt_int(static_cast<std::int64_t>(r.quota_granted)) + "/" +
               util::fmt_int(static_cast<std::int64_t>(kQuotaAsk)),
           util::fmt_int(static_cast<std::int64_t>(r.admit_charged)) + "/" +
               util::fmt_int(static_cast<std::int64_t>(kAdmitCost)),
           shed_cell(r.shed), r.conserved ? "yes" : "NO"});
      const std::string tag = "[" + name + "]";
      bench::check("E:ladder" + tag, r.ladder_ok, opts);
      bench::check("E:degrade" + tag, r.degrade_ok, opts);
      bench::check("E:shed_restore" + tag, r.shed_ok, opts);
      bench::check("E:conservation" + tag, r.conserved, opts);
    }
    bench::emit(table, opts);
    bench::note(
        "\nthe scripted gauge walks pressure 0 -> 0.97 -> 0; every backend\n"
        "must ride the same hysteretic ladder 0-1-2-3-2-1-0, degrade to\n"
        "exact partial charges at tier 2, shed the two weight-1 tenants at\n"
        "tier 3, and drain back to its exact initial pools afterwards.",
        opts);
  }

  std::puts("");
  bench::section("Table E': overload control loop on simulated cores");
  {
    util::Table table({"backend", "makespan", "admit", "rej", "degr",
                       "shed-rej", "shed/rest", "refund", "peak>final",
                       "ok"});
    bool all_conserved = true, all_hysteresis = true, all_recovered = true;
    const auto cfg = sim::overload_sim_reference_config();
    for (const svc::BackendKind kind : svc::kAllBackendKinds) {
      const auto r = sim::simulate_overload(kind, cfg);
      all_conserved = all_conserved && r.conserved;
      all_hysteresis = all_hysteresis && r.hysteresis_respected;
      all_recovered = all_recovered && r.recovered;
      const bool ok = r.conserved && r.hysteresis_respected && r.recovered;
      table.add_row(
          {svc::backend_kind_name(kind), util::fmt_double(r.makespan, 2),
           util::fmt_int(static_cast<std::int64_t>(r.admitted)),
           util::fmt_int(static_cast<std::int64_t>(r.rejected)),
           util::fmt_int(static_cast<std::int64_t>(r.degraded_admits)),
           util::fmt_int(static_cast<std::int64_t>(r.shed_rejects)),
           util::fmt_int(static_cast<std::int64_t>(r.shed_events)) + "/" +
               util::fmt_int(static_cast<std::int64_t>(r.restore_events)),
           util::fmt_int(static_cast<std::int64_t>(r.shed_refunded_tokens)),
           std::to_string(static_cast<int>(r.peak_tier)) + ">" +
               std::to_string(static_cast<int>(r.final_tier)),
           ok ? "yes" : "NO"});
    }
    bench::emit(table, opts);
    bench::note(
        "\n48 staggered cores ramp an 8-tenant quota workload past the\n"
        "oversubscribed parent and back down; the sampler plays the same\n"
        "policy rules the live manager runs. Deterministic from the fixed\n"
        "seed — the transition instants are pinned golden in\n"
        "test_multicore_sim.",
        opts);
    bench::check("overload_sim_conservation", all_conserved, opts);
    bench::check("overload_sim_recovered", all_recovered, opts);
    bench::check("overload_recovery_hysteresis",
                 all_live_hysteresis && all_hysteresis, opts);
    bench::check("overload_shed_conservation", all_live_conserved, opts);

    // The headline cell must ride the whole ladder: the central word under
    // 48 staggered cores reaches the shed tier, produces genuinely short
    // grants under degrade, and force-refunds held parts when shedding.
    constexpr auto headline = svc::BackendKind::kCentralAtomic;
    const auto first = sim::simulate_overload(headline, cfg);
    bench::check("overload_sim_full_ladder",
                 first.peak_tier == svc::OverloadTier::kShedTenants &&
                     first.degraded_admits > 0 &&
                     first.shed_refunded_tokens > 0 &&
                     first.shed_events > 0 &&
                     first.shed_events == first.restore_events,
                 opts);

    // Determinism: a re-run must reproduce the trace bit-identically,
    // transition instants and per-tenant shed counts included.
    const auto again = sim::simulate_overload(headline, cfg);
    bool identical =
        first.makespan == again.makespan &&
        first.attempts == again.attempts &&
        first.admitted == again.admitted &&
        first.rejected == again.rejected &&
        first.degraded_admits == again.degraded_admits &&
        first.shed_rejects == again.shed_rejects &&
        first.shed_refunded_tokens == again.shed_refunded_tokens &&
        first.shed_rejects_per_tenant == again.shed_rejects_per_tenant &&
        first.transitions.size() == again.transitions.size();
    if (identical) {
      for (std::size_t i = 0; i < first.transitions.size(); ++i) {
        identical = identical &&
                    first.transitions[i].time == again.transitions[i].time &&
                    first.transitions[i].from == again.transitions[i].from &&
                    first.transitions[i].to == again.transitions[i].to &&
                    first.transitions[i].pressure ==
                        again.transitions[i].pressure;
      }
    }
    bench::check("overload_sim_determinism", identical, opts);
  }

  return bench::finish(opts);
}
