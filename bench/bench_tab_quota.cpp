// Multi-tenant quota hierarchy under live threads, plus its virtual-time
// model — the two-level admission workload (per-tenant child buckets
// borrowing from one shared parent pool) that ISSUE 5 builds.
//
// Table D — svc::QuotaHierarchy: aggregate acquire/sec and per-tenant
//           fairness for {4, 16, 64} tenants × {uniform, hot} skews ×
//           every parent backend kind. Each thread holds a small ring of
//           grants (acquire → hold → release-oldest), so demand exceeds
//           the child buckets and shortfalls exercise the weighted
//           max-borrow path on the shared parent.
// Table D′ — sim::simulate_quota: the same workload shape on simulated
//           cores, where the hot-tenant parent-contention ordering
//           (batched-network ≥ central at 64 cores, inverted at 4) is
//           observable and deterministic on any host.
//
// Named checks (--json + exit code, the artifact CI gates on):
//   D:conservation[kind,T,skew] — quiescent drain returns every pool to
//       exactly its initial level with zero outstanding borrow, and the
//       run completed ops (a zero-op run must not pass vacuously);
//   D:isolation[kind,T,skew]    — no tenant's outstanding borrow ever
//       exceeded its weighted limit, and no cold-tenant acquire was
//       rejected (hot tenants saturating their cap cannot starve the
//       cold ones);
//   quota_sim_conservation / quota_sim_isolation — the model mirror, for
//       every kind × core count;
//   quota_sim_parent_crossover  — batched-network parent >= central parent
//       goodput at 64 simulated cores;
//   quota_sim_central_wins_lowcores — and the inversion at 4 cores;
//   quota_sim_determinism       — a re-run with the same seed reproduces
//       Table D′ exactly.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cnet/sim/multicore.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/quota.hpp"
#include "cnet/util/cacheline.hpp"
#include "cnet/util/table.hpp"
#include "support/loadgen.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

constexpr std::size_t kHotExtraThreads = 4;  // extra threads on tenant 0
constexpr std::size_t kRingGrants = 2;       // grants each thread holds
constexpr std::uint64_t kChildInitial = 1;   // per-tenant child pool

struct QuotaRunResult {
  double ops_per_sec = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t admitted = 0;
  std::uint64_t cold_attempts = 0, cold_admitted = 0;
  std::uint64_t hot_attempts = 0, hot_admitted = 0;
  std::uint64_t peak_borrowed = 0;  // max sampled, across tenants
  std::uint64_t hot_limit = 0;
  bool cap_respected = false;  // borrowed(t) <= limit(t) at every sample
  bool cold_never_rejected = false;
  bool conserved = false;  // exact drain + zero outstanding borrow
};

// One Table D cell: T tenants, hot skew gives tenant 0 kHotExtraThreads
// extra threads and a proportional weight; every thread runs the
// acquire/hold/release ring against one shared hierarchy.
QuotaRunResult run_quota(svc::BackendKind parent_kind, std::size_t tenants,
                         bool hot_skew, bool smoke) {
  const std::size_t threads = tenants + (hot_skew ? kHotExtraThreads : 0);

  svc::QuotaHierarchy::Config cfg;
  cfg.parent = parent_kind;
  // Budget scales with the tenant count; parent capacity exceeds it by
  // the acquire cost, so a won reservation always finds its tokens (the
  // isolation sizing rule from svc/quota.hpp).
  cfg.borrow_budget = 2 * tenants;
  cfg.parent_initial_tokens = cfg.borrow_budget + 1;
  std::vector<svc::QuotaHierarchy::TenantConfig> tenant_cfgs(tenants);
  for (std::size_t i = 0; i < tenants; ++i) {
    tenant_cfgs[i].initial_tokens = kChildInitial;
    tenant_cfgs[i].weight = hot_skew && i == 0 ? kHotExtraThreads : 1;
  }
  svc::QuotaHierarchy hierarchy(cfg, std::move(tenant_cfgs));

  // Thread → tenant pinning: the first 1 + kHotExtraThreads threads drive
  // tenant 0 under hot skew; otherwise one thread per tenant.
  const auto tenant_of = [&](std::size_t t) {
    if (!hot_skew) return t;
    return t <= kHotExtraThreads ? std::size_t{0} : t - kHotExtraThreads;
  };

  struct alignas(util::kCacheLine) Tally {
    std::uint64_t attempts = 0;
    std::uint64_t admitted = 0;
    std::uint64_t peak_borrowed = 0;
    bool cap_violated = false;
    std::size_t slot = 0;
    svc::QuotaHierarchy::Grant ring[kRingGrants];
  };
  std::vector<Tally> tallies(threads);

  bench::LoadGenConfig lg;
  lg.threads = threads;
  lg.warmup_seconds = smoke ? 0.01 : 0.1;
  lg.measure_seconds = smoke ? 0.05 : 0.3;
  lg.min_ops_per_thread = 64;
  lg.latency_sample_every = 0;
  const auto loadgen = bench::run_loadgen(lg, [&](std::size_t t) {
    Tally& tally = tallies[t];
    const std::size_t tenant = tenant_of(t);
    svc::QuotaHierarchy::Grant& held = tally.ring[tally.slot];
    tally.slot = (tally.slot + 1) % kRingGrants;
    if (held.admitted) {
      hierarchy.release(t, held);
      held = {};
    }
    const auto grant = hierarchy.acquire(t, tenant, 1);
    ++tally.attempts;
    if (grant.admitted) {
      ++tally.admitted;
      held = grant;
    }
    // Isolation probe, sampled at the point of every mutation: the
    // reservation CAS makes exceeding the cap structurally impossible, so
    // any observation above it is a real regression.
    const std::uint64_t borrowed = hierarchy.borrowed(tenant);
    tally.peak_borrowed = std::max(tally.peak_borrowed, borrowed);
    if (borrowed > hierarchy.borrow_limit(tenant)) tally.cap_violated = true;
    return std::uint64_t{1};
  });

  QuotaRunResult result;
  result.ops_per_sec = loadgen.ops_per_sec;
  result.cap_respected = true;
  for (std::size_t t = 0; t < threads; ++t) {
    const Tally& tally = tallies[t];
    result.attempts += tally.attempts;
    result.admitted += tally.admitted;
    const bool is_hot = hot_skew && tenant_of(t) == 0;
    (is_hot ? result.hot_attempts : result.cold_attempts) += tally.attempts;
    (is_hot ? result.hot_admitted : result.cold_admitted) += tally.admitted;
    result.peak_borrowed = std::max(result.peak_borrowed,
                                    tally.peak_borrowed);
    result.cap_respected = result.cap_respected && !tally.cap_violated;
    // Quiescent teardown: give every held grant back before draining.
    for (const auto& grant : tally.ring) {
      if (grant.admitted) hierarchy.release(t, grant);
    }
  }
  result.hot_limit = hierarchy.borrow_limit(0);
  result.cold_never_rejected =
      result.cold_admitted == result.cold_attempts;

  // Exact conservation: with all grants released, every pool must drain
  // to precisely its initial level and no borrow may be outstanding.
  bool conserved = true;
  for (std::size_t i = 0; i < tenants; ++i) {
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
  result.conserved =
      conserved && parent_drained == cfg.parent_initial_tokens;
  return result;
}

std::string pct_cell(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "-";
  return util::fmt_double(100.0 * static_cast<double>(part) /
                              static_cast<double>(whole),
                          1) +
         "%";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);

  const std::vector<std::size_t> tenant_sweep =
      opts.smoke ? std::vector<std::size_t>{4, 16}
                 : std::vector<std::size_t>{4, 16, 64};

  bench::section(
      "Table D: QuotaHierarchy acquire/sec + fairness, live threads");
  {
    util::Table table({"backend", "tenants", "skew", "ops/s", "admit%",
                       "cold%", "hot%", "peak/cap", "conserved"});
    for (const svc::BackendKind kind : svc::kAllBackendKinds) {
      const std::string name = svc::backend_kind_name(kind);
      for (const auto tenants : tenant_sweep) {
        for (const bool hot_skew : {false, true}) {
          const auto r = run_quota(kind, tenants, hot_skew, opts.smoke);
          const std::string skew = hot_skew ? "hot" : "uniform";
          table.add_row(
              {name, util::fmt_int(tenants), skew,
               bench::fmt_rate(r.ops_per_sec),
               pct_cell(r.admitted, r.attempts),
               pct_cell(r.cold_admitted, r.cold_attempts),
               hot_skew ? pct_cell(r.hot_admitted, r.hot_attempts) : "-",
               util::fmt_int(static_cast<std::int64_t>(r.peak_borrowed)) +
                   "/" +
                   util::fmt_int(static_cast<std::int64_t>(r.hot_limit)),
               r.conserved ? "yes" : "NO"});
          const std::string tag =
              "[" + name + "," + std::to_string(tenants) + "," + skew + "]";
          bench::check("D:conservation" + tag,
                       r.conserved && r.attempts > 0, opts);
          bench::check("D:isolation" + tag,
                       r.cap_respected && r.cold_never_rejected, opts);
        }
      }
    }
    bench::emit(table, opts);
    bench::note(
        "\nexpected shape: uniform rows admit ~100% (demand sized inside\n"
        "child+cap); hot rows pin tenant 0 at its weighted borrow cap —\n"
        "hot admit% drops while cold tenants stay at 100%, the isolation\n"
        "the weighted max-borrow policy exists to provide.",
        opts);
  }

  std::puts("");
  bench::section("Table D': quota hierarchy on simulated cores");
  {
    const std::vector<std::size_t> core_sweep =
        opts.smoke ? std::vector<std::size_t>{4, 64}
                   : std::vector<std::size_t>{4, 16, 64};
    util::Table table({"backend", "cores", "goodput/vt", "ops/vt",
                       "admitted", "hot-rej", "cold-rej", "conserved",
                       "isolated"});
    bool all_conserved = true, all_isolated = true;
    double central4 = 0.0, network4 = 0.0, central64 = 0.0, network64 = 0.0;
    for (const svc::BackendKind kind : svc::kAllBackendKinds) {
      for (const auto cores : core_sweep) {
        const auto r = sim::simulate_quota(
            kind, sim::quota_sim_reference_config(cores));
        all_conserved = all_conserved && r.conserved;
        all_isolated = all_isolated && r.isolation;
        if (cores == 4 || cores == 64) {
          if (kind == svc::BackendKind::kCentralAtomic) {
            (cores == 4 ? central4 : central64) = r.goodput_per_vtime;
          } else if (kind == svc::BackendKind::kBatchedNetwork) {
            (cores == 4 ? network4 : network64) = r.goodput_per_vtime;
          }
        }
        table.add_row({svc::backend_kind_name(kind),
                       util::fmt_int(cores),
                       util::fmt_double(r.goodput_per_vtime, 3),
                       util::fmt_double(r.ops_per_vtime, 3),
                       util::fmt_int(static_cast<std::int64_t>(r.admitted)),
                       util::fmt_int(
                           static_cast<std::int64_t>(r.hot_rejected)),
                       util::fmt_int(
                           static_cast<std::int64_t>(r.cold_rejected)),
                       r.conserved ? "yes" : "NO",
                       r.isolation ? "yes" : "NO"});
      }
    }
    bench::emit(table, opts);
    bench::note(
        "\nthe paper's inversion on the shared parent: the central word\n"
        "wins at 4 cores, the counting network at 64, where every hot\n"
        "acquire funnels through the parent pool — deterministic from the\n"
        "fixed seed.",
        opts);
    bench::check("quota_sim_conservation", all_conserved, opts);
    bench::check("quota_sim_isolation", all_isolated, opts);
    bench::check("quota_sim_parent_crossover", network64 >= central64, opts);
    bench::check("quota_sim_central_wins_lowcores", central4 > network4,
                 opts);

    // Determinism: re-run the headline cell and require bit-identity.
    constexpr auto headline = svc::BackendKind::kBatchedNetwork;
    const auto first =
        sim::simulate_quota(headline, sim::quota_sim_reference_config(64));
    const auto again =
        sim::simulate_quota(headline, sim::quota_sim_reference_config(64));
    const bool identical =
        first.makespan == again.makespan &&
        first.goodput_per_vtime == again.goodput_per_vtime &&
        first.admitted == again.admitted &&
        first.rejected == again.rejected &&
        first.parent_stalls == again.parent_stalls &&
        first.admitted_per_tenant == again.admitted_per_tenant &&
        first.peak_borrowed_per_tenant == again.peak_borrowed_per_tenant;
    bench::check("quota_sim_determinism", identical, opts);
  }

  return bench::finish(opts);
}
