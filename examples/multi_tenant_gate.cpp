// Multi-tenant admission gate: svc::QuotaHierarchy in front of a skewed
// tenant population. One hot tenant gets most of the offered load (and a
// proportionally larger weight); the cold tenants trickle along. Whatever
// the hot tenant does, it can never hold more parent tokens than its
// weighted borrow cap — so the cold tenants' in-cap borrows keep
// succeeding, which is the whole point of hierarchical quotas over one
// shared pool.
//
// Usage: ./examples/multi_tenant_gate [parent-backend] [tenants] [hot-extra]
//   parent-backend: the parent pool's backend kind (docs/OPERATIONS.md);
//                   a bad one prints every known kind
//                                               (default: batched-network)
//   tenants:        tenant count (>= 2)         (default: 4)
//   hot-extra:      extra threads piled onto tenant 0, which also gets
//                   weight 1 + hot-extra        (default: 4)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "cnet/svc/quota.hpp"
#include "cnet/util/cacheline.hpp"
#include "support/loadgen.hpp"

int main(int argc, char** argv) {
  const char* backend_name = argc > 1 ? argv[1] : "batched-network";
  const std::size_t tenants =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 4;
  const std::size_t hot_extra =
      argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 4;

  const auto parsed = cnet::svc::parse_backend_kind(backend_name);
  if (!parsed.kind) {
    std::fprintf(stderr, "bad backend \"%s\": %s\n", backend_name,
                 parsed.error.c_str());
  }
  if (!parsed.kind || tenants < 2 || tenants > 128 || hot_extra > 64) {
    std::fprintf(stderr,
                 "usage: multi_tenant_gate [<backend-kind>] "
                 "[2<=tenants<=128] [hot-extra<=64]\n");
    return 2;
  }
  const std::size_t threads = tenants + hot_extra;

  // Each child starts with one token; the parent budget is two tokens per
  // tenant, capacity one above it (the isolation sizing rule), split by
  // weight: tenant 0 carries 1 + hot_extra, everyone else 1.
  cnet::svc::QuotaHierarchy::Config cfg;
  cfg.parent = *parsed.kind;
  cfg.borrow_budget = 2 * tenants;
  cfg.parent_initial_tokens = cfg.borrow_budget + 1;
  std::vector<cnet::svc::QuotaHierarchy::TenantConfig> tenant_cfgs(tenants);
  for (std::size_t i = 0; i < tenants; ++i) {
    tenant_cfgs[i].initial_tokens = 1;
    tenant_cfgs[i].weight = i == 0 ? 1 + hot_extra : 1;
  }
  cnet::svc::QuotaHierarchy gate(cfg, std::move(tenant_cfgs));

  constexpr std::size_t kRing = 2;  // grants each thread holds at steady state
  struct alignas(cnet::util::kCacheLine) Tally {
    std::uint64_t attempts = 0;
    std::uint64_t admitted = 0;
    std::uint64_t peak_borrowed = 0;
    bool cap_violated = false;
    std::size_t slot = 0;
    cnet::svc::QuotaHierarchy::Grant ring[kRing];
  };
  std::vector<Tally> tallies(threads);
  // Threads 0..hot_extra hammer tenant 0; thread hot_extra+i drives tenant i.
  const auto tenant_of = [&](std::size_t t) {
    return t <= hot_extra ? std::size_t{0} : t - hot_extra;
  };

  cnet::bench::LoadGenConfig lg;
  lg.threads = threads;
  lg.warmup_seconds = 0.2;
  lg.measure_seconds = 1.0;
  lg.latency_sample_every = 0;
  const auto result = cnet::bench::run_loadgen(lg, [&](std::size_t t) {
    Tally& tally = tallies[t];
    const std::size_t tenant = tenant_of(t);
    auto& held = tally.ring[tally.slot];
    tally.slot = (tally.slot + 1) % kRing;
    if (held.admitted) {
      gate.release(t, held);
      held = {};
    }
    const auto grant = gate.acquire(t, tenant, 1);
    ++tally.attempts;
    if (grant.admitted) {
      ++tally.admitted;
      held = grant;
    }
    const std::uint64_t borrowed = gate.borrowed(tenant);
    tally.peak_borrowed = std::max(tally.peak_borrowed, borrowed);
    if (borrowed > gate.borrow_limit(tenant)) tally.cap_violated = true;
    return std::uint64_t{1};
  });

  // Quiescent teardown: hand every held grant back, then aggregate.
  bool cap_violated = false;
  std::vector<std::uint64_t> attempts(tenants, 0), admitted(tenants, 0),
      peak(tenants, 0);
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t tenant = tenant_of(t);
    attempts[tenant] += tallies[t].attempts;
    admitted[tenant] += tallies[t].admitted;
    peak[tenant] = std::max(peak[tenant], tallies[t].peak_borrowed);
    cap_violated = cap_violated || tallies[t].cap_violated;
    for (const auto& grant : tallies[t].ring) {
      if (grant.admitted) gate.release(t, grant);
    }
  }

  std::printf("gate      : %s\n", gate.name().c_str());
  std::printf("tenants   : %zu (tenant 0 hot: %zu threads, weight %llu)\n",
              tenants, 1 + hot_extra,
              static_cast<unsigned long long>(gate.weight(0)));
  std::printf("parent    : %llu tokens, borrow budget %llu\n",
              static_cast<unsigned long long>(cfg.parent_initial_tokens),
              static_cast<unsigned long long>(cfg.borrow_budget));
  std::printf("offered   : %s over %.2fs\n\n",
              cnet::bench::fmt_rate(result.ops_per_sec).c_str(),
              result.seconds);
  std::printf("  tenant  weight  cap  peak-borrow  attempts  admit%%\n");
  const std::size_t shown = std::min<std::size_t>(tenants, 8);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("  %6zu  %6llu  %3llu  %11llu  %8llu  %5.1f%%\n", i,
                static_cast<unsigned long long>(gate.weight(i)),
                static_cast<unsigned long long>(gate.borrow_limit(i)),
                static_cast<unsigned long long>(peak[i]),
                static_cast<unsigned long long>(attempts[i]),
                attempts[i] == 0 ? 0.0
                                 : 100.0 * static_cast<double>(admitted[i]) /
                                       static_cast<double>(attempts[i]));
  }
  if (shown < tenants) std::printf("  ... (%zu more)\n", tenants - shown);

  // Verdicts: the cap held at every sample; with all grants released the
  // outstanding borrow is zero everywhere (the conservation face of
  // "releases return to the level they came from").
  bool outstanding_clear = true;
  for (std::size_t i = 0; i < tenants; ++i) {
    outstanding_clear = outstanding_clear && gate.borrowed(i) == 0;
  }
  std::printf("\nborrow caps respected : %s\n",
              cap_violated ? "VIOLATED" : "yes");
  std::printf("outstanding after run : %s\n",
              outstanding_clear ? "zero (all grants returned)" : "LEAKED");
  return !cap_violated && outstanding_clear ? 0 : 1;
}
