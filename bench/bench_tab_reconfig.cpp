// Hot reconfiguration, live and in virtual time — the staged-commit
// engine ISSUE 7 builds under the service layer (svc::ReconfigEngine).
//
// Table F — NetTokenBucket::respec under real threads: consume/refill
//           workers race a reconfigurer cycling the pool through every
//           backend kind mid-traffic. Conservation must be exact at
//           quiescence — every token the workers pushed in was either
//           handed out or is still drainable, across every commit's
//           migration — and never-over-admit must hold throughout.
// Table F2 — QuotaHierarchy::reweigh with a grant in flight: the limit
//           vector re-divides live, the outstanding borrow above the
//           shrunken limit is overage (never clawed back), the sibling's
//           grown limit binds immediately, and release stays the exact
//           undo recorded in the grant.
// Table F′ — sim::simulate_reconfig: the same staged publish / quiescent
//           commit protocol in virtual time, where the commit instant —
//           the exact moment the last in-flight old-stack op drains — is
//           deterministic on any host (pinned golden in
//           test_multicore_sim).
//
// Named checks (--json + exit code, the artifact CI gates on):
//   F:conservation[kind] — the mid-traffic respec sweep starting from
//       `kind` conserved tokens exactly and committed at least once;
//   F:reweigh[kind]      — live re-division over a `kind` parent kept the
//       in-flight grant release-exact and the parent pool drained to its
//       initial count;
//   reconfig_batch_divisor_end_to_end — under overload tier >= 1 a respec
//       bakes the divided chunk into the published configuration and the
//       backend's own batch_pass_count proves the smaller holds actually
//       traversed the network (the tentpole's motivating bug);
//   reconfig_sim_conservation — the model mirror conserves across the
//       commit for every backend kind, version bumped, retired pool empty;
//   reconfig_sim_determinism  — a re-run of the headline cell reproduces
//       the trace bit-identically, commit instant included.
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cnet/sim/multicore.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/net_token_bucket.hpp"
#include "cnet/svc/overload.hpp"
#include "cnet/svc/policy.hpp"
#include "cnet/svc/quota.hpp"
#include "cnet/util/table.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

struct LiveCellResult {
  std::uint64_t refilled = 0;
  std::uint64_t consumed = 0;
  std::uint64_t drained = 0;
  std::uint64_t respecs = 0;  // committed config versions past the first
  bool conserved = false;
};

// One Table F cell: 3 consume/refill workers against a bucket that starts
// on `kind`, while a reconfigurer thread cycles it through every kind with
// varying chunks. One deterministic final respec after the
// workers drain guarantees at least one commit even in the tiniest smoke
// run (and exercises the idle-respec degenerate case).
LiveCellResult run_live_cell(svc::BackendKind kind, std::uint64_t rounds) {
  constexpr std::size_t kWorkers = 3;
  svc::NetTokenBucket bucket(
      make_counter(kind),
      svc::NetTokenBucket::Config{/*initial_tokens=*/0, /*refill_chunk=*/64});
  const auto& kinds = svc::kAllBackendKinds;

  LiveCellResult res;
  // Commit-count via the subscribe push (SDS-style watch) instead of the
  // old config_version() poll: every commit fires the callback exactly
  // once, on the committing thread, so the counter needs no final read.
  std::atomic<std::uint64_t> commits{0};
  bucket.subscribe([&commits](std::uint64_t) {
    commits.fetch_add(1, std::memory_order_relaxed);
  });
  std::atomic<std::uint64_t> consumed{0}, refilled{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < rounds; ++i) {
        bucket.refill(w, 3);
        refilled.fetch_add(3, std::memory_order_relaxed);
        consumed.fetch_add(bucket.consume(w, 2, svc::kPartialOk),
                           std::memory_order_relaxed);
        consumed.fetch_add(bucket.consume(w, 5, svc::kAllOrNothing),
                           std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {
    std::size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      bucket.respec(kWorkers, {kinds[i % std::size(kinds)],
                               svc::BackendConfig{}, 1 + (i * 37) % 256});
      ++i;
    }
  });
  for (std::size_t w = 0; w < kWorkers; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();
  bucket.respec(0, {kind, svc::BackendConfig{}, 64});  // guaranteed commit

  std::uint64_t got = 0;
  while ((got = bucket.consume(0, 64, svc::kPartialOk)) != 0) {
    res.drained += got;
  }
  res.refilled = refilled.load();
  res.consumed = consumed.load();
  res.respecs = commits.load(std::memory_order_acquire);
  res.conserved = res.refilled == res.consumed + res.drained &&
                  res.refilled >= res.consumed && res.respecs >= 1;
  return res;
}

struct ReweighCellResult {
  std::uint64_t limit_before = 0;
  std::uint64_t limit_after = 0;
  std::uint64_t overage = 0;
  std::uint64_t parent_drained = 0;
  bool ok = false;
};

// One Table F2 cell: tenant 0 borrows 40 of its 50-limit from a parent on
// `kind`, the weights re-divide live to {1, 9}, and the whole in-flight /
// overage / sibling / release-exact story must hold under the new
// generation, ending in an exact parent drain.
ReweighCellResult run_reweigh_cell(svc::BackendKind kind) {
  svc::QuotaHierarchy::Config cfg;
  cfg.parent = kind;
  cfg.parent_initial_tokens = 100;
  cfg.borrow_budget = 100;
  svc::QuotaHierarchy quota(cfg, {{.initial_tokens = 0, .weight = 1},
                                  {.initial_tokens = 0, .weight = 1}});

  ReweighCellResult res;
  // The reweigh commit arrives by push: the subscribe callback hands us the
  // committed version on the committing thread (here, synchronously inside
  // reweigh), replacing the config_version() == 2 poll.
  std::uint64_t committed_version = 0;
  quota.subscribe(
      [&committed_version](std::uint64_t v) { committed_version = v; });
  res.limit_before = quota.borrow_limit(0);
  const auto held = quota.acquire(0, 0, 40);
  bool ok = held.admitted && held.from_parent == 40 &&
            quota.borrowed(0) == 40 && res.limit_before == 50;

  quota.reweigh(0, {1, 9});
  res.limit_after = quota.borrow_limit(0);
  res.overage = svc::borrow_overage(quota.borrowed(0), res.limit_after);
  ok = ok && committed_version == 2 && res.limit_after == 10 &&
       quota.borrowed(0) == 40 &&  // overage, never clawed back
       res.overage == 30 &&
       !quota.acquire(0, 0, 1).admitted;  // no allowance until it drains

  const auto sibling = quota.acquire(0, 1, 60);  // the grown limit binds now
  ok = ok && sibling.admitted && sibling.from_parent == 60;

  quota.release(0, held);  // the exact undo, under the new generation
  ok = ok && quota.borrowed(0) == 0;
  const auto after = quota.acquire(0, 0, 10);
  ok = ok && after.admitted;  // back inside the shrunken limit
  if (after.admitted) quota.release(0, after);
  if (sibling.admitted) quota.release(0, sibling);

  std::uint64_t got = 0;
  while ((got = quota.parent().consume(0, 64, svc::kPartialOk)) != 0) {
    res.parent_drained += got;
  }
  res.ok = ok && quota.borrowed(1) == 0 && res.parent_drained == 100;
  return res;
}

// The tentpole's motivating bug, end to end: tier 1's batch_divisor used
// to stop at per-call chunk arithmetic; a respec under overload bakes the
// divided chunk into the published configuration, and the backend's own
// batch_pass_count proves the smaller exclusive holds actually traversed.
bool batch_divisor_end_to_end() {
  svc::NetTokenBucket bucket(
      make_counter(svc::BackendKind::kBatchedNetwork),
      svc::NetTokenBucket::Config{0, 64});
  svc::OverloadManager mgr;
  auto gauge = std::make_unique<svc::GaugeMonitor>("script", 100);
  svc::GaugeMonitor* script = gauge.get();
  mgr.add_monitor(std::move(gauge));
  bucket.attach_overload(&mgr);

  bucket.refill(0, 128);  // nominal: 2 passes of 64
  bool ok = bucket.batch_pass_count() == 2;

  script->set(55);  // tier 1
  ok = ok && mgr.evaluate() != svc::OverloadTier::kNominal;
  const std::size_t divisor = mgr.actions().batch_divisor;
  ok = ok && divisor > 1;

  bucket.respec(0, {svc::BackendKind::kBatchedNetwork, {}, 64});
  const std::uint64_t passes_before = bucket.batch_pass_count();
  const std::uint64_t traversals_before = bucket.traversal_count();
  bucket.refill(0, 128);
  const std::uint64_t passes = bucket.batch_pass_count() - passes_before;
  const std::uint64_t traversals =
      bucket.traversal_count() - traversals_before;
  const std::size_t chunk = svc::divided_chunk(64, divisor);
  ok = ok && traversals == 128 && passes == 128 / chunk &&
       traversals / passes == chunk;

  std::uint64_t drained = 0, got = 0;
  while ((got = bucket.consume(0, 64, svc::kPartialOk)) != 0) drained += got;
  return ok && drained == 256;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);
  const std::uint64_t rounds = opts.smoke ? 200 : 4000;

  bench::check("reconfig_batch_divisor_end_to_end", batch_divisor_end_to_end(),
               opts);

  bench::section("Table F: live mid-traffic respec, exact conservation");
  {
    util::Table table({"backend", "respecs", "refilled", "consumed",
                       "drained", "conserved"});
    for (const svc::BackendKind kind : svc::kAllBackendKinds) {
      const std::string name = svc::backend_kind_name(kind);
      const auto r = run_live_cell(kind, rounds);
      table.add_row(
          {name,
           util::fmt_int(static_cast<std::int64_t>(r.respecs)),
           util::fmt_int(static_cast<std::int64_t>(r.refilled)),
           util::fmt_int(static_cast<std::int64_t>(r.consumed)),
           util::fmt_int(static_cast<std::int64_t>(r.drained)),
           r.conserved ? "yes" : "NO"});
      bench::check("F:conservation[" + name + "]", r.conserved, opts);
    }
    bench::emit(table, opts);
    bench::note(
        "\n3 consume/refill workers race a reconfigurer cycling the pool\n"
        "through every backend kind; every commit migrates the remaining\n"
        "count exactly, so refilled == consumed + drained at quiescence\n"
        "and no consume was ever over-admitted.",
        opts);
  }

  std::puts("");
  bench::section("Table F2: live weight re-division with a grant in flight");
  {
    util::Table table({"parent backend", "limit 0", "overage",
                       "parent drain", "ok"});
    for (const svc::BackendKind kind : svc::kAllBackendKinds) {
      const std::string name = svc::backend_kind_name(kind);
      const auto r = run_reweigh_cell(kind);
      table.add_row(
          {name,
           util::fmt_int(static_cast<std::int64_t>(r.limit_before)) + "->" +
               util::fmt_int(static_cast<std::int64_t>(r.limit_after)),
           util::fmt_int(static_cast<std::int64_t>(r.overage)),
           util::fmt_int(static_cast<std::int64_t>(r.parent_drained)) +
               "/100",
           r.ok ? "yes" : "NO"});
      bench::check("F:reweigh[" + name + "]", r.ok, opts);
    }
    bench::emit(table, opts);
    bench::note(
        "\nweights {1,1} -> {1,9} while tenant 0 holds 40 of its old\n"
        "50-limit: the 30 above the new limit is overage (kept, not\n"
        "clawed back), the sibling's 90-limit binds immediately, and the\n"
        "release is the exact undo recorded in the grant.",
        opts);
  }

  std::puts("");
  bench::section("Table F': staged commit protocol on simulated cores");
  {
    util::Table table({"backend", "target", "staged", "commit", "migrated",
                       "chunk", "ver", "conserved"});
    bool all_conserved = true;
    for (const svc::BackendKind kind : svc::kAllBackendKinds) {
      sim::ReconfigSimConfig cfg = sim::reconfig_sim_reference_config();
      cfg.spec_to = sim::reconfig_respec_target(kind);
      const auto r = sim::simulate_reconfig(kind, cfg);
      all_conserved = all_conserved && r.conserved &&
                      r.config_version == 2 && r.migrated_tokens > 0;
      table.add_row(
          {svc::backend_kind_name(kind), svc::backend_spec_name(cfg.spec_to),
           util::fmt_double(r.respec_staged_time, 1),
           util::fmt_double(r.respec_commit_time, 2),
           util::fmt_int(static_cast<std::int64_t>(r.migrated_tokens)),
           util::fmt_int(static_cast<std::int64_t>(r.staged_chunk)),
           util::fmt_int(static_cast<std::int64_t>(r.config_version)),
           r.conserved ? "yes" : "NO"});
    }
    bench::emit(table, opts);
    bench::note(
        "\nthe stage publishes at t=300 and the commit fires at the exact\n"
        "instant the last in-flight old-stack op drains — deterministic\n"
        "from the seed; the commit instants are pinned golden in\n"
        "test_multicore_sim.",
        opts);
    bench::check("reconfig_sim_conservation", all_conserved, opts);

    constexpr auto headline = svc::BackendKind::kBatchedNetwork;
    sim::ReconfigSimConfig cfg = sim::reconfig_sim_reference_config();
    cfg.spec_to = sim::reconfig_respec_target(headline);
    const auto first = sim::simulate_reconfig(headline, cfg);
    const auto again = sim::simulate_reconfig(headline, cfg);
    const bool identical =
        first.makespan == again.makespan &&
        first.consumed == again.consumed &&
        first.rejected == again.rejected &&
        first.refilled == again.refilled &&
        first.respec_staged_time == again.respec_staged_time &&
        first.respec_commit_time == again.respec_commit_time &&
        first.migrated_tokens == again.migrated_tokens &&
        first.old_stalls == again.old_stalls &&
        first.new_stalls == again.new_stalls &&
        first.final_pool == again.final_pool;
    bench::check("reconfig_sim_determinism", identical, opts);
  }

  return bench::finish(opts);
}
