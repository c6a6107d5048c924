// svc::OverloadManager: the pluggable monitor registry, the hysteretic
// tier ladder and its recorded history, the governed shed/restore cycle
// over a QuotaHierarchy, and the degrade-partial hooks in the admission
// path — sequentially and under concurrent evaluators and tenant threads
// (the TSan concurrency label covers the evaluate() claim, the published
// tier/pressure, and the shed flags racing live acquires).
#include "cnet/svc/overload.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "cnet/svc/admission.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/quota.hpp"

namespace cnet::svc {
namespace {

// Registers a gauge the test scripts and returns the raw pointer (the
// manager owns it).
GaugeMonitor* add_gauge(OverloadManager& mgr, const std::string& name,
                        std::uint64_t capacity) {
  auto gauge = std::make_unique<GaugeMonitor>(name, capacity);
  GaugeMonitor* raw = gauge.get();
  mgr.add_monitor(std::move(gauge));
  return raw;
}

std::uint64_t drain(NetTokenBucket& bucket) {
  std::uint64_t total = 0;
  while (bucket.consume(0, 1, kPartialOk) == 1) ++total;
  return total;
}

TEST(OverloadManager, StartsNominalAndIdleStaysNominal) {
  OverloadManager mgr;
  EXPECT_EQ(mgr.tier(), OverloadTier::kNominal);
  EXPECT_EQ(mgr.evaluate(), OverloadTier::kNominal);  // no monitors: 0
  EXPECT_EQ(mgr.pressure(), 0.0);
  EXPECT_TRUE(mgr.history().empty());
  EXPECT_FALSE(mgr.actions().degrade_to_partial);
}

TEST(OverloadManager, DuplicateMonitorNameThrows) {
  OverloadManager mgr;
  add_gauge(mgr, "depth", 10);
  EXPECT_THROW(add_gauge(mgr, "depth", 99), std::exception);
  EXPECT_EQ(mgr.num_monitors(), 1u);  // the rejected monitor was not kept
}

TEST(OverloadManager, TierFollowsTheHystereticLadder) {
  OverloadManager mgr;
  GaugeMonitor* gauge = add_gauge(mgr, "script", 100);

  gauge->set(97);
  EXPECT_EQ(mgr.evaluate(), OverloadTier::kShedTenants);  // immediate jump
  EXPECT_DOUBLE_EQ(mgr.pressure(), 0.97);
  gauge->set(90);  // inside tier 3's hysteresis band: held
  EXPECT_EQ(mgr.evaluate(), OverloadTier::kShedTenants);
  gauge->set(80);  // released; tier 2 still holds (> 0.75)
  EXPECT_EQ(mgr.evaluate(), OverloadTier::kDegradePartial);
  gauge->set(5);
  EXPECT_EQ(mgr.evaluate(), OverloadTier::kNominal);

  const auto history = mgr.history();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].from, OverloadTier::kNominal);
  EXPECT_EQ(history[0].to, OverloadTier::kShedTenants);
  EXPECT_EQ(history[0].sample_seq, 1u);
  EXPECT_EQ(history[1].to, OverloadTier::kDegradePartial);
  EXPECT_EQ(history[1].sample_seq, 3u);  // the held sample is not a change
  EXPECT_EQ(history[2].to, OverloadTier::kNominal);
}

TEST(OverloadManager, CombinesMonitorsByWorstReading) {
  OverloadManager mgr;
  GaugeMonitor* low = add_gauge(mgr, "low", 100);
  GaugeMonitor* high = add_gauge(mgr, "high", 100);
  low->set(20);
  high->set(75);
  EXPECT_EQ(mgr.evaluate(), OverloadTier::kShrinkBatch);
  EXPECT_DOUBLE_EQ(mgr.pressure(), 0.75);  // max, not mean
  EXPECT_DOUBLE_EQ(mgr.pressure_of("low"), 0.20);
  EXPECT_DOUBLE_EQ(mgr.pressure_of("high"), 0.75);
  EXPECT_THROW(mgr.pressure_of("missing"), std::exception);
}

TEST(OverloadManager, WindowedMonitorClampsStaleTotalsToAnEmptyWindow) {
  // Totals read from concurrently-written slots can be momentarily stale;
  // a backwards delta must read as an empty window (pressure 0), never an
  // underflowed one.
  std::uint64_t ops = 100, events = 50;
  WindowedRateMonitor mon(
      "stale", [&] { return ops; }, [&] { return events; },
      /*saturation_rate=*/1.0);
  // Construction primed the baselines at 100/50, so the first sample's
  // window is what happened *since then* — nothing yet.
  EXPECT_DOUBLE_EQ(mon.sample_pressure(), 0.0);
  ops = 90;  // stale re-read below the watermark
  events = 60;
  EXPECT_EQ(mon.sample_pressure(), 0.0);
  ops = 110;  // recovered: the watermarks never moved backwards
  events = 65;
  EXPECT_DOUBLE_EQ(mon.sample_pressure(), 0.5);  // 5 events / 10 ops
}

TEST(OverloadManager, WindowedMonitorFirstSampleExcludesPreAttachHistory) {
  // Regression: the monitor used to start its baselines at zero, so the
  // first sample read the *lifetime* totals as one window. Attaching a
  // monitor to a bucket with a long, stall-heavy past then reported
  // saturation pressure for activity that predated the monitor — one
  // spurious degrade/shed tier entry at attach time.
  std::uint64_t ops = 1'000'000, events = 900'000;  // heavy pre-attach past
  WindowedRateMonitor mon(
      "late-attach", [&] { return ops; }, [&] { return events; },
      /*saturation_rate=*/1.0);
  EXPECT_DOUBLE_EQ(mon.sample_pressure(), 0.0);  // history is not a window
  ops += 100;  // quiet period after attach: 100 ops, 1 event
  events += 1;
  EXPECT_DOUBLE_EQ(mon.sample_pressure(), 0.01);
}

TEST(OverloadManager, GaugeWithZeroCapacityReportsBinaryPressure) {
  // Capacity 0 is legal (a reweigh can zero a tenant's budget): any
  // occupancy saturates the gauge, idle stays idle.
  GaugeMonitor mon("zero-cap", 0);
  EXPECT_EQ(mon.sample_pressure(), 0.0);
  mon.set(1);
  EXPECT_EQ(mon.sample_pressure(), 1.0);
  mon.set(0);
  EXPECT_EQ(mon.sample_pressure(), 0.0);
}

TEST(OverloadManager, GovernedShedAndRestoreFollowTheTier) {
  QuotaHierarchy::Config cfg;
  cfg.parent = BackendKind::kCentralAtomic;
  cfg.parent_initial_tokens = 8;
  cfg.borrow_budget = 8;
  QuotaHierarchy quota(cfg, {{.initial_tokens = 2, .weight = 4},
                             {.initial_tokens = 2, .weight = 2},
                             {.initial_tokens = 2, .weight = 1},
                             {.initial_tokens = 2, .weight = 1}});
  OverloadManager mgr;
  GaugeMonitor* gauge = add_gauge(mgr, "script", 100);
  mgr.govern(quota);

  // A held grant survives being shed — release keeps working after.
  const auto held = quota.acquire(0, 2, 1);
  ASSERT_TRUE(held.admitted);

  gauge->set(97);
  EXPECT_EQ(mgr.evaluate(), OverloadTier::kShedTenants);
  EXPECT_EQ(mgr.shed_tenants(), (std::vector<std::size_t>{2, 3}));
  EXPECT_TRUE(quota.is_shed(2));
  EXPECT_TRUE(quota.is_shed(3));
  EXPECT_FALSE(quota.is_shed(0));
  EXPECT_FALSE(quota.acquire(0, 3, 1).admitted);  // shed: reject up front
  const auto alive = quota.acquire(0, 0, 1);
  EXPECT_TRUE(alive.admitted);  // unshed tenants are untouched
  quota.release(0, alive);

  gauge->set(5);
  EXPECT_EQ(mgr.evaluate(), OverloadTier::kNominal);
  EXPECT_TRUE(mgr.shed_tenants().empty());
  EXPECT_FALSE(quota.is_shed(2));
  EXPECT_FALSE(quota.is_shed(3));
  const auto back = quota.acquire(0, 3, 1);
  EXPECT_TRUE(back.admitted);
  quota.release(0, back);
  quota.release(0, held);

  // The full cycle conserved exactly.
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(drain(quota.child(t)), 2u) << "tenant " << t;
    EXPECT_EQ(quota.borrowed(t), 0u) << "tenant " << t;
  }
  EXPECT_EQ(drain(quota.parent()), 8u);
}

TEST(OverloadManager, DegradePartialFlowsThroughAdmissionAndQuota) {
  OverloadManager mgr;
  GaugeMonitor* gauge = add_gauge(mgr, "script", 100);

  AdmissionConfig acfg;
  acfg.backend = BackendKind::kCentralAtomic;
  acfg.bucket.initial_tokens = 3;
  AdmissionController admission(acfg);
  admission.attach_overload(&mgr);

  QuotaHierarchy::Config qcfg;
  qcfg.parent = BackendKind::kCentralAtomic;
  qcfg.parent_initial_tokens = 1;  // smaller than the borrow cap
  qcfg.borrow_budget = 4;
  QuotaHierarchy quota(qcfg, {{.initial_tokens = 2, .weight = 1}});
  quota.attach_overload(&mgr);

  // Nominal: all-or-nothing everywhere.
  EXPECT_FALSE(admission.admit(0, 8).admitted);
  EXPECT_FALSE(quota.acquire(0, 0, 7).admitted);

  gauge->set(88);
  ASSERT_EQ(mgr.evaluate(), OverloadTier::kDegradePartial);
  const auto ticket = admission.admit(0, 8);
  EXPECT_TRUE(ticket.admitted);
  EXPECT_EQ(ticket.charged, 3u);  // the whole short pool, exactly
  // Shortfall 3 reserves in full (the reservation stays all-or-nothing
  // even under degrade) but the parent pool holds only 1.
  const auto grant = quota.acquire(0, 0, 5);
  EXPECT_TRUE(grant.admitted);
  EXPECT_EQ(grant.from_child, 2u);
  EXPECT_EQ(grant.from_parent, 1u);  // capped by the short parent pool
  EXPECT_EQ(quota.borrowed(0), 1u);  // excess reservation returned

  // Exact undo through the refund paths.
  admission.bucket().refund(0, ticket.charged);
  quota.release(0, grant);
  EXPECT_EQ(drain(admission.bucket()), 3u);
  EXPECT_EQ(drain(quota.child(0)), 2u);
  EXPECT_EQ(drain(quota.parent()), 1u);
}

TEST(OverloadManager, ConcurrentEvaluatorsAndTenantsStayConserved) {
  // Four tenant threads churn acquire/hold/release while two evaluator
  // threads replay a pressure ramp that repeatedly crosses the shed tier.
  // The claim in evaluate() serializes transitions, shed flags race the
  // acquires benignly (reject-or-admit, never corrupt), and the ledger
  // must balance exactly once everything quiesces.
  QuotaHierarchy::Config cfg;
  cfg.parent = BackendKind::kBatchedNetwork;
  cfg.parent_initial_tokens = 24;
  cfg.borrow_budget = 16;
  QuotaHierarchy quota(cfg, {{.initial_tokens = 4, .weight = 4},
                             {.initial_tokens = 4, .weight = 2},
                             {.initial_tokens = 4, .weight = 1},
                             {.initial_tokens = 4, .weight = 1}});
  OverloadManager mgr;
  GaugeMonitor* gauge = add_gauge(mgr, "ramp", 100);
  mgr.add_monitor(std::make_unique<BorrowPressureMonitor>(quota));
  mgr.govern(quota);

  constexpr int kOpsPerThread = 2000;
  std::atomic<std::uint64_t> admitted{0}, rejected{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      QuotaHierarchy::Grant held;
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (held.admitted) {
          quota.release(t, held);
          held = {};
        }
        const auto grant = quota.acquire(t, t, 1 + (i % 3));
        if (grant.admitted) {
          ++admitted;
          held = grant;
        } else {
          ++rejected;
        }
      }
      if (held.admitted) quota.release(t, held);
    });
  }
  for (int e = 0; e < 2; ++e) {
    threads.emplace_back([&] {
      const std::uint64_t ramp[] = {10, 60, 80, 97, 90, 70, 30, 5};
      for (int round = 0; round < 200; ++round) {
        gauge->set(ramp[round % 8]);
        mgr.evaluate();
        std::this_thread::yield();
      }
    });
  }
  for (auto& th : threads) th.join();

  // Park the manager back at nominal so every tenant is restored.
  gauge->set(0);
  mgr.evaluate();
  EXPECT_EQ(mgr.tier(), OverloadTier::kNominal);
  EXPECT_TRUE(mgr.shed_tenants().empty());
  EXPECT_GT(admitted.load(), 0u);

  // Conservation is level-local even across shed/restore cycles: a
  // release under shed still refunds each part to its own level, so at
  // quiescence every pool is back at exactly its initial count.
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_FALSE(quota.is_shed(t)) << "tenant " << t;
    EXPECT_EQ(quota.borrowed(t), 0u) << "tenant " << t;
    EXPECT_EQ(drain(quota.child(t)), 4u) << "tenant " << t;
  }
  EXPECT_EQ(drain(quota.parent()), 24u);
}

TEST(OverloadManager, ConcurrentRegistrationRacesEvaluateSafely) {
  // Regression: add_monitor used to push into the registry *outside* the
  // mutex, so an evaluate() sampling on another thread could walk
  // monitors_ mid-reallocation. Registration now mutates the registry
  // under the same lock the sampler iterates it under (the thread-safety
  // annotations on OverloadManager are what surfaced this); this hammer
  // races the two so the TSan leg of CI would catch any regression.
  OverloadManager mgr;
  GaugeMonitor* seed = add_gauge(mgr, "seed", 100);
  seed->set(25);
  constexpr int kRegistrations = 200;
  std::atomic<bool> done{false};
  std::thread registrar([&] {
    for (int i = 0; i < kRegistrations; ++i) {
      add_gauge(mgr, "g" + std::to_string(i), 100)->set(50);
    }
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) {
    mgr.evaluate();
    EXPECT_GE(mgr.pressure_of("seed"), 0.0);
    EXPECT_GE(mgr.num_monitors(), 1u);
  }
  registrar.join();

  mgr.evaluate();
  EXPECT_EQ(mgr.num_monitors(),
            static_cast<std::size_t>(kRegistrations) + 1);
  EXPECT_DOUBLE_EQ(mgr.pressure_of("seed"), 0.25);
  EXPECT_DOUBLE_EQ(
      mgr.pressure_of("g" + std::to_string(kRegistrations - 1)), 0.5);
}

}  // namespace
}  // namespace cnet::svc
