#include "cnet/sim/multicore.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cnet/core/counting.hpp"
#include "cnet/dist/policy.hpp"
#include "cnet/dist/topology.hpp"
#include "cnet/sim/discrete_event.hpp"
#include "cnet/svc/policy.hpp"
#include "cnet/util/ensure.hpp"
#include "cnet/util/prng.hpp"
#include "cnet/util/stats.hpp"

namespace cnet::sim {

namespace {

using des::Done;
using des::Engine;
using des::ServiceDraw;
using DoneN = std::function<void(std::uint64_t)>;

// ------------------------------------------------------------- model base

// Virtual-time counterpart of rt::Counter's pool semantics: increments
// deposit tokens, decrements claim up to n bounded at zero, and both
// complete at a later virtual time determined by the backend's servers.
class CounterModel {
 public:
  virtual ~CounterModel() = default;

  virtual void increment_n(std::size_t core, std::uint64_t k, Done done) = 0;
  virtual void try_decrement_n(std::size_t core, std::uint64_t n,
                               DoneN done) = 0;

  virtual std::uint64_t stalls() const = 0;
  virtual std::int64_t pool() const = 0;
  virtual bool pool_ever_negative() const = 0;

  // Instantaneous pool bookkeeping: the initial fill, a deposit landing,
  // and the exact migration at a respec commit.
  virtual std::uint64_t drain_pool_now() = 0;
  virtual void inject_pool_now(std::uint64_t k) = 0;
};

// Shared pool ledger: claims clamp at zero, so a negative balance is a
// model bug, not a workload outcome — tracked and surfaced as a check.
class PoolBase : public CounterModel {
 public:
  std::int64_t pool() const override { return pool_; }
  bool pool_ever_negative() const override { return ever_negative_; }

  std::uint64_t drain_pool_now() override {
    const auto moved = static_cast<std::uint64_t>(std::max<std::int64_t>(
        pool_, 0));
    pool_ = 0;
    return moved;
  }
  void inject_pool_now(std::uint64_t k) override {
    pool_ += static_cast<std::int64_t>(k);
  }

 protected:
  std::uint64_t claim(std::uint64_t n) {
    if (pool_ < 0) ever_negative_ = true;
    const auto avail =
        static_cast<std::uint64_t>(std::max<std::int64_t>(pool_, 0));
    const std::uint64_t got = std::min(n, avail);
    pool_ -= static_cast<std::int64_t>(got);
    return got;
  }

 private:
  std::int64_t pool_ = 0;
  bool ever_negative_ = false;
};

// ---------------------------------------------------------- central model

// The central word as a single FIFO server. Service time scales with the
// number of requests already in the system: every additional sharer adds a
// coherence hop before the RMW lands (for CAS kinds the slope is steeper —
// failed attempts resubmit). Each arrival that finds requests ahead of it
// is a stall event, the virtual analogue of Counter::stall_count.
class CentralModel final : public PoolBase {
 public:
  CentralModel(Engine& eng, double slope, ServiceDraw draw)
      : eng_(eng), slope_(slope), draw_(draw) {}

  void increment_n(std::size_t, std::uint64_t k, Done done) override {
    // A batch of k is k successive RMWs holding the line.
    const double t = schedule_rmw(static_cast<double>(k));
    eng_.at(t, [this, k, done = std::move(done)] {
      --pending_;
      inject_pool_now(k);
      done();
    });
  }

  void try_decrement_n(std::size_t, std::uint64_t n, DoneN done) override {
    if (pool() <= 0) {
      // Read-only miss, the atomic/CAS bounded-decrement contract: on an
      // observably empty pool the real loop exits after a plain load — a
      // shared cache read that never takes exclusive line ownership — so it
      // neither queues behind the RMW stream nor counts as a stall. One
      // uncontended service draw, in parallel with the server; the op
      // linearizes at its first load, which observed the empty pool, so it
      // conclusively returns 0.
      eng_.at(eng_.now() + draw_(),
              [done = std::move(done)] { done(0); });
      return;
    }
    // One bounded CAS claims the whole remainder (rt::AtomicCounter /
    // CasCounter take the bulk path in a single word-sized claim).
    const double t = schedule_rmw(1.0);
    eng_.at(t, [this, n, done = std::move(done)] {
      --pending_;
      done(claim(n));
    });
  }

  std::uint64_t stalls() const override { return stalls_; }

 private:
  double schedule_rmw(double units) {
    stalls_ += pending_;  // every request ahead of us is a coherence stall
    const double start = std::max(eng_.now(), free_);
    // draw_() carries the kind's mean RMW time; the slope term lengthens it
    // by a fraction per request already contending for the line.
    const double service =
        units * draw_() * (1.0 + slope_ * static_cast<double>(pending_));
    ++pending_;
    free_ = start + service;
    return free_;
  }

  Engine& eng_;
  double slope_;
  ServiceDraw draw_;
  std::uint64_t pending_ = 0;  // requests queued or in service
  double free_ = 0.0;          // time the server next goes idle
  std::uint64_t stalls_ = 0;
};

// ---------------------------------------------------------- network model

// The counting network as des::BalancerServers behind the CounterModel
// interface: tokens (increments) and antitokens (bounded decrements)
// traverse the shared per-balancer FIFO servers. A traversal carries a
// payload of up to batch_k tokens, which is the batched backend's whole
// advantage.
class NetworkModel final : public PoolBase {
 public:
  NetworkModel(Engine& eng, const topo::Topology& net, double wire_delay,
               std::size_t batch_k, ServiceDraw draw)
      : eng_(eng), batch_k_(batch_k), servers_(eng, net, wire_delay, draw) {}

  void increment_n(std::size_t core, std::uint64_t k, Done done) override {
    if (k == 0) {
      eng_.at(eng_.now(), std::move(done));
      return;
    }
    const auto chunk = static_cast<std::uint64_t>(
        std::min<std::uint64_t>(k, batch_k_));
    // Sequential chunked traversals: the issuing core's thread walks the
    // network once per chunk, exactly like the real batch loop.
    servers_.inject(core,
                    [this, core, k, chunk, done = std::move(done)]() mutable {
                      inject_pool_now(chunk);
                      increment_n(core, k - chunk, std::move(done));
                    });
  }

  void try_decrement_n(std::size_t core, std::uint64_t n,
                       DoneN done) override {
    // One antitoken traversal; the claim happens at the exit cell, bounded
    // by what the pool holds at that instant.
    servers_.inject(core,
                    [this, n, done = std::move(done)] { done(claim(n)); });
  }

  std::uint64_t stalls() const override { return servers_.stalls(); }

 private:
  Engine& eng_;
  std::size_t batch_k_;
  des::BalancerServers servers_;
};

// ------------------------------------------------------------- model pool

// Every core must have completed its loop: the event queue drains only
// when no completion is pending.
void ensure_finished(const std::vector<std::size_t>& ops_done,
                     std::size_t ops_per_core) {
  for (const std::size_t done : ops_done) {
    CNET_ENSURE(done == ops_per_core, "simulated core finished early");
  }
}

// Every driver builds its pools here, so the model knobs are validated
// once, here: a zero batch_k deposits empty chunks forever.
std::unique_ptr<CounterModel> make_model(svc::BackendKind kind, Engine& eng,
                                         const ModelConfig& cfg,
                                         util::Xoshiro256& rng) {
  CNET_REQUIRE(cfg.batch_k >= 1, "batch_k must be positive");
  CNET_REQUIRE(cfg.wire_delay >= 0.0, "wire delay must be nonnegative");
  const auto draw = [&](double mean) {
    return ServiceDraw(mean, cfg.exponential_service, rng);
  };
  switch (kind) {
    case svc::BackendKind::kCentralAtomic:
      return std::make_unique<CentralModel>(eng, cfg.central_slope,
                                            draw(cfg.central_service));
    case svc::BackendKind::kCentralCas:
      return std::make_unique<CentralModel>(eng, cfg.cas_slope,
                                            draw(cfg.central_service));
    case svc::BackendKind::kBatchedNetwork:
      return std::make_unique<NetworkModel>(
          eng, core::make_counting(cfg.net.width_in, cfg.net.width_out),
          cfg.wire_delay, cfg.batch_k, draw(cfg.balancer_service));
  }
  CNET_REQUIRE(false, "unknown backend kind");
  return nullptr;
}

// ----------------------------------------------------- Table B closed loop

// simulate_reconfig's staged respec: what to publish, and its trace.
struct Stage {
  const ReconfigSimConfig& cfg;
  ReconfigSimResult& res;  // res.staged_chunk is the re-divided batch chunk
};

// The Table B workload, one closed loop per core: consume(1) through the
// shared svc::bucket_consume plan, a bulk refill every refill_every
// consumes, think_time between ops. With a stage, a full replacement stack
// publishes at the stage instant (the RCU publish): every op issued from
// then on routes to it, while ops already in flight on the old stack
// drain. The commit fires at the exact instant the last of them completes
// (the event-driven mirror of the engine's reader-quiescence wait) and
// migrates the old pool's remainder in one exact transfer. Without a stage
// every op runs on the one stack.
MulticoreResult run_table_b(const svc::BackendSpec& spec,
                            const MulticoreConfig& cfg, Stage* stage) {
  CNET_REQUIRE(cfg.cores >= 1, "need at least one simulated core");
  CNET_REQUIRE(cfg.ops_per_core >= 1, "need at least one op per core");
  CNET_REQUIRE(cfg.refill_every >= 1, "refill cadence must be positive");
  CNET_REQUIRE(cfg.think_time >= 0.0, "delays must be nonnegative");

  Engine eng;
  util::Xoshiro256 rng(cfg.seed);
  std::unique_ptr<CounterModel> old_pool = make_model(spec.kind, eng, cfg, rng);
  // Built off to the side at the stage instant.
  std::unique_ptr<CounterModel> new_pool;

  MulticoreResult res;
  res.initial_tokens = cfg.initial_tokens_per_core * cfg.cores;
  old_pool->inject_pool_now(res.initial_tokens);

  // The RCU mirror: `active` is the published pointer new ops load at
  // issue; ops already in flight on the old stack are the reader sections
  // the commit must wait out. outstanding_old counts them exactly.
  CounterModel* active = old_pool.get();
  std::uint64_t outstanding_old = 0;
  bool staged = false;
  bool committed = false;

  const auto maybe_commit = [&] {
    if (!staged || committed || outstanding_old != 0) return;
    // Quiescence: no in-flight op can touch the old stack again, so its
    // remaining count is well-defined — the paper's §2.2 argument run in
    // reverse — and the migration is one exact instantaneous transfer.
    committed = true;
    stage->res.respec_commit_time = eng.now();
    stage->res.migrated_tokens = old_pool->drain_pool_now();
    new_pool->inject_pool_now(stage->res.migrated_tokens);
    stage->res.config_version = 2;
  };

  if (stage != nullptr) {
    eng.at(stage->cfg.respec_at, [&] {
      ModelConfig staged_cfg = static_cast<const ModelConfig&>(cfg);
      staged_cfg.batch_k = stage->res.staged_chunk;
      new_pool = make_model(stage->cfg.spec_to.kind, eng, staged_cfg, rng);
      active = new_pool.get();
      staged = true;
      stage->res.respec_staged_time = eng.now();
      maybe_commit();
    });
  }

  std::vector<std::size_t> ops_done(cfg.cores, 0);
  std::vector<std::size_t> since_refill(cfg.cores, 0);
  double makespan = 0.0;

  // Declared std::function for self-reference (each completion schedules
  // the core's next op). Each op's issue reads the published pointer, and
  // bumps the old stack's reader count while it still routes there.
  std::function<void(std::size_t)> step = [&](std::size_t c) {
    if (ops_done[c] == cfg.ops_per_core) return;
    const bool on_old = !staged;  // active flips exactly at the stage event
    if (on_old) ++outstanding_old;
    // consume(1): the single-token plan degenerates to one bounded claim —
    // run through bucket_consume so the simulator exercises the identical
    // policy the real NetTokenBucket does.
    active->try_decrement_n(c, 1, [&, c, on_old](std::uint64_t got) {
      if (on_old) --outstanding_old;
      const std::uint64_t granted = svc::bucket_consume(
          1, svc::kPartialOk,
          [got](std::uint64_t) mutable {
            return std::exchange(got, std::uint64_t{0});
          },
          [](std::uint64_t) {});
      ++res.consume_ops;
      ++ops_done[c];
      res.consumed += granted;
      if (granted == 0) ++res.rejected;
      makespan = std::max(makespan, eng.now());
      maybe_commit();  // this may have been the last old-stack reader
      const bool refill_due = ++since_refill[c] == cfg.refill_every;
      if (refill_due) since_refill[c] = 0;
      const double next_at = eng.now() + cfg.think_time;
      if (!refill_due) {
        eng.at(next_at, [&, c] { step(c); });
        return;
      }
      const bool refill_on_old = !staged;
      if (refill_on_old) ++outstanding_old;
      active->increment_n(c, cfg.refill_every, [&, c, refill_on_old,
                                                next_at] {
        if (refill_on_old) --outstanding_old;
        res.refilled += cfg.refill_every;
        makespan = std::max(makespan, eng.now());
        maybe_commit();
        eng.at(std::max(next_at, eng.now()), [&, c] { step(c); });
      });
    });
  };

  for (std::size_t c = 0; c < cfg.cores; ++c) step(c);
  eng.run();

  res.makespan = makespan;
  res.ops_per_vtime =
      static_cast<double>(res.consume_ops) / std::max(makespan, 1e-12);
  const CounterModel& old_root = *old_pool;
  const CounterModel* new_root = new_pool.get();
  const std::uint64_t new_stalls = new_root != nullptr ? new_root->stalls() : 0;
  res.stall_events = old_root.stalls() + new_stalls;
  res.final_pool =
      old_root.pool() + (new_root != nullptr ? new_root->pool() : 0);
  const bool never_negative =
      !old_root.pool_ever_negative() &&
      (new_root == nullptr || !new_root->pool_ever_negative());
  res.conserved =
      never_negative && res.final_pool >= 0 &&
      (!committed || old_root.pool() == 0) &&  // the retired pool stays drained
      res.consumed + static_cast<std::uint64_t>(res.final_pool) ==
          res.refilled + res.initial_tokens;
  if (stage != nullptr) {
    stage->res.old_stalls = old_root.stalls();
    stage->res.new_stalls = new_stalls;
  }

  ensure_finished(ops_done, cfg.ops_per_core);
  return res;
}

// ------------------------------------------------------------ tenant loop

// simulate_overload's manager: its knobs, and its trace.
struct Manager {
  const OverloadSimConfig& cfg;
  OverloadSimResult& res;
};

// The tenant workload: each core, pinned to a tenant, runs acquire → hold
// → release against its tenant's child pool and the shared parent pool.
// The acquire flow is svc::quota_acquire's rule set driven in
// continuation-passing form: the child take, the borrow_allowance
// reservation, the parent take, and a quota_settle that either keeps both
// parts or refunds each to its own level. With a manager attached (the
// mirror of QuotaHierarchy::attach_overload) cores enter staggered and a
// periodic sampler plays OverloadManager::evaluate, whose tier the loop
// reads at its decision points; without one the tier stays nominal.
QuotaSimResult run_tenants(const svc::BackendSpec& parent_spec,
                           const QuotaSimConfig& cfg, Manager* mgr) {
  CNET_REQUIRE(cfg.cores >= 1, "need at least one simulated core");
  CNET_REQUIRE(cfg.tenants >= 1, "need at least one tenant");
  CNET_REQUIRE(cfg.hot_tenants <= cfg.tenants,
               "hot tenants cannot exceed tenants");
  // The hot-core count is a double -> size_t cast: outside [0, 1] it is
  // undefined behaviour, not a skew.
  CNET_REQUIRE(cfg.hot_core_share >= 0.0 && cfg.hot_core_share <= 1.0,
               "hot_core_share must be in [0, 1]");
  CNET_REQUIRE(cfg.ops_per_core >= 1, "need at least one op per core");
  CNET_REQUIRE(cfg.acquire_cost >= 1, "acquire cost must be positive");
  CNET_REQUIRE(cfg.hot_weight > 0 && cfg.cold_weight > 0,
               "weights must be positive");
  CNET_REQUIRE(cfg.hold_time >= 0.0 && cfg.think_time >= 0.0,
               "delays must be nonnegative");

  Engine eng;
  util::Xoshiro256 rng(cfg.base.seed);
  const std::unique_ptr<CounterModel> parent_pool =
      make_model(parent_spec.kind, eng, cfg.base, rng);
  CounterModel& parent = *parent_pool;
  parent.inject_pool_now(cfg.parent_initial);

  // Per-tenant child pools: models of the real hierarchy's child backend
  // (svc::kLocalPoolKind) — cheap alone, and honestly a queue when many hot
  // cores share one tenant.
  std::vector<std::unique_ptr<CounterModel>> children;
  children.reserve(cfg.tenants);
  for (std::size_t t = 0; t < cfg.tenants; ++t) {
    children.push_back(
        make_model(svc::kLocalPoolKind, eng, cfg.base, rng));
    children.back()->inject_pool_now(cfg.child_initial);
  }

  // Core pinning: the first hot_core_share of the cores round-robin over
  // the hot tenants (every hot tenant gets at least one), the rest over the
  // cold ones.
  const std::size_t cold_tenants = cfg.tenants - cfg.hot_tenants;
  const auto share = static_cast<std::size_t>(
      static_cast<double>(cfg.cores) * cfg.hot_core_share + 0.5);
  std::size_t hot_cores = 0;
  if (cold_tenants == 0) {
    hot_cores = cfg.cores;
  } else if (cfg.hot_tenants > 0) {
    hot_cores = std::min(cfg.cores, std::max(share, cfg.hot_tenants));
  }
  std::vector<std::size_t> tenant_of(cfg.cores);
  for (std::size_t c = 0; c < cfg.cores; ++c) {
    tenant_of[c] = c < hot_cores
                       ? c % cfg.hot_tenants
                       : cfg.hot_tenants + (c - hot_cores) % cold_tenants;
  }

  // Weighted borrow limits, from the same shared rule the real hierarchy
  // applies at construction.
  const std::uint64_t total_weight =
      cfg.hot_tenants * cfg.hot_weight + cold_tenants * cfg.cold_weight;
  std::vector<std::uint64_t> weights(cfg.tenants);
  QuotaSimResult res;
  res.limit_per_tenant.resize(cfg.tenants);
  std::uint64_t total_limit = 0;
  for (std::size_t t = 0; t < cfg.tenants; ++t) {
    weights[t] = t < cfg.hot_tenants ? cfg.hot_weight : cfg.cold_weight;
    res.limit_per_tenant[t] =
        svc::weighted_borrow_limit(cfg.borrow_budget, weights[t],
                                   total_weight);
    total_limit += res.limit_per_tenant[t];
  }
  res.attempts_per_tenant.assign(cfg.tenants, 0);
  res.admitted_per_tenant.assign(cfg.tenants, 0);
  res.peak_borrowed_per_tenant.assign(cfg.tenants, 0);

  std::vector<std::uint64_t> borrowed(cfg.tenants, 0);
  bool cap_violated = false;
  std::vector<std::size_t> ops_done(cfg.cores, 0);
  std::size_t active_cores = cfg.cores;
  double makespan = 0.0;
  const auto touch = [&] { makespan = std::max(makespan, eng.now()); };

  // The tier in force and its action table, read by the loop at decision
  // points exactly as the real components read OverloadManager::actions().
  // Only a manager moves them off nominal.
  svc::OverloadTier tier = svc::OverloadTier::kNominal;
  svc::OverloadActions actions;  // defaults == nominal

  // Outstanding-grant registry for exact shed refunds. A grant is refunded
  // exactly once: either by its hold-expiry event or — if a shed sweep got
  // there first — by the force-refund, with the expiry finding `released`
  // set and doing nothing. (The engine cannot cancel scheduled events, so
  // the flag is the cancellation.) Deque: references stay valid across
  // push_back, which the in-flight continuations rely on.
  struct GrantRec {
    std::size_t tenant = 0;
    std::uint64_t from_child = 0;
    std::uint64_t from_parent = 0;
    bool released = false;
  };
  std::deque<GrantRec> grants;
  // Per-tenant indices of possibly-live grants, cleaned lazily (a shed
  // sweep skips entries whose grant was already released).
  std::vector<std::vector<std::size_t>> held(cfg.tenants);
  std::vector<char> shed_flag(cfg.tenants, 0);
  std::vector<std::size_t> currently_shed;

  // kShrinkBatch actuation: refunds return in chunks of
  // max(1, n / batch_divisor) — several short exclusive holds instead of
  // one bulk traversal. At divisor 1 (nominal) this is a single call. The
  // manager's loop takes one more same-instant hop after its last chunk;
  // without a manager `done` runs straight from the refund's completion.
  std::function<void(CounterModel*, std::size_t, std::uint64_t, Done)>
      refund = [&](CounterModel* model, std::size_t c, std::uint64_t n,
                   Done done) {
        if (n == 0) {
          if (mgr == nullptr) {
            done();
          } else {
            eng.at(eng.now(), std::move(done));
          }
          return;
        }
        const std::uint64_t k = std::min(
            n, std::max<std::uint64_t>(1, n / actions.batch_divisor));
        model->increment_n(
            c, k, [&, model, c, n, k, done = std::move(done)]() mutable {
              refund(model, c, n - k, std::move(done));
            });
      };

  // Returns one grant part to the level it came from, then runs `then`;
  // an empty part touches no pool.
  const auto give_back = [&](CounterModel* model, std::size_t c,
                             std::uint64_t n, Done then) {
    if (n == 0) {
      touch();
      then();
      return;
    }
    refund(model, c, n, [&, then = std::move(then)] {
      touch();
      then();
    });
  };

  // Refund a grant's parts to the level each came from: child first, then
  // parent pool, then the borrow headroom — the real release's ordering.
  const auto refund_grant = [&](std::size_t c, std::size_t idx, Done after) {
    const GrantRec g = grants[idx];  // parts are fixed at admit time
    give_back(children[g.tenant].get(), c, g.from_child,
              [&, c, g, after = std::move(after)] {
                give_back(&parent, c, g.from_parent, [&, g, after] {
                  borrowed[g.tenant] -= g.from_parent;
                  after();
                });
              });
  };

  std::function<void(std::size_t)> step;

  // Settlement through the shared rule, with the tier's degrade action
  // deciding partial_ok at the instant the takes complete — the same
  // point QuotaHierarchy::acquire reads OverloadManager::actions().
  const auto settle = [&](std::size_t c, std::size_t t,
                          std::uint64_t got_child, std::uint64_t got_parent,
                          std::uint64_t reserved) {
    touch();
    ++res.acquire_ops;
    ++res.attempts_per_tenant[t];
    ++ops_done[c];
    const svc::QuotaSettlement s = svc::quota_settle(
        cfg.acquire_cost, got_child, got_parent,
        actions.degrade_to_partial ? svc::kPartialOk : svc::kAllOrNothing);
    // The core's next attempt, think_time after the op finishes.
    const auto next = [&, c] {
      eng.at(eng.now() + cfg.think_time, [&, c] { step(c); });
    };
    if (s.admitted) {
      ++res.admitted;
      ++res.admitted_per_tenant[t];
      res.granted_child_tokens += got_child;
      res.granted_parent_tokens += got_parent;
      // Only the manager's degrade tier admits short.
      if (got_child + got_parent < cfg.acquire_cost) ++mgr->res.degraded_admits;
      // A degraded admit may hold a reservation larger than the parent
      // tokens it claimed; give the unused headroom back (quota_acquire's
      // partial-path unreserve) so outstanding borrow == from_parent.
      if (reserved > got_parent) borrowed[t] -= reserved - got_parent;
      const std::size_t idx = grants.size();
      grants.push_back({t, got_child, got_parent, false});
      held[t].push_back(idx);
      // Hold the grant, then release it; the next attempt follows the
      // release completion plus think time.
      eng.at(eng.now() + cfg.hold_time, [&, c, idx, next] {
        GrantRec& g = grants[idx];
        if (g.released) {  // force-refunded by a shed sweep meanwhile
          touch();
          next();
          return;
        }
        g.released = true;
        refund_grant(c, idx, next);
      });
      return;
    }
    ++res.rejected;
    ++(t < cfg.hot_tenants ? res.hot_rejected : res.cold_rejected);
    // Pool before headroom (quota_acquire's reject ordering): the
    // reservation is released only once the parent refund has landed; the
    // child part goes back last.
    const auto child_part = [&, c, t, got_child, reserved, next] {
      borrowed[t] -= reserved;
      give_back(children[t].get(), c, got_child, next);
    };
    give_back(&parent, c, s.refund_parent, child_part);
  };

  step = [&](std::size_t c) {
    if (ops_done[c] == cfg.ops_per_core) {
      --active_cores;
      return;
    }
    const std::size_t t = tenant_of[c];
    if (shed_flag[t] != 0) {
      // The shed fast path: rejected before any pool is touched, so there
      // is nothing to refund (QuotaHierarchy::acquire's shed check).
      ++mgr->res.shed_rejects;
      ++mgr->res.shed_rejects_per_tenant[t];
      ++ops_done[c];
      touch();
      eng.at(eng.now() + cfg.think_time, [&, c] { step(c); });
      return;
    }
    children[t]->try_decrement_n(
        c, cfg.acquire_cost, [&, c, t](std::uint64_t got_child) {
          if (got_child == cfg.acquire_cost) {
            settle(c, t, got_child, 0, 0);
            return;
          }
          const std::uint64_t shortfall = cfg.acquire_cost - got_child;
          const std::uint64_t reserved = svc::borrow_allowance(
              shortfall, borrowed[t], res.limit_per_tenant[t]);
          if (reserved < shortfall) {
            // Commit-only-if-full, like reserve_borrow; the degraded path
            // still settles partially off the child part alone.
            settle(c, t, got_child, 0, 0);
            return;
          }
          borrowed[t] += reserved;
          res.peak_borrowed_per_tenant[t] =
              std::max(res.peak_borrowed_per_tenant[t], borrowed[t]);
          if (borrowed[t] > res.limit_per_tenant[t]) cap_violated = true;
          parent.try_decrement_n(
              c, shortfall,
              [&, c, t, got_child, reserved](std::uint64_t got_parent) {
                settle(c, t, got_child, got_parent, reserved);
              });
        });
  };

  // A tier change takes effect here: the action table swaps, and
  // entering/leaving the shed tier runs the shed_set sweep / the restore —
  // the OverloadManager::apply_transition sequence in virtual time.
  const auto apply_transition = [&](svc::OverloadTier to, double pressure) {
    OverloadSimResult& out = mgr->res;
    out.transitions.push_back({eng.now(), tier, to, pressure});
    const bool was_shedding = actions.shed_tenants;
    tier = to;
    actions = svc::overload_actions(tier);
    if (tier > out.peak_tier) out.peak_tier = tier;
    if (actions.shed_tenants && !was_shedding) {
      ++out.shed_events;
      for (const std::size_t t :
           svc::shed_set(weights, mgr->cfg.shed_fraction)) {
        shed_flag[t] = 1;
        currently_shed.push_back(t);
        for (const std::size_t idx : held[t]) {
          GrantRec& g = grants[idx];
          if (g.released) continue;
          g.released = true;
          out.shed_refunded_tokens += g.from_child + g.from_parent;
          refund_grant(/*core=*/t, idx, [&] { touch(); });
        }
        held[t].clear();
      }
    } else if (!actions.shed_tenants && was_shedding) {
      ++out.restore_events;
      for (const std::size_t t : currently_shed) shed_flag[t] = 0;
      currently_shed.clear();
    }
  };

  // The manager's periodic evaluate(): window deltas over the driver's
  // counters feed the same three signals the real monitors produce — the
  // parent stall rate, the organic reject ratio (shed turn-aways are the
  // manager's own doing and never reach a bucket), and aggregate borrow
  // occupancy — through the same pure combining and tier rules. The
  // sampler keeps itself alive while cores run, then for at most
  // drain_samples more while the tier decays back to nominal.
  std::uint64_t last_ops = 0;
  std::uint64_t last_stalls = 0;
  std::uint64_t last_rejects = 0;
  std::size_t drain_budget = mgr != nullptr ? mgr->cfg.drain_samples : 0;
  std::function<void()> sample = [&] {
    const OverloadSimConfig& m = mgr->cfg;
    const std::uint64_t ops_now = res.acquire_ops + mgr->res.shed_rejects;
    const std::uint64_t stalls_now = parent.stalls();
    const std::uint64_t rejects_now = res.rejected;
    const svc::LoadWindow stall_win{ops_now - last_ops,
                                    stalls_now - last_stalls};
    const svc::LoadWindow reject_win{ops_now - last_ops,
                                     rejects_now - last_rejects};
    last_ops = ops_now;
    last_stalls = stalls_now;
    last_rejects = rejects_now;
    std::uint64_t borrowed_total = 0;
    for (std::size_t t = 0; t < cfg.tenants; ++t) borrowed_total += borrowed[t];
    const double pressure = svc::combine_pressure(
        {svc::window_pressure(stall_win, m.stall_saturation),
         svc::window_pressure(reject_win, 1.0),
         svc::occupancy_pressure(borrowed_total, total_limit)});
    const svc::OverloadTier to =
        svc::overload_tier(pressure, tier, m.thresholds);
    if (to != tier) apply_transition(to, pressure);
    if (active_cores > 0) {
      eng.at(eng.now() + m.sample_every, sample);
    } else if (tier != svc::OverloadTier::kNominal && drain_budget > 0) {
      --drain_budget;
      eng.at(eng.now() + m.sample_every, sample);
    }
  };

  for (std::size_t c = 0; c < cfg.cores; ++c) {
    if (mgr == nullptr) {
      step(c);
    } else {
      eng.at(static_cast<double>(c) * mgr->cfg.core_start_stagger,
             [&, c] { step(c); });
    }
  }
  if (mgr != nullptr) {
    mgr->res.shed_rejects_per_tenant.assign(cfg.tenants, 0);
    eng.at(mgr->cfg.sample_every, sample);
  }
  eng.run();

  res.makespan = makespan;
  res.ops_per_vtime =
      static_cast<double>(res.acquire_ops) / std::max(makespan, 1e-12);
  res.goodput_per_vtime =
      static_cast<double>(res.admitted) / std::max(makespan, 1e-12);
  res.parent_stalls = parent.stalls();
  for (const auto& child : children) res.child_stalls += child->stalls();

  // Exact quiescent ledger: every pool back at its initial count, no
  // outstanding borrow, no pool ever negative.
  res.conserved =
      !parent.pool_ever_negative() &&
      parent.pool() == static_cast<std::int64_t>(cfg.parent_initial);
  for (std::size_t t = 0; t < cfg.tenants; ++t) {
    res.conserved = res.conserved && !children[t]->pool_ever_negative() &&
                    children[t]->pool() ==
                        static_cast<std::int64_t>(cfg.child_initial) &&
                    borrowed[t] == 0;
  }
  res.isolation = !cap_violated && res.cold_rejected == 0;
  if (mgr != nullptr) {
    mgr->res.final_tier = tier;
    mgr->res.recovered =
        tier == svc::OverloadTier::kNominal && currently_shed.empty();
  }

  ensure_finished(ops_done, cfg.ops_per_core);
  return res;
}

}  // namespace

MulticoreResult simulate_multicore(const svc::BackendSpec& spec,
                                   const MulticoreConfig& cfg) {
  return run_table_b(spec, cfg, nullptr);
}

QuotaSimConfig quota_sim_reference_config(std::size_t cores) {
  QuotaSimConfig cfg;
  cfg.cores = cores;
  cfg.tenants = 8;
  cfg.hot_tenants = 1;
  cfg.hot_core_share = 0.75;
  cfg.ops_per_core = 512;
  cfg.base.exponential_service = true;
  cfg.base.seed = 0xB10C0DE;
  return cfg;
}

QuotaSimResult simulate_quota(const svc::BackendSpec& parent_spec,
                              const QuotaSimConfig& cfg) {
  return run_tenants(parent_spec, cfg, nullptr);
}

OverloadSimConfig overload_sim_reference_config() {
  OverloadSimConfig cfg;
  cfg.cores = 48;
  cfg.tenants = 8;
  cfg.ops_per_core = 192;
  cfg.acquire_cost = 2;
  cfg.child_initial = 3;
  cfg.parent_initial = 47;
  cfg.borrow_budget = 64;
  cfg.hold_time = 6.0;
  cfg.base.exponential_service = true;
  cfg.base.seed = 0xB10C0DE;
  return cfg;
}

OverloadSimResult simulate_overload(const svc::BackendSpec& parent_spec,
                                    const OverloadSimConfig& cfg) {
  CNET_REQUIRE(cfg.core_start_stagger >= 0.0, "delays must be nonnegative");
  CNET_REQUIRE(cfg.sample_every > 0.0, "sample cadence must be positive");
  CNET_REQUIRE(cfg.stall_saturation > 0.0,
               "stall saturation rate must be positive");
  CNET_REQUIRE(cfg.shed_fraction >= 0.0 && cfg.shed_fraction <= 1.0,
               "shed_fraction must be in [0, 1]");
  OverloadSimResult res;
  Manager mgr{cfg, res};
  const QuotaSimResult run = run_tenants(parent_spec, cfg, &mgr);
  res.makespan = run.makespan;
  res.attempts = run.acquire_ops + res.shed_rejects;
  res.admitted = run.admitted;
  res.rejected = run.rejected;
  res.conserved = run.conserved;

  const svc::OverloadThresholds& th = cfg.thresholds;
  res.hysteresis_respected = std::all_of(
      res.transitions.begin(), res.transitions.end(),
      [&](const OverloadSimTransition& tr) {
        const auto from = static_cast<std::size_t>(tr.from);
        const auto to = static_cast<std::size_t>(tr.to);
        if (to > from) return tr.pressure >= th.enter[to] - 1e-12;
        return tr.pressure <= th.enter[from] - th.hysteresis + 1e-12;
      });
  return res;
}

// --------------------------------------------------------------- reconfig

ReconfigSimConfig reconfig_sim_reference_config() {
  ReconfigSimConfig cfg;
  cfg.base.cores = 8;
  cfg.base.ops_per_core = 2048;
  cfg.base.refill_every = 128;
  cfg.base.initial_tokens_per_core = 64;
  cfg.base.exponential_service = true;
  cfg.base.seed = 0x5EC0AD;
  cfg.spec_to = svc::BackendKind::kCentralAtomic;
  cfg.respec_at = 300.0;
  cfg.rechunk_divisor = 4;
  return cfg;
}

svc::BackendSpec reconfig_respec_target(const svc::BackendSpec& spec_from) {
  return spec_from.kind == svc::BackendKind::kBatchedNetwork
             ? svc::BackendKind::kCentralAtomic
             : svc::BackendKind::kBatchedNetwork;
}

ReconfigSimResult simulate_reconfig(const svc::BackendSpec& spec_from,
                                    const ReconfigSimConfig& cfg) {
  CNET_REQUIRE(cfg.respec_at >= 0.0, "respec instant must be nonnegative");
  // The same staging rules the live NetTokenBucket::respec enforces: the
  // re-divided chunk is computed by the shared policy function and must be
  // a legal chunk before anything is built.
  const std::size_t staged_chunk =
      svc::divided_chunk(cfg.base.batch_k, cfg.rechunk_divisor);
  CNET_REQUIRE(svc::respec_safe(staged_chunk),
               "staged batch chunk out of range");

  ReconfigSimResult res;
  res.staged_chunk = staged_chunk;
  Stage stage{cfg, res};
  const MulticoreResult run = run_table_b(spec_from, cfg.base, &stage);
  res.makespan = run.makespan;
  res.consume_ops = run.consume_ops;
  res.consumed = run.consumed;
  res.rejected = run.rejected;
  res.refilled = run.refilled;
  res.initial_tokens = run.initial_tokens;
  res.final_pool = run.final_pool;
  res.conserved = run.conserved;
  return res;
}

ClusterSimConfig cluster_sim_reference_config(std::size_t nodes) {
  ClusterSimConfig cfg;
  CNET_REQUIRE(nodes >= 1, "need at least one node");
  // First half of the nodes in dc 0, second half in dc 1; within a dc,
  // adjacent node pairs share a rack — so almost every node has a
  // rack-mate to donate to, which is the whole locality story.
  const std::size_t per_dc = (nodes + 1) / 2;
  cfg.nodes.resize(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    cfg.nodes[i].dc = static_cast<std::uint32_t>(i / per_dc);
    cfg.nodes[i].rack = static_cast<std::uint32_t>((i % per_dc) / 2);
  }
  cfg.cores_per_node = 3;
  cfg.ops_per_core = 160;
  // Supply-healthy: each node's account + borrow share covers its demand,
  // so the admission tail measures *renewal locality*, not global
  // starvation (scarcity variants layer on top of this in bench_tab_dist).
  cfg.parent_initial = 2048;
  cfg.account_initial = 256;
  cfg.borrow_budget = 2048;
  cfg.local_initial = 64;
  cfg.lease_chunk = 96;
  cfg.lease_cap = 384;
  cfg.lease_ttl = 600.0;
  cfg.peer_reserve = 24;
  cfg.reconcile_chunk = 192;
  cfg.base.exponential_service = true;
  cfg.base.seed = 0xD157C0DE;
  return cfg;
}

ClusterSimResult simulate_cluster(const svc::BackendSpec& parent_spec,
                                  const ClusterSimConfig& cfg) {
  const std::size_t n = cfg.nodes.size();
  CNET_REQUIRE(n >= 1, "need at least one node");
  CNET_REQUIRE(cfg.cores_per_node >= 1, "need at least one core per node");
  CNET_REQUIRE(cfg.ops_per_core >= 1, "need at least one op per core");
  CNET_REQUIRE(cfg.lease_chunk >= 1 && cfg.lease_cap >= 1,
               "lease sizing must be positive");
  CNET_REQUIRE(cfg.reconcile_chunk >= 1, "reconcile chunk must be positive");
  CNET_REQUIRE(cfg.lease_ttl > 0.0, "lease TTL must be positive");
  CNET_REQUIRE(cfg.link_same_rack >= 0.0 && cfg.link_same_dc >= 0.0 &&
                   cfg.link_remote >= 0.0 && cfg.think_time >= 0.0,
               "delays must be nonnegative");
  for (const ClusterPartition& p : cfg.partitions) {
    CNET_REQUIRE(p.node < n, "partition names a node outside the topology");
    CNET_REQUIRE(p.end > p.start && p.start >= 0.0,
                 "partition window must be a nonempty [start, end)");
  }

  const dist::Topology topo(cfg.nodes);

  Engine eng;
  util::Xoshiro256 rng(cfg.base.seed);
  const std::unique_ptr<CounterModel> parent_pool =
      make_model(parent_spec.kind, eng, cfg.base, rng);
  CounterModel& parent = *parent_pool;

  ClusterSimResult res;
  res.initial_tokens =
      cfg.parent_initial +
      static_cast<std::uint64_t>(n) * (cfg.account_initial + cfg.local_initial);

  // In leased mode the hierarchy is real: parent pool + per-node lease
  // accounts at the coordinator, per-node local pools at the edge. In
  // central mode every token lives in the one global pool and every
  // admission round-trips to it — the baseline the locality claim beats.
  parent.inject_pool_now(cfg.leased ? cfg.parent_initial : res.initial_tokens);
  std::vector<std::int64_t> account(
      n, cfg.leased ? static_cast<std::int64_t>(cfg.account_initial) : 0);
  std::vector<std::int64_t> local(
      n, cfg.leased ? static_cast<std::int64_t>(cfg.local_initial) : 0);
  std::vector<std::uint64_t> borrowed(n, 0);
  const std::uint64_t borrow_limit =
      svc::weighted_borrow_limit(cfg.borrow_budget, 1, n);

  // The coordinator sits with node 0: each node owns one FIFO uplink whose
  // one-way latency follows its proximity to node 0, and peer RPCs occupy
  // the requester's link for the round trip. A busy link queues — which is
  // exactly how central counting loses.
  const auto link_of = [&](dist::Proximity p) {
    switch (p) {
      case dist::Proximity::kSelf:
      case dist::Proximity::kSameRack:
        return cfg.link_same_rack;
      case dist::Proximity::kSameDc:
        return cfg.link_same_dc;
      case dist::Proximity::kRemote:
        return cfg.link_remote;
    }
    return cfg.link_remote;
  };
  std::vector<double> link_free(n, 0.0);
  const auto occupy = [&](std::size_t node, double service) {
    const double start = std::max(eng.now(), link_free[node]);
    link_free[node] = start + service;
    return link_free[node];
  };
  const auto uplat = [&](std::size_t node) {
    return link_of(topo.proximity(node, 0));
  };

  struct SimLease {
    std::size_t tenant;  // the account its refund settles to
    std::uint64_t from_child;
    std::uint64_t from_parent;
    double expiry;
    bool settled;
  };
  // One expired lease's settlement at the coordinator: the account its
  // refund settles to, its parts, and the unspent tokens recovered.
  struct Expiry {
    std::size_t tenant;
    std::uint64_t from_child;
    std::uint64_t from_parent;
    std::uint64_t recovered;
  };
  struct NodeLedger {
    std::deque<SimLease> leases;  // deque: stable refs across push_back
    std::deque<Expiry> debts;     // escrowed while partitioned
    std::uint64_t escrow = 0;
    bool partitioned = false;
  };
  std::vector<NodeLedger> nodes(n);

  std::vector<double> admit_latency;
  admit_latency.reserve(static_cast<std::size_t>(cfg.ops_per_core) *
                        cfg.cores_per_node * n);
  double makespan = 0.0;
  const auto touch = [&] { makespan = std::max(makespan, eng.now()); };
  ServiceDraw local_draw(cfg.local_service, cfg.base.exponential_service,
                         rng);

  // One expiry/debt refund landing at the coordinator: the exact
  // lease_expiry_refund split the live ledger applies via settle_spent —
  // child part to the lease account, parent part home to the pool, the
  // whole borrow headroom freed.
  const auto apply_refund = [&](const Expiry& r, bool is_debt) {
    const dist::ExpiryRefund split =
        dist::lease_expiry_refund(r.from_child, r.from_parent, r.recovered);
    account[r.tenant] += static_cast<std::int64_t>(split.refund_child);
    borrowed[r.tenant] -= r.from_parent;
    res.expiry_refunded += r.recovered;
    if (is_debt) res.debt_reconciled += r.recovered;
    touch();
    if (split.refund_parent > 0) {
      parent.increment_n(r.tenant, split.refund_parent, [&] { touch(); });
    }
  };

  // Lease expiry: events re-arm while renewals keep extending the expiry
  // field (the heartbeat), and settle exactly once via the settled flag —
  // same shape as the live ledger's expiry-vs-renewal race rule.
  std::function<void(std::size_t, SimLease*)> arm_expiry =
      [&](std::size_t node, SimLease* lease) {
        eng.at(lease->expiry, [&, node, lease] {
          if (lease->settled) return;
          if (lease->expiry > eng.now()) {
            arm_expiry(node, lease);  // renewed since; chase the new TTL
            return;
          }
          lease->settled = true;
          NodeLedger& ledger = nodes[node];
          const std::uint64_t tokens = lease->from_child + lease->from_parent;
          const auto avail = static_cast<std::uint64_t>(
              std::max<std::int64_t>(local[node], 0));
          const std::uint64_t recovered = std::min(tokens, avail);
          local[node] -= static_cast<std::int64_t>(recovered);
          ++res.expiries;
          res.expiry_recovered += recovered;
          touch();
          const Expiry refund{lease->tenant, lease->from_child,
                              lease->from_parent, recovered};
          if (ledger.partitioned) {
            ledger.debts.push_back(refund);
            ledger.escrow += recovered;
            res.debt_created += recovered;
            return;
          }
          eng.at(occupy(node, uplat(node)), [&, refund] {
            apply_refund(refund, /*is_debt=*/false);
          });
        });
      };

  const auto add_lease = [&](std::size_t node, std::size_t tenant,
                             std::uint64_t from_child,
                             std::uint64_t from_parent) {
    NodeLedger& ledger = nodes[node];
    ledger.leases.push_back({tenant, from_child, from_parent,
                             eng.now() + cfg.lease_ttl, false});
    arm_expiry(node, &ledger.leases.back());
  };

  // Lease renewal: heartbeat, then nearest-donor walk, then the global
  // two-level acquire — every decision through the shared dist/policy.hpp
  // and svc/policy.hpp rules. Donations and the global grant travel as
  // messages; `done(gained)` fires once the last of them lands (every
  // message lands in a later event, so none can land before renew returns).
  struct RenewOp {
    std::uint64_t gained = 0;
    int pending = 0;
    DoneN done;
  };
  // One message landed, carrying `gained` tokens.
  const auto renew_land = [&](const std::shared_ptr<RenewOp>& op,
                              std::uint64_t gained) {
    op->gained += gained;
    --op->pending;
    touch();
    if (op->pending == 0) op->done(op->gained);
  };
  const auto renew = [&](std::size_t node, std::uint64_t want, DoneN done) {
    NodeLedger& ledger = nodes[node];
    if (ledger.partitioned) {
      done(0);
      return;
    }
    for (SimLease& lease : ledger.leases) {
      if (!lease.settled) {
        lease.expiry = std::max(lease.expiry, eng.now() + cfg.lease_ttl);
      }
    }
    auto op = std::make_shared<RenewOp>();
    op->done = std::move(done);
    std::uint64_t need = dist::lease_grant(want, cfg.lease_chunk,
                                           cfg.lease_cap);

    for (std::size_t attempt = 0; need > 0; ++attempt) {
      const std::optional<std::size_t> target =
          dist::renewal_target(topo, node, attempt);
      if (!target.has_value()) break;
      const std::size_t donor = *target;
      NodeLedger& from = nodes[donor];
      if (from.partitioned) continue;
      std::uint64_t leased_active = 0;
      for (const SimLease& lease : from.leases) {
        if (!lease.settled) {
          leased_active += lease.from_child + lease.from_parent;
        }
      }
      const auto balance = static_cast<std::uint64_t>(
          std::max<std::int64_t>(local[donor], 0));
      const std::uint64_t give =
          std::min({need, dist::peer_surplus(balance, cfg.peer_reserve),
                    leased_active});
      if (give == 0) continue;
      local[donor] -= static_cast<std::int64_t>(give);
      // Carve the donor's newest active leases, child parts first; the
      // transferred lease keeps the donor's tenant so its refund settles
      // to the account that granted it.
      auto carved = std::make_shared<
          std::vector<std::pair<std::size_t, dist::CarvedParts>>>();
      std::uint64_t remaining = give;
      for (auto it = from.leases.rbegin();
           it != from.leases.rend() && remaining > 0; ++it) {
        if (it->settled) continue;
        const dist::CarvedParts parts =
            dist::lease_carve(remaining, it->from_child, it->from_parent);
        if (parts.tokens() == 0) continue;
        it->from_child -= parts.from_child;
        it->from_parent -= parts.from_parent;
        if (it->from_child + it->from_parent == 0) it->settled = true;
        carved->push_back({it->tenant, parts});
        remaining -= parts.tokens();
      }
      CNET_ENSURE(remaining == 0,
                  "donated tokens exceeded donor lease parts");
      ++res.donations;
      res.donated_tokens += give;
      need -= give;
      ++op->pending;
      const double rtt = 2.0 * link_of(topo.proximity(node, donor));
      eng.at(occupy(node, rtt), [&, node, give, carved, op] {
        for (const auto& [tenant, parts] : *carved) {
          add_lease(node, tenant, parts.from_child, parts.from_parent);
        }
        local[node] += static_cast<std::int64_t>(give);
        renew_land(op, give);
      });
    }

    if (need > 0) {
      const std::uint64_t ask = need;
      ++op->pending;
      eng.at(occupy(node, uplat(node)), [&, node, ask, op] {
        if (nodes[node].partitioned) {
          // Partition cut the request mid-flight: the coordinator drops
          // it, so the partitioned node gets (and spends) nothing global.
          renew_land(op, 0);
          return;
        }
        const auto avail = static_cast<std::uint64_t>(
            std::max<std::int64_t>(account[node], 0));
        const std::uint64_t got_child = std::min(ask, avail);
        account[node] -= static_cast<std::int64_t>(got_child);
        const std::uint64_t shortfall = ask - got_child;
        const std::uint64_t reserved =
            svc::borrow_allowance(shortfall, borrowed[node], borrow_limit);
        borrowed[node] += reserved;
        const auto granted = [&, node, ask, op, got_child,
                              reserved](std::uint64_t got_parent) {
          borrowed[node] -= reserved - got_parent;
          const svc::QuotaSettlement s = svc::quota_settle(
              ask, got_child, got_parent, svc::kPartialOk);
          CNET_ENSURE(s.refund_child == 0 && s.refund_parent == 0,
                      "partial-ok settle refunded");
          const std::uint64_t total = got_child + got_parent;
          eng.at(eng.now() + uplat(node), [&, node, got_child, got_parent,
                                           total, op] {
            if (total > 0) {
              add_lease(node, node, got_child, got_parent);
              local[node] += static_cast<std::int64_t>(total);
              ++res.renewals;
              res.renewal_tokens += total;
            }
            renew_land(op, total);
          });
        };
        if (reserved > 0) {
          parent.try_decrement_n(node, reserved, granted);
        } else {
          granted(0);
        }
      });
    }
    if (op->pending == 0) op->done(0);  // nothing was sent
  };

  // Healed partitions replay their escrow in debt_reconcile-bounded
  // batches, one uplink round trip per batch.
  std::function<void(std::size_t)> reconcile = [&](std::size_t node) {
    NodeLedger& ledger = nodes[node];
    if (ledger.debts.empty()) {
      CNET_ENSURE(ledger.escrow == 0, "debt escrow left after reconcile");
      return;
    }
    const std::uint64_t budget =
        dist::debt_reconcile(ledger.escrow, cfg.reconcile_chunk);
    auto batch = std::make_shared<std::vector<Expiry>>();
    std::uint64_t settled = 0;
    while (!ledger.debts.empty() && (settled < budget || budget == 0)) {
      batch->push_back(ledger.debts.front());
      ledger.debts.pop_front();
      settled += batch->back().recovered;
      if (budget == 0) break;  // zero-recovery entries still settle
    }
    ledger.escrow -= settled;
    eng.at(occupy(node, uplat(node)), [&, node, batch] {
      for (const Expiry& refund : *batch) {
        apply_refund(refund, /*is_debt=*/true);
      }
      eng.at(eng.now() + uplat(node), [&, node] { reconcile(node); });
    });
  };

  for (const ClusterPartition& p : cfg.partitions) {
    eng.at(p.start, [&, p] { nodes[p.node].partitioned = true; });
    eng.at(p.end, [&, p] {
      nodes[p.node].partitioned = false;
      touch();
      reconcile(p.node);
    });
  }

  // The workload: every node core runs a closed admit(1) loop. Leased
  // mode spends locally and renews on a miss (one retry); central mode
  // round-trips the uplink for every single admission.
  const std::size_t total_cores = n * cfg.cores_per_node;
  std::vector<std::size_t> ops_done(total_cores, 0);
  std::function<void(std::size_t)> step;
  const auto finish_op = [&](std::size_t c, bool ok, double issue) {
    if (ok) {
      ++res.admitted;
      ++res.spent;
      admit_latency.push_back(eng.now() - issue);
    } else {
      ++res.rejected;
    }
    ++ops_done[c];
    touch();
    eng.at(eng.now() + cfg.think_time, [&, c] { step(c); });
  };

  std::function<void(std::size_t, std::size_t, double, bool)> attempt =
      [&](std::size_t c, std::size_t node, double issue, bool retried) {
        if (local[node] >= 1) {
          local[node] -= 1;
          eng.at(eng.now() + local_draw(),
                 [&, c, issue] { finish_op(c, true, issue); });
          return;
        }
        if (!retried) {
          renew(node, cfg.lease_chunk, [&, c, node, issue](std::uint64_t) {
            attempt(c, node, issue, true);
          });
          return;
        }
        finish_op(c, false, issue);
      };

  step = [&](std::size_t c) {
    if (ops_done[c] == cfg.ops_per_core) return;
    const std::size_t node = c / cfg.cores_per_node;
    const double issue = eng.now();
    ++res.attempts;
    if (cfg.leased) {
      attempt(c, node, issue, false);
      return;
    }
    if (nodes[node].partitioned) {
      // Central counting has no local pool to fall back on: a partitioned
      // node admits nothing (and, crucially, touches nothing global).
      finish_op(c, false, issue);
      return;
    }
    eng.at(occupy(node, uplat(node)), [&, c, node, issue] {
      if (nodes[node].partitioned) ++res.partition_global_touches;
      parent.try_decrement_n(c, 1, [&, c, node, issue](std::uint64_t got) {
        eng.at(eng.now() + uplat(node),
               [&, c, issue, got] { finish_op(c, got == 1, issue); });
      });
    });
  };

  for (std::size_t c = 0; c < total_cores; ++c) step(c);
  eng.run();

  res.makespan = makespan;
  res.final_parent_pool = parent.pool();
  res.parent_stalls = parent.stalls();
  bool conserved = !parent.pool_ever_negative();
  std::int64_t held = res.final_parent_pool;
  for (std::size_t i = 0; i < n; ++i) {
    res.final_account_tokens += account[i];
    res.final_local_tokens += local[i];
    held += account[i] + local[i];
    conserved = conserved && account[i] >= 0 && local[i] >= 0 &&
                borrowed[i] == 0 && nodes[i].escrow == 0 &&
                nodes[i].debts.empty();
    for (const SimLease& lease : nodes[i].leases) {
      conserved = conserved && lease.settled;
    }
  }
  res.conserved =
      conserved &&
      res.spent + static_cast<std::uint64_t>(held) == res.initial_tokens;
  res.debt_settled = res.debt_created == res.debt_reconciled;

  if (!admit_latency.empty()) {
    res.p50_admission = util::percentile(admit_latency, 50.0);
    res.p99_admission = util::percentile(admit_latency, 99.0);
  }

  ensure_finished(ops_done, cfg.ops_per_core);
  return res;
}

}  // namespace cnet::sim
