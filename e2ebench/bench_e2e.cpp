// bench_e2e — the end-to-end admission benchmark. One process runs one
// workload once: it builds the stack (several times, to time set-up), runs a
// closed-loop phase and an open-loop phase against it through the layers'
// public functions only, checks the workload's invariants, and prints one
// JSON object with typed metric cells as its last line. e2ebench/run.py
// builds this program, runs it and reduces that object to the benchmark's
// result line.
//
//   bench_e2e --workload admit_steady --seed 1 --seconds 20 --trace 0
//             [--trace-dir DIR]
//   bench_e2e --self-test
//
// Load comes from 3 generator threads plus at most one helper thread (a
// refiller, a sampler or a control loop), four threads for a 4-core host.
// With --trace 1 the closed loop alternates untraced and traced slices; one
// request in 64 of a traced slice records spans, and the per-layer metrics
// come from those spans and from deltas of the layers' telemetry getters.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "cnet/analysis/bounds.hpp"
#include "cnet/dist/peer_cluster.hpp"
#include "cnet/svc/admission.hpp"
#include "cnet/svc/quota.hpp"
#include "cnet/util/cacheline.hpp"
#include "cnet/util/prng.hpp"
#include "histogram.hpp"
#include "loadgen.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

using namespace cnet;
using namespace std::chrono_literals;

constexpr std::size_t kGenerators = 3;
constexpr std::size_t kHelperHint = kGenerators;  // the helper's thread hint
// Every reported timing is a median over repeats or slices, so that a burst
// of interference from elsewhere on the host moves one sample, not the
// result.
constexpr std::size_t kSetupBurst = 9;
constexpr std::size_t kClosedSlices = 20;
constexpr std::size_t kOpenSlices = 20;
constexpr std::uint64_t kDrainAll = std::uint64_t{1} << 40;

// The frozen per-workload parameters: the open-loop offered load and the
// p99 limit it is checked against. The rates are about a quarter of the
// closed-loop capacity measured on the seed code; admit_overload's is set by
// its design, and cluster_lease's is 40% of what its control plane supplies.
struct WorkloadSpec {
  const char* name;
  double rate;  // open-loop offered load, requests/s
  double p99_limit_us;
};
constexpr std::array<WorkloadSpec, 4> kWorkloads = {{
    {"admit_steady", 1'000'000, 30},
    {"admit_overload", 1'000'000, 15},
    {"quota_skew", 800'000, 20},
    {"cluster_lease", 150'000, 5},
}};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double rate = 0.0;  // from kWorkloads
  double p99_limit_us = 0.0;
  std::string trace_dir = ".";
};

// ------------------------------------------------------------------ tallies

struct PhaseTally {
  std::uint64_t attempts = 0;
  std::uint64_t admitted = 0;
  std::uint64_t admissible = 0;  // attempts the workload defines as admissible
  std::uint64_t admissible_admitted = 0;
};

// One generator's counts; only that generator writes them, and they are read
// after it has joined.
struct alignas(util::kCacheLine) Tally {
  PhaseTally phase[2];
  std::uint64_t failures = 0;  // false rejects and duplicate request IDs
  std::uint64_t seq = 0;       // requests sent, the low bits of span request ids
  std::uint64_t traced = 0;    // traced requests, cycles the stripping variant
  std::uint64_t since_refill = 0;
  std::uint64_t refilled = 0;
};

// The telemetry getters a workload's per-layer counts are deltas of.
struct Telemetry {
  std::uint64_t consumes = 0;  // the main bucket's consume() calls
  std::uint64_t rejects = 0;
  std::uint64_t traversals = 0;  // the network pool's structure
  std::uint64_t batch_passes = 0;
  std::uint64_t stalls = 0;
  std::uint64_t pool_consumes = 0;  // consume() calls on the network pool
  std::uint64_t renewals = 0;
  std::uint64_t renew_gained = 0;
  std::uint64_t donated = 0;
  std::uint64_t expiries = 0;

  Telemetry operator-(const Telemetry& o) const {
    return {consumes - o.consumes,         rejects - o.rejects,
            traversals - o.traversals,     batch_passes - o.batch_passes,
            stalls - o.stalls,             pool_consumes - o.pool_consumes,
            renewals - o.renewals,         renew_gained - o.renew_gained,
            donated - o.donated,           expiries - o.expiries};
  }
};

// Set-up timings, in seconds: each burst's median build, fill and both.
struct SetupTimes {
  std::vector<double> setup, build, fill;
};

// Uniqueness of one residue class of request IDs (one ID shard's local
// values), in fixed memory: a ring bitmap over the values not yet all seen.
// Every value below `base_` has been seen, so a value below it, or a bit
// already set, is a duplicate. With one writer per shard the live values
// span a few cache refills, far inside the window.
class IdWindow {
 public:
  enum Result { kFresh, kDuplicate, kOutOfWindow };
  static constexpr std::uint64_t kBits = std::uint64_t{1} << 16;

  Result record(std::uint64_t v) {
    if (words_.empty()) words_.assign(kBits / 64, 0);
    if (v < base_) return kDuplicate;
    if (v - base_ >= kBits) return kOutOfWindow;
    std::uint64_t& word = words_[(v % kBits) / 64];
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    if (word & bit) return kDuplicate;
    word |= bit;
    for (;;) {
      std::uint64_t& w = words_[(base_ % kBits) / 64];
      const std::uint64_t b = std::uint64_t{1} << (base_ % 64);
      if (!(w & b)) break;
      w &= ~b;
      ++base_;
    }
    return kFresh;
  }
  bool used() const noexcept { return !words_.empty(); }

 private:
  std::vector<std::uint64_t> words_;
  std::uint64_t base_ = 0;
};

std::uint64_t drain(svc::NetTokenBucket& bucket) {
  std::uint64_t drained = 0;
  for (std::uint64_t got; (got = bucket.consume(0, kDrainAll, svc::kPartialOk)) != 0;) {
    drained += got;
  }
  return drained;
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

// --------------------------------------------------------------- workloads

// The shared part of a workload; the request path is each concrete class's
// non-virtual request(), called through a template so it inlines.
class Workload {
 public:
  explicit Workload(const Options& o)
      : opts(o), tallies(kGenerators), rings(o.trace ? kGenerators + 1 : 0) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void teardown() = 0;
  virtual void build() = 0;  // timed as setup.stack_build_s
  virtual void fill() = 0;   // timed as setup.initial_fill_s
  // The helper runs during each load loop and is stopped between them.
  virtual void start_helper() {}
  virtual void stop_helper() {}
  // Called between the loops, with the generators and the helper stopped.
  virtual void before_open_loop() {}
  virtual Telemetry telemetry() const = 0;
  // Called once the generators and the helper have stopped.
  virtual void finish(std::vector<Check>& checks) = 0;

  virtual double goodput(const OpenLoopResult&) const {
    std::uint64_t admissible = 0, good = 0;
    for (const Tally& t : tallies) {
      admissible += t.phase[kOpen].admissible;
      good += t.phase[kOpen].admissible_admitted;
    }
    return admissible ? static_cast<double>(good) / static_cast<double>(admissible)
                      : 0.0;
  }

  std::uint64_t admitted_total() const {
    std::uint64_t n = 0;
    for (const Tally& t : tallies) n += t.phase[kClosed].admitted + t.phase[kOpen].admitted;
    return n;
  }

  const Options& opts;
  std::vector<Tally> tallies;
  std::vector<SpanRing> rings;  // one per generator, then the helper's

 protected:
  static std::uint64_t request_id(std::size_t thread, std::uint64_t seq) {
    return (std::uint64_t{thread} << 48) | seq;
  }

  // Times a bucket the workload otherwise reaches only through a higher
  // layer: one consume through the bucket, then one take through its bare
  // pool, each handing back at once whatever it took. The pool is left as
  // it was; a concurrent caller may see it one token short for the moment
  // the probe holds the token.
  static void probe_bucket(svc::NetTokenBucket& bucket, std::size_t g,
                           std::uint64_t req, SpanRing& ring) {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t got = bucket.consume(g, 1);
    const std::uint64_t t1 = now_ns();
    if (got) bucket.refund(g, got);
    const std::uint64_t t2 = now_ns();
    const bool took = bucket.pool().try_fetch_decrement(g);
    const std::uint64_t t3 = now_ns();
    if (took) bucket.pool().refund_n(g, 1);
    ring.record({req, t0, t1, got, 4, 0, SpanName::kBucketConsume});
    ring.record({req, t2, t3, took ? 1u : 0u, 5, 0, SpanName::kRuntimePoolOp});
  }
};

// admit_steady and admit_overload: AdmissionController with its defaults —
// a batched-network C(8,24) token pool and 4 ID shards.
class AdmitWorkload final : public Workload {
 public:
  static constexpr std::uint64_t kRefillBatch = 256;  // steady: give back per 256
  static constexpr std::uint64_t kChunk = 64;         // overload: helper refill

  AdmitWorkload(const Options& o, bool overload)
      : Workload(o), overload_(overload), refill_rate_(o.rate / 4.0) {}

  void teardown() override { ctl_.reset(); }
  void build() override {
    ctl_ = std::make_unique<svc::AdmissionController>(svc::AdmissionConfig{});
    ids_ = {};
  }
  void fill() override {
    // Steady starts with one refill batch per generator (the Table B/C
    // shape); overload starts empty and lives on the helper's refills.
    initial_ = overload_ ? 0 : kRefillBatch * kGenerators;
    if (initial_ > 0) ctl_->refill(0, initial_);
  }

  bool request(std::size_t g, bool traced, int phase) {
    Tally& t = tallies[g];
    PhaseTally& p = t.phase[phase];
    const std::uint64_t req = request_id(g, t.seq++);
    if (!overload_ && ++t.since_refill == kRefillBatch) {
      // Each generator gives back its own consumption, so the gate is open
      // by construction.
      // A traced run times every refill: they are one request in 256, and
      // sampling them with the requests would catch all or none, since the
      // two counters advance in lockstep.
      t.since_refill = 0;
      t.refilled += kRefillBatch;
      refill(g, opts.trace ? &rings[g] : nullptr, req, kRefillBatch);
    }
    ++p.attempts;
    std::int64_t id = -1;
    if (!traced) {
      const auto ticket = ctl_->admit(g);
      if (ticket.admitted) id = ticket.request_id;
    } else {
      id = traced_admit(g, req, t.traced++ % 3);
    }
    if (!overload_) ++p.admissible;
    if (id < 0) {
      if (!overload_) ++t.failures;  // a false reject on an open gate
      return false;
    }
    ++p.admitted;
    if (!overload_) ++p.admissible_admitted;
    GenIds& ids = ids_[g];
    const auto residue = static_cast<std::size_t>(id) % kShards;
    if (ids.windows[residue].record(static_cast<std::uint64_t>(id) / kShards) !=
        IdWindow::kFresh) {
      ++t.failures;
      ++ids.duplicates;
    }
    return true;
  }

  void start_helper() override {
    if (!overload_) return;
    helper_start_ns_ = now_ns();
    helper_ = std::jthread([this, start = helper_start_ns_](std::stop_token stop) {
      pin_to_cpu(kHelperHint, kGenerators + 1);
      // Refills follow a fixed schedule from `start`, one chunk every
      // period; a late wake-up catches up, so the supply over any window is
      // fixed.
      const double period_ns = 1e9 * static_cast<double>(kChunk) / refill_rate_;
      SpanRing* ring = opts.trace ? &rings[kGenerators] : nullptr;
      std::uint64_t k = 0;
      while (!stop.stop_requested()) {
        const std::uint64_t now = now_ns();
        while (start + static_cast<std::uint64_t>(static_cast<double>(k) * period_ns) <=
               now) {
          refill(kHelperHint, ring, request_id(kHelperHint, refills_ + k), kChunk);
          ++k;
        }
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            static_cast<std::uint64_t>(period_ns / 2)));
      }
      refills_ += k;
    });
  }
  void stop_helper() override { helper_ = {}; }

  // Overload: the open loop may admit only what the helper supplies while
  // it runs, so the tokens the closed loop left are taken out first.
  void before_open_loop() override {
    if (overload_) drained_between_ = drain(ctl_->bucket());
  }

  Telemetry telemetry() const override {
    const svc::NetTokenBucket& b = ctl_->bucket();
    Telemetry tm;
    tm.consumes = tm.pool_consumes = b.consume_attempts();
    tm.rejects = b.consume_rejects();
    tm.traversals = b.traversal_count();
    tm.batch_passes = b.batch_pass_count();
    tm.stalls = b.stall_count();
    return tm;
  }

  // Overload: tokens admitted in the open-loop phase over the tokens the
  // helper's schedule made due from its start, just before the phase (the
  // pool drained), to the phase's end. A refill runs at or after its due
  // time, so the ratio is at most 1.
  double goodput(const OpenLoopResult& open) const override {
    if (!overload_) return Workload::goodput(open);
    const double period_ns = 1e9 * static_cast<double>(kChunk) / refill_rate_;
    const std::uint64_t supplied =
        static_cast<std::uint64_t>(std::ceil(
            static_cast<double>(open.end_ns - helper_start_ns_) / period_ns)) *
        kChunk;
    std::uint64_t admitted = 0;
    for (const Tally& t : tallies) admitted += t.phase[kOpen].admitted;
    return supplied ? static_cast<double>(admitted) / static_cast<double>(supplied)
                    : 0.0;
  }

  void finish(std::vector<Check>& checks) override {
    std::uint64_t supplied = initial_ + refills_ * kChunk, duplicates = 0;
    for (std::size_t g = 0; g < kGenerators; ++g) {
      supplied += tallies[g].refilled;
      duplicates += ids_[g].duplicates;
    }
    const std::uint64_t drained = drained_between_ + drain(ctl_->bucket());
    const std::uint64_t admitted = admitted_total();
    checks.push_back({"conservation", admitted + drained == supplied,
                      "admitted " + u64(admitted) + " + drained " + u64(drained) +
                          " vs supplied " + u64(supplied)});
    // Each residue class must have had one writer, or the per-shard windows
    // would not see cross-thread duplicates.
    bool one_writer = true;
    for (std::size_t r = 0; r < kShards; ++r) {
      std::size_t writers = 0;
      for (const GenIds& ids : ids_) writers += ids.windows[r].used() ? 1 : 0;
      one_writer = one_writer && writers <= 1;
    }
    checks.push_back({"request_ids_unique", duplicates == 0 && one_writer,
                      u64(duplicates) + " duplicate or out-of-window IDs"});
  }

 private:
  static constexpr std::size_t kShards = 4;  // AdmissionConfig's default

  // One generator's uniqueness windows, one per ID residue class.
  struct alignas(util::kCacheLine) GenIds {
    std::array<IdWindow, kShards> windows;
    std::uint64_t duplicates = 0;  // duplicate or out-of-window IDs
  };

  void refill(std::size_t hint, SpanRing* ring, std::uint64_t req,
              std::uint64_t tokens) {
    const std::uint64_t t0 = ring ? now_ns() : 0;
    ctl_->refill(hint, tokens);
    if (ring) ring->record({req, t0, now_ns(), tokens, 6, 0, SpanName::kBucketRefill});
  }

  // Layer stripping: variant 0 calls admit(); variant 1 calls the bucket and
  // the allocator admit() is built from; variant 2 replaces the bucket with
  // its bare pool. Adjacent variants differ by one layer's own work.
  std::int64_t traced_admit(std::size_t g, std::uint64_t req, std::uint64_t variant) {
    SpanRing& ring = rings[g];
    if (variant == 0) {
      const std::uint64_t t0 = now_ns();
      const auto ticket = ctl_->admit(g);
      const std::uint64_t t1 = now_ns();
      ring.record({req, t0, t1, ticket.charged, 1, 0, SpanName::kAdmissionAdmit});
      return ticket.admitted ? ticket.request_id : -1;
    }
    const std::uint64_t t0 = now_ns();
    const std::uint64_t got = variant == 1
                                  ? ctl_->bucket().consume(g, 1)
                                  : (ctl_->bucket().pool().try_fetch_decrement(g) ? 1 : 0);
    const std::uint64_t t1 = now_ns();
    std::int64_t id = -1;
    std::uint64_t t2 = t1;
    if (got) {
      id = ctl_->ids().allocate(g);
      t2 = now_ns();
    }
    // Spans are stored after the last clock read, outside every span.
    ring.record({req, t0, t1, got, 2, 1,
                 variant == 1 ? SpanName::kBucketConsume : SpanName::kRuntimePoolOp});
    if (got) ring.record({req, t1, t2, 1, 3, 1, SpanName::kIdsAllocate});
    ring.record({req, t0, t2, variant, 1, 0, SpanName::kRequest});
    return id;
  }

  const bool overload_;
  const double refill_rate_;
  std::uint64_t initial_ = 0;
  std::unique_ptr<svc::AdmissionController> ctl_;
  std::array<GenIds, kGenerators> ids_;
  std::uint64_t helper_start_ns_ = 0;  // the last start of the helper
  std::uint64_t refills_ = 0;  // written by the helper, read after it joins
  std::uint64_t drained_between_ = 0;
  std::jthread helper_;
};

// quota_skew: QuotaHierarchy with 8 tenants on central-atomic children and a
// batched-network parent; half the requests go to the hot tenant 0.
class QuotaWorkload final : public Workload {
 public:
  static constexpr std::size_t kTenants = 8;
  static constexpr std::size_t kRing = 4;  // grants each generator holds
  static constexpr std::uint64_t kBudget = 64 * kTenants;
  static constexpr std::uint64_t kParentInitial = 2 * kBudget;

  explicit QuotaWorkload(const Options& o) : Workload(o) {}

  void teardown() override { quota_.reset(); }
  void build() override {
    svc::QuotaHierarchy::Config cfg;  // central-atomic children by default
    cfg.parent = {svc::BackendKind::kBatchedNetwork, false};
    cfg.borrow_budget = kBudget;
    std::vector<svc::QuotaHierarchy::TenantConfig> tenants(kTenants, {0, 1});
    tenants[0].weight = 4;
    quota_ = std::make_unique<svc::QuotaHierarchy>(cfg, std::move(tenants));
    for (std::size_t g = 0; g < kGenerators; ++g) {
      gens_[g] = Gen{};
      gens_[g].rng = util::Xoshiro256(util::SplitMix64(opts.seed * 0x100 + g).next());
    }
  }
  void fill() override {
    quota_->refill_parent(0, kParentInitial);
    for (std::size_t t = 0; t < kTenants; ++t) quota_->refill_tenant(0, t, 1);
  }

  // One request: hand back the oldest grant in this generator's ring and
  // acquire one token for a seeded tenant pick.
  bool request(std::size_t g, bool traced, int phase) {
    Tally& t = tallies[g];
    PhaseTally& p = t.phase[phase];
    Gen& gen = gens_[g];
    const std::uint64_t req = request_id(g, t.seq);
    svc::QuotaHierarchy::Grant& slot = gen.ring[t.seq++ % kRing];
    const std::size_t tenant =
        gen.rng.below(2) == 0 ? 0 : 1 + gen.rng.below(kTenants - 1);
    if (!traced) {
      if (slot.admitted) quota_->release(g, slot);
      slot = quota_->acquire(g, tenant, 1);
    } else {
      SpanRing& ring = rings[g];
      const std::uint64_t t0 = now_ns();
      if (slot.admitted) quota_->release(g, slot);
      const std::uint64_t t1 = now_ns();
      slot = quota_->acquire(g, tenant, 1);
      const std::uint64_t t2 = now_ns();
      ring.record({req, t0, t1, 1, 2, 1, SpanName::kQuotaRelease});
      ring.record({req, t1, t2, slot.from_parent, 3, 1, SpanName::kQuotaAcquire});
      ring.record({req, t0, t2, 0, 1, 0, SpanName::kRequest});
      probe_bucket(quota_->child(tenant), g, req, ring);
    }
    ++p.attempts;
    if (slot.admitted) ++p.admitted;
    if (tenant != 0) {
      ++p.admissible;
      if (slot.admitted) {
        ++p.admissible_admitted;
      } else {
        ++t.failures;  // a cold tenant refused inside its borrow cap
      }
    }
    return slot.admitted;
  }

  void start_helper() override {
    helper_ = std::jthread([this](std::stop_token stop) {
      pin_to_cpu(kHelperHint, kGenerators + 1);
      while (!stop.stop_requested()) {
        for (std::size_t t = 0; t < kTenants; ++t) {
          if (quota_->borrowed(t) > quota_->borrow_limit(t)) ++cap_violations_;
        }
        ++samples_;
        std::this_thread::sleep_for(1ms);
      }
    });
  }
  void stop_helper() override { helper_ = {}; }

  Telemetry telemetry() const override {
    Telemetry tm;
    for (std::size_t t = 0; t < kTenants; ++t) {
      const svc::NetTokenBucket& child = quota_->child(t);
      tm.consumes += child.consume_attempts();
      tm.rejects += child.consume_rejects();
    }
    const svc::NetTokenBucket& parent = quota_->parent();
    tm.pool_consumes = parent.consume_attempts();
    tm.traversals = parent.traversal_count();
    tm.batch_passes = parent.batch_pass_count();
    tm.stalls = parent.stall_count();
    return tm;
  }

  void finish(std::vector<Check>& checks) override {
    checks.push_back({"borrow_within_cap", cap_violations_ == 0 && samples_ > 0,
                      u64(cap_violations_) + " violations in " + u64(samples_) +
                          " samples"});
    for (std::size_t g = 0; g < kGenerators; ++g) {
      for (auto& grant : gens_[g].ring) {
        if (grant.admitted) quota_->release(0, grant);
        grant = {};
      }
    }
    bool returned = true, restored = true;
    std::string detail;
    for (std::size_t t = 0; t < kTenants; ++t) {
      returned = returned && quota_->borrowed(t) == 0;
      const std::uint64_t got = drain(quota_->child(t));
      if (got != 1) {
        restored = false;
        detail += "tenant " + u64(t) + " drained " + u64(got) + "; ";
      }
    }
    const std::uint64_t parent = drain(quota_->parent());
    restored = restored && parent == kParentInitial;
    checks.push_back({"borrow_returned", returned, "every tenant's borrowed is 0"});
    checks.push_back({"pools_restored", restored,
                      detail + "parent drained " + u64(parent) + " of " +
                          u64(kParentInitial)});
  }

 private:
  struct alignas(util::kCacheLine) Gen {
    std::array<svc::QuotaHierarchy::Grant, kRing> ring{};
    util::Xoshiro256 rng{0};  // seeded per generator in build()
  };

  std::unique_ptr<svc::QuotaHierarchy> quota_;
  std::array<Gen, kGenerators> gens_{};
  std::uint64_t cap_violations_ = 0;  // written by the helper, read after it joins
  std::uint64_t samples_ = 0;
  std::jthread helper_;
};

// cluster_lease: a 4-node PeerCluster, 2 dcs x 2 nodes, with a
// batched-network parent. Generators spend on nodes 0-2; node 3 is an idle
// donor. A control thread ticks the lease clock every millisecond.
class ClusterWorkload final : public Workload {
 public:
  static constexpr std::size_t kNodes = 4;
  static constexpr std::size_t kDonor = 3;
  // The donor, then its rack-mate, then the other dc.
  static constexpr std::array<std::size_t, kNodes> kRenewOrder = {kDonor, 2, 0, 1};
  // Tokens one renewal asks for, and the balance below which a node
  // renews. A spending node's leases expire every tick, which empties its
  // pool until its renewal refills it (one RMW per token), so goodput loses
  // the renewal and refund times of the nodes ahead of it, which grow with
  // the tokens moved. 128 tokens cover the open loop's ~50 per node per
  // tick with room to spare and keep that loss near 1%, so that host speed
  // moves goodput by well under its bound; 1024 lost 4% and moved it by
  // 1.5% from run to run.
  static constexpr std::uint64_t kLeaseWant = 128;
  static constexpr std::uint64_t kLowWater = kLeaseWant;

  explicit ClusterWorkload(const Options& o) : Workload(o) {}

  void teardown() override { cluster_.reset(); }
  void build() override {
    std::vector<dist::NodeLocation> locs(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      locs[i].dc = static_cast<std::uint32_t>(i / 2);
    }
    dist::ClusterConfig cfg;  // batched-network parent by default
    cfg.parent_initial = 16384;
    cfg.borrow_budget = 8192;
    cfg.node_account_initial = 256;
    cfg.local_initial = 4096;
    cfg.lease_chunk = 96;
    // Every lease lives one tick, so each tick settles the last tick's
    // leases (expiry settle_spent) before renewing.
    cfg.lease_ttl = 1;
    // Above any spending node's balance, below the donor's: only the idle
    // node donates.
    cfg.peer_reserve = 2048;
    cluster_ = std::make_unique<dist::PeerCluster>(dist::Topology(std::move(locs)), cfg);
  }
  void fill() override {
    cluster_->advance(0, 1);
    for (std::size_t node = 0; node < kNodes; ++node) {
      cluster_->renew(0, node, kLeaseWant);
    }
  }

  bool request(std::size_t g, bool traced, int phase) {
    Tally& t = tallies[g];
    PhaseTally& p = t.phase[phase];
    const std::uint64_t req = request_id(g, t.seq++);
    std::uint64_t got = 0;
    if (!traced) {
      got = cluster_->admit(g, g, 1);
    } else {
      SpanRing& ring = rings[g];
      const std::uint64_t t0 = now_ns();
      got = cluster_->admit(g, g, 1);
      ring.record({req, t0, now_ns(), got, 1, 0, SpanName::kDistAdmit});
      probe_bucket(cluster_->global().child(g), g, req, ring);
    }
    ++p.attempts;
    ++p.admissible;
    if (got) {
      ++p.admitted;
      ++p.admissible_admitted;
    }
    return got != 0;
  }

  void start_helper() override {
    helper_ = std::jthread([this](std::stop_token stop) { control(stop); });
  }
  void stop_helper() override { helper_ = {}; }

  Telemetry telemetry() const override {
    svc::NetTokenBucket& parent = cluster_->global().parent();
    Telemetry tm;
    tm.consumes = tm.pool_consumes = parent.consume_attempts();
    tm.rejects = parent.consume_rejects();
    tm.traversals = parent.traversal_count();
    tm.batch_passes = parent.batch_pass_count();
    tm.stalls = parent.stall_count();
    tm.renewals = cluster_->renewals();
    tm.renew_gained = renew_gained_.load(std::memory_order_relaxed);
    tm.donated = cluster_->donated_tokens();
    tm.expiries = cluster_->expiries();
    return tm;
  }

  void finish(std::vector<Check>& checks) override {
    cluster_->expire_all(0);
    std::uint64_t drained = cluster_->drain_global(0);
    for (std::size_t node = 0; node < kNodes; ++node) {
      drained += cluster_->drain_local(0, node);
    }
    const std::uint64_t spent = cluster_->total_spent();
    const std::uint64_t supplied = cluster_->total_initial_tokens() + topups_;
    checks.push_back({"conservation", spent + drained == supplied,
                      "spent " + u64(spent) + " + drained " + u64(drained) +
                          " vs initial + top-ups " + u64(supplied)});
    checks.push_back({"spent_matches_admitted", spent == admitted_total(),
                      "cluster spent " + u64(spent) + ", generators admitted " +
                          u64(admitted_total())});
    checks.push_back({"expiry_refund_exact",
                      cluster_->expiry_recovered() == cluster_->expiry_refunded(),
                      "recovered " + u64(cluster_->expiry_recovered()) +
                          ", refunded " + u64(cluster_->expiry_refunded())});
  }

 private:
  // Each tick: advance the clock (expiring last tick's leases), renew the
  // donor and every node below the low-water balance — the donor first and
  // its rack-mate next, so the donation walk finds the donor's fresh lease —
  // then top the parent up by what the nodes spent since the last tick.
  void control(std::stop_token stop) {
    pin_to_cpu(kHelperHint, kGenerators + 1);
    SpanRing* ring = opts.trace ? &rings[kGenerators] : nullptr;
    const auto timed = [&](SpanName name, std::uint64_t seq, auto&& call) {
      const std::uint64_t t0 = ring ? now_ns() : 0;
      const std::uint64_t value = call();
      if (ring) ring->record({request_id(kHelperHint, seq), t0, now_ns(), value, 1, 0, name});
      return value;
    };
    const auto start = Clock::now();
    std::uint64_t tick = cluster_->now();
    std::uint64_t last_spent = cluster_->total_spent();
    for (std::uint64_t k = 1; !stop.stop_requested(); ++k) {
      std::this_thread::sleep_until(start + k * 1ms);
      ++tick;
      timed(SpanName::kDistAdvance, k, [&] {
        cluster_->advance(kHelperHint, tick);
        return std::uint64_t{0};
      });
      for (const std::size_t node : kRenewOrder) {
        if (node != kDonor && cluster_->local_balance(node) >= std::int64_t{kLowWater}) {
          continue;
        }
        const std::uint64_t gained = timed(SpanName::kDistRenew, k, [&] {
          return cluster_->renew(kHelperHint, node, kLeaseWant);
        });
        renew_gained_.store(renew_gained_.load(std::memory_order_relaxed) + gained,
                            std::memory_order_relaxed);
      }
      const std::uint64_t spent = cluster_->total_spent();
      if (spent > last_spent) {
        const std::uint64_t top = spent - last_spent;
        timed(SpanName::kBucketRefill, k, [&] {
          cluster_->global().refill_parent(kHelperHint, top);
          return top;
        });
        topups_ += top;
        last_spent = spent;
      }
    }
  }

  std::unique_ptr<dist::PeerCluster> cluster_;
  std::atomic<std::uint64_t> renew_gained_{0};  // helper-written
  std::uint64_t topups_ = 0;  // written by the helper, read after it joins
  std::jthread helper_;
};

// ------------------------------------------------------------------ harness

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// Median cost of one clock read, which every span boundary pays once.
double timer_ns() {
  std::vector<double> d;
  for (int i = 0; i < 1001; ++i) {
    const std::uint64_t a = now_ns();
    d.push_back(static_cast<double>(now_ns() - a));
  }
  return median(d);
}

// Per-request cost of the closed-loop harness itself, with an empty op.
double harness_overhead_ns() {
  auto empty = [](std::size_t, bool, int) { return true; };
  const auto r = run_closed_loop(
      ClosedLoopConfig{kGenerators, 0.02, 0.2, 4, false}, empty);
  return ratio(1e9 * kGenerators, median(r.rates));
}

// The first "<key> <kB>" line of a /proc file, in MB; 0 when absent.
double proc_mb(const char* path, const char* key) {
  std::FILE* file = std::fopen(path, "r");
  if (file == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  const std::size_t n = std::strlen(key);
  while (std::fgets(line, sizeof line, file) != nullptr) {
    if (std::strncmp(line, key, n) == 0) {
      kib = std::strtod(line + n, nullptr);
      break;
    }
  }
  std::fclose(file);
  return kib / 1024.0;
}

// Peak resident set, sampled at the end of every phase while that phase's
// memory is still held. smaps_rollup counts resident pages exactly; VmHWM
// is updated only at unmaps, from per-CPU counters that may lag by dozens
// of pages each, and moved by 3% between identical runs. getrusage's
// ru_maxrss is no better, and Linux carries it over from before exec.
class PeakRss {
 public:
  void sample() {
    double mb = proc_mb("/proc/self/smaps_rollup", "Rss:");
    if (mb == 0.0) mb = proc_mb("/proc/self/status", "VmHWM:");
    peak_ = std::max(peak_, mb);
  }
  double mb() const noexcept { return peak_; }

 private:
  double peak_ = 0.0;
};

// The median over the open loop's slices of each slice's q-quantile, in us.
double slice_quantile_us(const OpenLoopResult& open, double q) {
  std::vector<double> per_slice;
  for (const LogHistogram& h : open.slice_latency) per_slice.push_back(h.quantile(q) / 1e3);
  return median(per_slice);
}

// The per-layer metrics of a traced run. Every name is reported for every
// workload; a layer the workload does not reach reads 0.
std::vector<Cell> layer_metrics(const Workload& w, const Telemetry& d,
                                double window_s, const ClosedLoopResult& closed,
                                const OpenLoopResult& open, double timer,
                                double overhead, const SetupTimes& setup) {
  const auto& rings = w.rings;
  const auto med = [&](SpanName n) { return median_duration(rings, n); };
  const double admit = med(SpanName::kAdmissionAdmit);
  const double consume = med(SpanName::kBucketConsume);
  const double pool_op = med(SpanName::kRuntimePoolOp);
  // Variant 1 (bucket + allocator) without admit() around it; its root
  // spans one more clock read than admit()'s span.
  const double stripped = median_duration(rings, [](const Span& s) {
    return s.name == SpanName::kRequest && s.value == 1;
  });
  const double admission_self =
      admit > 0 && stripped > 0 ? admit - (stripped - timer) : 0.0;

  std::vector<double> per_token;
  std::uint64_t acquires = 0, borrows = 0;
  for (const SpanRing& ring : rings) {
    ring.for_each([&](const Span& s) {
      if (s.name == SpanName::kBucketRefill && s.value > 0) {
        per_token.push_back(static_cast<double>(s.duration()) /
                            static_cast<double>(s.value));
      }
      if (s.name == SpanName::kQuotaAcquire) {
        ++acquires;
        borrows += s.value > 0 ? 1 : 0;
      }
    });
  }
  const double thm67 = analysis::counting_contention_bound(8, 24, kGenerators);
  const double stalls_per_token =
      ratio(static_cast<double>(d.stalls), static_cast<double>(d.traversals));
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

  return {
      {"admission.admit_ns", admit, "ns"},
      {"admission.self_ns", admission_self, "ns"},
      {"ids.allocate_ns", med(SpanName::kIdsAllocate), "ns"},
      {"bucket.consume_ns",
       median_duration(rings, [](const Span& s) {
         return s.name == SpanName::kBucketConsume && s.value > 0;
       }),
       "ns"},
      {"bucket.self_ns", consume > 0 && pool_op > 0 ? consume - pool_op : 0.0, "ns"},
      {"bucket.reject_ns",
       median_duration(rings, [](const Span& s) {
         return s.name == SpanName::kBucketConsume && s.value == 0;
       }),
       "ns"},
      {"bucket.reject_ratio", ratio(u(d.rejects), u(d.consumes)), "ratio"},
      {"bucket.refill_ns_per_token", median(per_token), "ns"},
      {"runtime.pool_op_ns", pool_op, "ns"},
      {"runtime.traversals_per_op", ratio(u(d.traversals), u(d.pool_consumes)), "ratio"},
      {"runtime.tokens_per_batch_pass",
       d.traversals > d.pool_consumes
           ? ratio(u(d.traversals - d.pool_consumes), u(d.batch_passes))
           : 0.0,
       "count"},
      {"runtime.stalls_per_op", ratio(u(d.stalls), u(d.pool_consumes)), "ratio"},
      {"runtime.stalls_per_token_thm67_ratio", stalls_per_token / thm67, "ratio"},
      {"quota.acquire_ns", med(SpanName::kQuotaAcquire), "ns"},
      {"quota.release_ns", med(SpanName::kQuotaRelease), "ns"},
      {"quota.borrow_share", ratio(u(borrows), u(acquires)), "ratio"},
      {"dist.admit_ns", med(SpanName::kDistAdmit), "ns"},
      {"dist.renew_ns", med(SpanName::kDistRenew), "ns"},
      {"dist.advance_ns", med(SpanName::kDistAdvance), "ns"},
      {"dist.renewals_per_s", ratio(u(d.renewals), window_s), "1/s"},
      {"dist.donated_share", ratio(u(d.donated), u(d.renew_gained)), "ratio"},
      {"dist.expiries_per_s", ratio(u(d.expiries), window_s), "1/s"},
      {"setup.stack_build_s", fastest(setup.build), "s"},
      {"setup.initial_fill_s", fastest(setup.fill), "s"},
      {"loadgen.op_overhead_ns", overhead, "ns"},
      {"loadgen.admitted_ops_s", median(closed.admitted_rates), "ops/s"},
      {"loadgen.reject_ratio", 1.0 - ratio(u(closed.admitted), u(closed.attempts)),
       "ratio"},
      {"loadgen.latency_p50_us", slice_quantile_us(open, 0.50), "us"},
      {"loadgen.latency_p99_us", slice_quantile_us(open, 0.99), "us"},
      {"loadgen.send_lag_p99_us", open.lag.quantile(0.99) / 1e3, "us"},
      {"trace.overhead_ratio", ratio(median(closed.traced_rates), median(closed.rates)),
       "ratio"},
  };
}

// One round of set-up timings: on each CPU the load threads use, in turn,
// build and fill the workload's stack kSetupBurst times back to back,
// leaving the last one built. On a 4-vCPU virtual machine a burst ran at
// one of two speeds, about 1.6x apart, depending on the vCPU and the moment
// (presumably on what else shared its core); a single-threaded compute loop
// timed beside it did not change. Within a burst the builds agree, so each
// burst gives its median, and setup_s is the fastest burst's.
void time_setup(Workload& w, SetupTimes& times) {
  cpu_set_t allowed;
  const bool pinnable = sched_getaffinity(0, sizeof allowed, &allowed) == 0;
  const std::size_t cpus =
      pinnable ? std::min<std::size_t>(CPU_COUNT(&allowed), kGenerators + 1) : 1;
  for (std::size_t cpu = 0; cpu < cpus; ++cpu) {
    if (pinnable) {
      // pin_to_cpu counts from the thread's current set: widen it first.
      sched_setaffinity(0, sizeof allowed, &allowed);
      pin_to_cpu(cpu, 1);
    }
    std::vector<double> setup, build, fill;
    for (std::size_t i = 0; i < kSetupBurst; ++i) {
      w.teardown();
      const std::uint64_t t0 = now_ns();
      w.build();
      const std::uint64_t t1 = now_ns();
      w.fill();
      const std::uint64_t t2 = now_ns();
      build.push_back(static_cast<double>(t1 - t0) / 1e9);
      fill.push_back(static_cast<double>(t2 - t1) / 1e9);
      setup.push_back(static_cast<double>(t2 - t0) / 1e9);
    }
    times.setup.push_back(median(setup));
    times.build.push_back(median(build));
    times.fill.push_back(median(fill));
  }
  if (pinnable) sched_setaffinity(0, sizeof allowed, &allowed);
}

template <class W, class... Args>
int run(const Options& o, const Args&... args) {
  W w(o, args...);
  // Set-up is timed in three rounds, before, between and after the load
  // phases, so a slow spell of the host has three chances to be missed.
  // The later rounds build a spare stack that carries no traffic.
  W spare(o, args...);
  SetupTimes setup;
  PeakRss rss;
  time_setup(w, setup);
  rss.sample();
  const double timer = timer_ns();
  const double overhead = harness_overhead_ns();

  auto op = [&w](std::size_t g, bool traced, int phase) {
    return w.request(g, traced, phase);
  };
  Telemetry before, after;
  w.start_helper();
  const ClosedLoopResult closed = run_closed_loop(
      ClosedLoopConfig{kGenerators, 0.5, 0.3 * o.seconds, kClosedSlices, o.trace}, op,
      [&] { before = w.telemetry(); },
      [&] {
        after = w.telemetry();
        rss.sample();
      });
  w.stop_helper();
  time_setup(spare, setup);
  rss.sample();
  spare.teardown();
  w.before_open_loop();
  w.start_helper();
  const OpenLoopResult open = run_open_loop(
      OpenLoopConfig{kGenerators, o.rate, 0.5 * o.seconds, kOpenSlices, o.seed}, op,
      [&] { rss.sample(); });
  w.stop_helper();
  time_setup(spare, setup);
  rss.sample();
  spare.teardown();

  std::vector<Check> checks;
  w.finish(checks);

  std::uint64_t attempted = 0, failed = 0, open_admitted = 0;
  for (const Tally& t : w.tallies) {
    attempted += t.phase[kClosed].attempts + t.phase[kOpen].attempts;
    open_admitted += t.phase[kOpen].admitted;
    failed += t.failures;
  }
  for (const Check& c : checks) failed += c.passed ? 0 : 1;

  const double throughput = median(closed.rates);
  const double latency_p99 = slice_quantile_us(open, 0.99);
  const std::vector<Cell> e2e = {
      {"goodput_ratio", w.goodput(open), "ratio"},
      {"setup_s", fastest(setup.setup), "s"},
      {"peak_rss_mb", rss.mb(), "MB"},
  };

  const double backlog_p99_us = open.last_slice_lag.quantile(0.99) / 1e3;
  const std::vector<Check> slo = {
      {"p99_limit_us", latency_p99 <= o.p99_limit_us,
       fmt("p99 %.2fus", latency_p99) + fmt(" vs limit %.1fus", o.p99_limit_us)},
      {"backlog_bounded", backlog_p99_us <= o.p99_limit_us,
       fmt("last-slice send lag p99 %.2fus", backlog_p99_us)},
  };
  // The harness must cost under a tenth of the cheapest request it times,
  // and the open loop must send on schedule.
  const double per_request_ns = ratio(1e9 * kGenerators, throughput);
  const double send_lag_p99_us = open.lag.quantile(0.99) / 1e3;
  std::vector<std::string> invalid;
  if (overhead >= 0.1 * per_request_ns) {
    invalid.push_back(fmt("harness %.1fns per request", overhead) +
                      fmt(" >= 10%% of %.1fns", per_request_ns));
  }
  if (send_lag_p99_us >= o.p99_limit_us) {
    invalid.push_back(fmt("send lag p99 %.2fus over the p99 limit", send_lag_p99_us));
  }

  // Timings that vary with the host's speed by more than any bound the
  // benchmark could gate on: printed with every run, gated on none.
  const std::vector<Cell> info = {
      {"request_rate_ops_s", throughput, "ops/s"},
      {"admitted_rate_ops_s", median(closed.admitted_rates), "ops/s"},
      {"latency_p50_us", slice_quantile_us(open, 0.50), "us"},
      {"latency_p99_us", latency_p99, "us"},
      {"latency_p999_us", open.latency.quantile(0.999) / 1e3, "us"},
      {"latency_samples", static_cast<double>(open.latency.count()), "count"},
      {"open_offered_rate", o.rate, "ops/s"},
      {"open_achieved_rate",
       static_cast<double>(open.sent) / (0.5 * o.seconds), "ops/s"},
      {"open_admitted", static_cast<double>(open_admitted), "count"},
      {"send_lag_p99_us", send_lag_p99_us, "us"},
      {"timer_ns", timer, "ns"},
      {"harness_overhead_ns", overhead, "ns"},
  };

  std::vector<Cell> layers;
  if (o.trace) {
    layers = layer_metrics(w, after - before, closed.seconds, closed, open, timer,
                           overhead, setup);
    const std::string path =
        o.trace_dir + "/trace_" + o.workload + "_" + u64(o.seed) + ".jsonl";
    if (!write_spans(w.rings, path)) {
      checks.push_back({"trace_written", false, "cannot write " + path});
      ++failed;
    }
  }

  const bool correct = failed == 0;
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"end_to_end\": %s, "
      "\"per_layer\": %s, \"info\": %s, \"checks\": %s, \"slo\": %s, "
      "\"invalid\": %s}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), json_cells(e2e).c_str(),
      json_cells(layers).c_str(), json_cells(info).c_str(),
      json_checks(checks).c_str(), json_checks(slo).c_str(),
      json_strings(invalid).c_str());
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------- self-test

int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
      ++failures;
    }
  };
  // Histogram quantiles against an exact nearest-rank sort of the same
  // seeded samples, spread over six decades.
  util::Xoshiro256 rng(20261016);
  LogHistogram h;
  std::vector<std::uint64_t> exact;
  for (int i = 0; i < 200000; ++i) {
    const auto v = static_cast<std::uint64_t>(std::exp(rng.uniform01() * 14.0));
    h.add(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  for (const double q : {0.0001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(exact.size())));
    rank = std::max<std::size_t>(rank, 1);
    const double want = static_cast<double>(exact[rank - 1]);
    const double got = h.quantile(q);
    expect(std::abs(got - want) <= want / 128.0 + 0.5,
           fmt("quantile %.4f: ", q) + fmt("histogram %.1f", got) +
               fmt(" vs exact %.1f", want));
  }
  LogHistogram a, b;
  a.add(10);
  b.add(1000);
  a.merge(b);
  expect(a.count() == 2 && a.quantile(1.0) >= 992.0, "merge keeps both samples");
  expect(LogHistogram{}.quantile(0.5) == 0.0, "empty histogram reads 0");

  // The ID window accepts any order within its span and catches repeats.
  IdWindow w;
  bool fresh = true;
  for (std::uint64_t blk = 0; blk < 1000; ++blk) {
    for (std::uint64_t i = 16; i-- > 0;) fresh = fresh && w.record(blk * 16 + i) == IdWindow::kFresh;
  }
  expect(fresh, "distinct IDs in shuffled blocks are fresh");
  expect(w.record(5) == IdWindow::kDuplicate, "an ID below the base repeats");
  expect(w.record(16001) == IdWindow::kFresh && w.record(16001) == IdWindow::kDuplicate,
         "an ID above the base repeats");
  expect(w.record(16000 + IdWindow::kBits) == IdWindow::kOutOfWindow,
         "a gap wider than the window is reported");

  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-dir DIR]\n"
               "       %s --self-test\n"
               "workloads:",
               argv0, argv0);
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-dir") {
      o.trace_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  const auto spec = std::find_if(kWorkloads.begin(), kWorkloads.end(),
                                 [&](const WorkloadSpec& w) { return o.workload == w.name; });
  if (spec == kWorkloads.end() || o.seconds <= 0) return usage(argv[0]);
  o.rate = spec->rate;
  o.p99_limit_us = spec->p99_limit_us;

  if (o.workload == "admit_steady" || o.workload == "admit_overload") {
    return run<AdmitWorkload>(o, o.workload == "admit_overload");
  }
  if (o.workload == "quota_skew") return run<QuotaWorkload>(o);
  if (o.workload == "cluster_lease") return run<ClusterWorkload>(o);
  return usage(argv[0]);
}
