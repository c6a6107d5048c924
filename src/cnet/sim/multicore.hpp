// Virtual-time multicore simulator for the service layer (the answer to
// "Table B needs real cores"): P simulated cores drive model counterparts
// of the svc-layer state machines through a discrete-event executor, so the
// paper's central-vs-network scaling claims become deterministic,
// CI-checkable numbers on a 1-vCPU box.
// Same methodology as the simulation side of the study the paper cites
// ([19,20]), on the discrete-event core sim::simulate_timed also runs on
// (discrete_event.hpp), extended from bare token traversals up to the
// composed service stack.
//
// Model inventory (each is the virtual-time mirror of a real component,
// sharing its decision logic through svc/policy.hpp rather than
// reimplementing it):
//   - central atomic word  -> one FIFO server whose service time grows with
//     the number of requests already queued (cache-line ownership
//     migration: every extra sharer lengthens the RMW);
//   - counting network     -> the shared per-balancer FIFO servers
//     (des::BalancerServers, also simulate_timed's) over the real
//     topo::Topology, tokens and antitokens traversing wires with delay;
//     the batched backend carries up to batch_k tokens per traversal;
//   - NetTokenBucket       -> the pool count driven through
//     svc::bucket_consume, bounded at zero at every event.
//
// Two drivers run every workload but the cluster's:
//   - the Table B closed loop (simulate_multicore) mirrors bench_tab_svc:
//     each core consumes one token at a time and tops the pool up with a
//     bulk refill every refill_every consumes. simulate_reconfig is the
//     same loop with a staged respec published mid-run;
//   - the tenant loop (simulate_quota) mirrors svc::QuotaHierarchy: each
//     core acquires for its tenant, holds, and releases. simulate_overload
//     is the same loop with an OverloadManager attached, as the live
//     QuotaHierarchy::attach_overload does.
// Every driver reads its model knobs from one ModelConfig, and each
// workload config carries only the fields its driver reads. Everything is
// deterministic given the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "cnet/dist/topology.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/policy.hpp"

namespace cnet::sim {

// The model knobs every simulator here shares: service times, slopes,
// network shape, exponential draws and the seed.
struct ModelConfig {
  // Central-word model parameters, per backend kind. service is the
  // uncontended RMW time; slope is the extra fraction per request already
  // queued on the line (atomic: coherence migration only; CAS: failed
  // retries resubmit).
  double central_service = 1.0;
  double central_slope = 0.08;
  double cas_slope = 0.18;

  // Network model: per-balancer service time and wire delay, applied to the
  // real C(width_in, width_out) topology from `net`.
  double balancer_service = 1.0;
  double wire_delay = 0.2;
  std::size_t batch_k = 64;  // tokens per batched-network traversal

  // Shape of the counting network behind the network-backed kinds. Fixed
  // at C(8,24), not the host-sized default, so virtual-time results do not
  // depend on the machine that runs them.
  svc::BackendConfig net{.width_in = 8, .width_out = 24};

  bool exponential_service = false;  // exp-distributed service draws
  std::uint64_t seed = 1998;
};

// The Table B workload on top of the model knobs.
struct MulticoreConfig : ModelConfig {
  std::size_t cores = 8;            // P simulated cores
  std::size_t ops_per_core = 4096;  // consume(1) ops each core performs
  std::size_t refill_every = 256;   // bulk refill cadence (tokens per refill)
  std::uint64_t initial_tokens_per_core = 256;
  double think_time = 0.2;  // virtual pause between a core's ops
};

struct MulticoreResult {
  double makespan = 0.0;       // virtual time when the last core finishes
  double ops_per_vtime = 0.0;  // consume ops per unit virtual time
  std::uint64_t consume_ops = 0;
  std::uint64_t consumed = 0;  // tokens actually granted
  std::uint64_t rejected = 0;  // consume ops that found the pool empty
  std::uint64_t refilled = 0;  // tokens pushed by refill ops
  std::uint64_t initial_tokens = 0;
  std::uint64_t stall_events = 0;  // queueing events across all servers
  std::int64_t final_pool = 0;
  // consumed + final_pool == refilled + initial_tokens, and no model pool
  // ever went negative — checked at every claim, reported here.
  bool conserved = false;
};

// One-shot simulation of `spec` under `cfg`. Deterministic: the same spec,
// config, and seed produce bit-identical results on any host.
MulticoreResult simulate_multicore(const svc::BackendSpec& spec,
                                   const MulticoreConfig& cfg);

// ------------------------------------------------------------------ quota

// The svc::QuotaHierarchy workload in virtual time (Table D's model
// counterpart): `cores` simulated cores, each pinned to a tenant, run an
// acquire → hold → release loop against per-tenant child pool models and
// one shared parent pool model built from `parent_spec`. Hot/cold skew
// pins `hot_core_share` of the cores to the first `hot_tenants` tenants.
// The borrow decisions are the same pure rules the real hierarchy runs
// (svc::borrow_allowance / quota_settle from svc/policy.hpp), driven in
// continuation-passing form, and releases return each grant part to the
// level it came from as a deposit on that level's pool model.
struct QuotaSimConfig {
  ModelConfig base;

  std::size_t cores = 16;
  std::size_t tenants = 4;
  std::size_t hot_tenants = 1;   // tenants [0, hot_tenants) are hot
  double hot_core_share = 0.75;  // share of cores, in [0, 1], pinned hot
  std::size_t ops_per_core = 512;  // acquire attempts per core

  std::uint64_t acquire_cost = 1;
  std::uint64_t child_initial = 2;    // per-tenant child pool
  std::uint64_t parent_initial = 32;  // shared parent pool
  // Sum of weighted limits never exceeds this; keep it <= parent_initial -
  // acquire_cost so a won reservation always finds its parent tokens (the
  // isolation configuration svc/quota.hpp documents).
  std::uint64_t borrow_budget = 30;
  std::uint64_t hot_weight = 8;
  std::uint64_t cold_weight = 1;

  double hold_time = 4.0;   // virtual time a grant is held before release
  double think_time = 0.2;  // pause after a release or reject
};

struct QuotaSimResult {
  double makespan = 0.0;
  double ops_per_vtime = 0.0;  // acquire attempts per unit virtual time
  // Admitted grants per unit virtual time — the contention-ordering
  // metric. (Attempt rate rewards fast rejection; a reject storm must not
  // read as throughput.)
  double goodput_per_vtime = 0.0;
  std::uint64_t acquire_ops = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cold_rejected = 0;  // rejects on cold tenants
  std::uint64_t hot_rejected = 0;
  std::uint64_t granted_child_tokens = 0;   // grant parts by origin level
  std::uint64_t granted_parent_tokens = 0;
  std::uint64_t parent_stalls = 0;
  std::uint64_t child_stalls = 0;

  // Exact quiescent ledger: every child pool back at child_initial, the
  // parent back at parent_initial, no outstanding borrow, no pool ever
  // negative — each grant part returned to the level it came from.
  bool conserved = false;
  // borrowed(t) <= limit(t) at every instant AND no cold-tenant reject:
  // the weighted cap kept hot tenants from starving the cold ones.
  bool isolation = false;

  std::vector<std::uint64_t> attempts_per_tenant;
  std::vector<std::uint64_t> admitted_per_tenant;
  std::vector<std::uint64_t> limit_per_tenant;
  std::vector<std::uint64_t> peak_borrowed_per_tenant;
};

// Deterministic from (parent_spec, cfg, cfg.base.seed), like
// simulate_multicore.
QuotaSimResult simulate_quota(const svc::BackendSpec& parent_spec,
                              const QuotaSimConfig& cfg);

// The Table D′ reference workload at `cores` (8 tenants, 1 hot taking 75%
// of the cores, fixed seed) — shared by bench_tab_quota and the sim tests
// so the CI-gated crossover/determinism checks and the golden-seed tests
// can never drift onto different configs.
QuotaSimConfig quota_sim_reference_config(std::size_t cores);

// --------------------------------------------------------------- overload

// The svc::OverloadManager control loop in virtual time (Table E′'s model
// counterpart): the quota workload above with the manager attached and
// cores entering staggered — core c starts at c * core_start_stagger — so
// offered load ramps up past saturation and back down as cores finish.
// A periodic sampler event plays the manager: it reads the same three
// signals the real monitors read (parent-pool stall rate over a window,
// reject ratio over a window, peak borrow occupancy), runs them through
// the *same* pure rules
// (svc::window_pressure / occupancy_pressure / combine_pressure /
// overload_tier / overload_actions / shed_set from svc/policy.hpp), and
// actuates the resulting tier inside the model:
//   - kShrinkBatch      -> release/shed refunds go back in chunks of
//                          max(1, tokens / batch_divisor) instead of one
//                          bulk traversal;
//   - kPreDegrade       -> tier 1's actions, nothing more;
//   - kDegradePartial   -> settles run with allow_partial: a grant may
//                          admit with fewer tokens than asked, parts
//                          recorded exactly for release;
//   - kShedTenants      -> svc::shed_set picks the lowest-weight tenants;
//                          their outstanding grants are force-refunded to
//                          the level each part came from, and their later
//                          attempts reject without touching any pool.
// Everything is deterministic given the seed; the tier-transition instants
// are part of the result so tests can pin them golden. The config adds
// only the manager's fields to the tenant workload.
struct OverloadSimConfig : QuotaSimConfig {
  double core_start_stagger = 24.0;  // core c enters at c * stagger

  // Manager loop: sample cadence in virtual time, the stall-rate reading
  // that maps to pressure 1.0, and how many post-drain samples the sampler
  // may take while decaying back to nominal before it stops.
  double sample_every = 32.0;
  double stall_saturation = 2.0;
  std::size_t drain_samples = 16;

  svc::OverloadThresholds thresholds;
  double shed_fraction = 0.25;
};

// One tier change, with the evaluation instant and the combined pressure
// that drove it — the golden-pinnable trace of the control loop.
struct OverloadSimTransition {
  double time = 0.0;
  svc::OverloadTier from = svc::OverloadTier::kNominal;
  svc::OverloadTier to = svc::OverloadTier::kNominal;
  double pressure = 0.0;
};

struct OverloadSimResult {
  double makespan = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;        // organic rejects (pool/cap), not shed
  std::uint64_t degraded_admits = 0; // admitted with fewer tokens than asked
  std::uint64_t shed_rejects = 0;    // attempts turned away while shed
  std::uint64_t shed_events = 0;     // times the manager entered shedding
  std::uint64_t restore_events = 0;  // times it left shedding
  std::uint64_t shed_refunded_tokens = 0;  // grant parts force-refunded
  svc::OverloadTier peak_tier = svc::OverloadTier::kNominal;
  svc::OverloadTier final_tier = svc::OverloadTier::kNominal;
  std::vector<OverloadSimTransition> transitions;
  std::vector<std::uint64_t> shed_rejects_per_tenant;

  // Quiescent ledger: parent and every child pool back at their initial
  // counts, zero outstanding borrow, no pool ever negative — every grant
  // part was returned exactly once, by release or by the shed refund.
  bool conserved = false;
  // Every downward transition happened at pressure <= enter[from] -
  // hysteresis, every upward one at pressure >= enter[to]: the shared tier
  // rule's hysteresis held over the whole trace.
  bool hysteresis_respected = false;
  // Tier recovered to nominal and every shed tenant was restored.
  bool recovered = false;
};

// Deterministic from (parent_spec, cfg, cfg.base.seed), like
// simulate_quota.
OverloadSimResult simulate_overload(const svc::BackendSpec& parent_spec,
                                    const OverloadSimConfig& cfg);

// The Table E′ reference workload (48 staggered cores, 8 tenants, 1 hot,
// fixed seed) — shared by bench_tab_overload and the sim tests so the
// CI-gated checks and the golden-seed tier-transition tests can never
// drift onto different configs. Unlike quota_sim_reference_config, its
// borrow budget oversubscribes the parent (sum of limits >
// parent_initial): overload is exactly the regime where admission promises
// exceed the shared pool, which lets the parent run dry and the
// degrade-partial tier produce genuinely short grants. The odd initial
// counts against the even acquire_cost leave a 1-token residue when a pool
// drains, so bounded claims really do come up short instead of
// alternating full/empty forever.
OverloadSimConfig overload_sim_reference_config();

// --------------------------------------------------------------- reconfig

// The svc::ReconfigEngine staged-commit protocol in virtual time (Table
// F's model counterpart): the simulate_multicore loop runs against a
// pool built from `spec_from`, and at `respec_at` a full replacement stack
// — `spec_to`, with the batch chunk re-divided through the same
// svc::divided_chunk rule the live respec bakes in — is *staged*: new ops
// route to it immediately (the RCU publish), while ops already in flight
// on the old stack drain. The *commit* fires at the exact instant the last
// in-flight old op completes (the event-driven mirror of the engine's
// reader-quiescence wait): the old pool's remaining count migrates into
// the new stack in one instantaneous exact transfer and the config version
// bumps. Everything is deterministic given the seed, and the commit
// instant is part of the result so tests can pin it golden.
struct ReconfigSimConfig {
  MulticoreConfig base;  // the Table B workload the stage interrupts

  // The staged replacement: target spec, the virtual instant the stage
  // publishes, and the divisor folded into the staged batch chunk
  // (staged chunk = svc::divided_chunk(base.batch_k, rechunk_divisor),
  // validated by svc::respec_safe — the same rules the live
  // NetTokenBucket::respec applies).
  svc::BackendSpec spec_to = svc::BackendKind::kCentralAtomic;
  double respec_at = 300.0;
  std::size_t rechunk_divisor = 4;
};

struct ReconfigSimResult {
  double makespan = 0.0;
  std::uint64_t consume_ops = 0;
  std::uint64_t consumed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t refilled = 0;
  std::uint64_t initial_tokens = 0;

  // The staged-commit trace. staged: the publish instant (== respec_at
  // clamped to event order); commit: when the last in-flight old-stack op
  // drained and the migration ran — strictly the quiescence point.
  double respec_staged_time = -1.0;
  double respec_commit_time = -1.0;
  std::uint64_t migrated_tokens = 0;   // old pool's exact remainder
  std::size_t staged_chunk = 0;        // divided_chunk actually committed
  std::uint64_t config_version = 1;    // 2 once the commit fired

  std::uint64_t old_stalls = 0;  // queueing on the retired stack
  std::uint64_t new_stalls = 0;  // queueing on the staged stack
  std::int64_t final_pool = 0;   // old remainder (0 post-commit) + new pool
  // consumed + final_pool == refilled + initial_tokens, no model pool ever
  // negative, and the retired pool is empty once the commit has fired —
  // tokens were in one pool or the other at every event, never both.
  bool conserved = false;
};

// Deterministic from (spec_from, cfg, cfg.base.seed), like
// simulate_multicore.
ReconfigSimResult simulate_reconfig(const svc::BackendSpec& spec_from,
                                    const ReconfigSimConfig& cfg);

// The Table F reference workload (8 cores, mid-run respec, fixed seed) —
// shared by bench_tab_reconfig and the sim tests so the CI-gated
// conservation/determinism checks and the golden commit-instant tests can
// never drift onto different configs.
ReconfigSimConfig reconfig_sim_reference_config();

// The Table F pairing rule, shared for the same reason: central kinds
// re-spec up to the batched network (the escalation direction), every
// other kind re-specs down to the central word (the de-escalation
// direction). Both directions cross the batching boundary, which is what
// exercises the chunk re-division.
svc::BackendSpec reconfig_respec_target(const svc::BackendSpec& spec_from);

// ---------------------------------------------------------------- cluster

// The dist::PeerCluster tier in virtual time (Table G′'s model
// counterpart): N nodes — each a simulated multicore machine with a local
// admission pool — joined to a global quota coordinator (per-node lease
// accounts over a shared parent pool built from `parent_spec`) by per-link
// FIFO latency servers whose service time depends on dc/rack proximity.
// Every decision runs the exact rules the live tier runs: lease_grant /
// lease_expiry_refund / debt_reconcile / renewal_target / peer_surplus /
// lease_carve from dist/policy.hpp over the real dist::Topology walk, and
// borrow_allowance / quota_settle from svc/policy.hpp for the coordinator's
// two-level grants.
//
// Workload: each node core runs a closed admit(1) loop against its node's
// local pool. In leased mode an empty pool triggers a lease renewal —
// donation from the nearest peer with surplus (one rack/dc round trip),
// else a global acquire (one uplink round trip) — and admissions otherwise
// complete at local service time. With leased=false the tier degenerates
// to naive central counting: every admission round-trips the uplink to the
// parent pool. The p50/p99 admission-latency gap between the two modes is
// the tier's locality claim. Failure is lease expiry; partitions (scripted
// [start, end) windows) block a node's control plane — it spends only its
// held leases, expiries escrow into debt, and heal replays the debt
// exactly in debt_reconcile-bounded batches. Deterministic given the seed.
using ClusterNode = dist::NodeLocation;

struct ClusterPartition {
  std::size_t node = 0;
  double start = 0.0;
  double end = 0.0;  // heal instant (must be > start)
};

struct ClusterSimConfig {
  ModelConfig base;

  std::vector<ClusterNode> nodes;  // the static dc/rack topology
  std::size_t cores_per_node = 4;
  std::uint64_t ops_per_core = 256;  // admit(1) attempts per core
  double think_time = 0.5;

  // The global hierarchy (node = tenant, cluster budget = parent).
  std::uint64_t parent_initial = 2048;
  std::uint64_t account_initial = 128;  // per-node lease account
  std::uint64_t borrow_budget = 1024;
  std::uint64_t local_initial = 0;  // per-node local pool at t=0

  // Lease machinery — the dist/policy.hpp knobs.
  std::uint64_t lease_chunk = 128;
  std::uint64_t lease_cap = 512;
  double lease_ttl = 600.0;  // virtual time until an unrenewed lease expires
  std::uint64_t peer_reserve = 32;
  std::uint64_t reconcile_chunk = 256;

  // true: lease-renewal tier. false: naive central counting — every admit
  // round-trips to the parent pool (the baseline the locality claim beats).
  bool leased = true;

  // One-way link latencies by proximity, and the local admit service time.
  double link_same_rack = 1.0;
  double link_same_dc = 4.0;
  double link_remote = 16.0;
  double local_service = 0.2;

  std::vector<ClusterPartition> partitions;
};

struct ClusterSimResult {
  double makespan = 0.0;
  std::uint64_t attempts = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t spent = 0;  // tokens consumed by admissions

  std::uint64_t renewals = 0;        // global-acquire renewals that landed
  std::uint64_t renewal_tokens = 0;  // tokens they granted
  std::uint64_t donations = 0;       // peer-to-peer lease transfers
  std::uint64_t donated_tokens = 0;
  std::uint64_t expiries = 0;
  std::uint64_t expiry_recovered = 0;  // unspent tokens recovered at expiry
  std::uint64_t expiry_refunded = 0;   // tokens refunded into the hierarchy
  std::uint64_t debt_created = 0;      // escrowed during partitions
  std::uint64_t debt_reconciled = 0;   // settled at heal
  // Coordinator/peer touches made on behalf of a partitioned node — the
  // partition contract says this is always zero.
  std::uint64_t partition_global_touches = 0;

  std::uint64_t initial_tokens = 0;
  std::int64_t final_parent_pool = 0;
  std::int64_t final_account_tokens = 0;  // Σ per-node lease accounts
  std::int64_t final_local_tokens = 0;    // Σ per-node local pools
  // spent + parent + accounts + locals == initials, no pool ever negative,
  // no outstanding borrow, no unreconciled escrow.
  bool conserved = false;
  // Every partition-escrowed token was reconciled exactly once.
  bool debt_settled = false;

  double p50_admission = 0.0;  // admission latency percentiles (admitted
  double p99_admission = 0.0;  // ops only), issue to completion
  std::uint64_t parent_stalls = 0;
};

// Deterministic from (parent_spec, cfg, cfg.base.seed), like the other
// simulators.
ClusterSimResult simulate_cluster(const svc::BackendSpec& parent_spec,
                                  const ClusterSimConfig& cfg);

// The Table G′ reference topology at `nodes` nodes — striped across 2 dcs
// of 2 racks each, fixed seed — shared by bench_tab_dist and the sim tests
// so the CI-gated conservation/partition/locality checks and the golden
// tests can never drift onto different configs.
ClusterSimConfig cluster_sim_reference_config(std::size_t nodes);

}  // namespace cnet::sim
