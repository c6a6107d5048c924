// The distributed counting tier, live and in virtual time — the
// dist::PeerCluster lease ledger ISSUE 8 layers over the quota hierarchy,
// and its sim::simulate_cluster mirror. Both sides run the identical
// dist/policy.hpp decision rules; these tables are what make the tier's
// conservation/partition/locality claims checkable before any socket
// exists.
//
// Table G  — live single-process multi-node harness: a deterministic tick
//            script drives admits, lease renewals (donation walk + global
//            acquire), a mid-run partition with expiries escrowing into
//            debt, a reweigh pushed by subscribe, heal, and a final
//            expire-everything drain that must balance the ledger to the
//            token.
// Table G′ — the sim sweep over node counts × link latency profiles ×
//            partition scripts: per-link FIFO latency servers join nodes
//            modeled as simulated multicore machines, and the p99
//            admission gap between rack-local lease renewal and naive
//            central counting is measured, not asserted.
//
// Named checks (--json + exit code, the artifact CI gates on):
//   G:conservation   — total spent + drained locals + drained hierarchy
//       == constructed tokens after heal + expire_all;
//   G:expiry_refund  — expiries fired and every recovered token was
//       refunded exactly once (recovered == refunded, debt included);
//   G:partition_heal — the partition escrowed debt (created > 0) and heal
//       reconciled it exactly (created == reconciled, escrow drained);
//   G:zero_lease     — a partitioned node spends only what it holds: its
//       initial pool drains to exact zero, then admits and renewals both
//       return 0 until heal;
//   G:subscribe      — a reweigh commit is *pushed* to every connected
//       node (no polling), the partitioned node misses it and catches up
//       at heal;
//   cluster_sim_conservation   — every sweep cell conserves tokens
//       exactly, borrows closed, escrow drained, leases settled;
//   cluster_sim_expiry_refund  — short-TTL churn: recovered == refunded
//       with real recoveries, conserved;
//   cluster_sim_partition_heal — scripted partitions escrow real debt,
//       heal replays it exactly, zero global touches while partitioned;
//   cluster_sim_locality       — rack-local renewal beats central
//       counting on both p50 and p99 simulated admission latency;
//   cluster_sim_determinism    — the partition cell reproduces
//       bit-identically on a re-run, latency tail included.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cnet/dist/peer_cluster.hpp"
#include "cnet/dist/topology.hpp"
#include "cnet/sim/multicore.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/util/table.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

// The same 2-dc striping as sim::cluster_sim_reference_config, so Table G
// and Table G′ agree on what "rack-local" means.
dist::Topology make_topology(std::size_t n) {
  const std::size_t per_dc = (n + 1) / 2;
  std::vector<dist::NodeLocation> locs(n);
  for (std::size_t i = 0; i < n; ++i) {
    locs[i].dc = static_cast<std::uint32_t>(i / per_dc);
    locs[i].rack = static_cast<std::uint32_t>((i % per_dc) / 2);
  }
  return dist::Topology(std::move(locs));
}

dist::ClusterConfig live_config() {
  dist::ClusterConfig cfg;
  cfg.parent_initial = 2048;
  cfg.node_account_initial = 256;
  cfg.borrow_budget = 2048;
  cfg.local_initial = 64;
  cfg.lease_chunk = 96;
  cfg.lease_cap = 384;
  cfg.lease_ttl = 4;
  cfg.peer_reserve = 24;
  cfg.reconcile_chunk = 192;
  return cfg;
}

struct LiveResult {
  std::uint64_t spent = 0;
  std::uint64_t drained = 0;
  std::uint64_t initial = 0;
  bool conserved = false;
  bool expiry_exact = false;
  bool partition_exact = false;
  bool subscribe_ok = false;
  util::Table table{{"node", "dc/rack", "spent", "renews+donates",
                     "end balance", "end leased"}};
};

// Table G's deterministic tick script on a 6-node cluster: every connected
// node admits and renews each tick, node 1 goes dark (partitioned, silent)
// for ticks [6, 16), a reweigh commits at tick 8 while it's dark, and the
// run ends in heal + expire_all + a full drain of every pool.
LiveResult run_live(std::uint64_t ticks, std::uint64_t admits_per_tick) {
  constexpr std::size_t kNodes = 6;
  constexpr std::size_t kDark = 1;
  dist::PeerCluster cluster(make_topology(kNodes), live_config());
  LiveResult res;
  res.initial = cluster.total_initial_tokens();

  bool subscribe_ok = true;
  std::vector<std::uint64_t> renews(kNodes, 0);
  for (std::uint64_t t = 1; t <= ticks; ++t) {
    cluster.advance(0, t);
    if (t == 6) cluster.partition(kDark);
    if (t == 8) {
      // Reweigh while node 1 is dark: the subscribe push lands on every
      // connected node at the commit instant; the dark node misses it.
      std::vector<std::uint64_t> weights(kNodes, 1);
      weights[0] = 2;
      cluster.global().reweigh(0, weights);
      for (std::size_t i = 0; i < kNodes; ++i) {
        const std::uint64_t want = i == kDark ? 1 : 2;
        subscribe_ok =
            subscribe_ok && cluster.observed_reweigh_version(i) == want;
      }
    }
    if (t == 16) {
      cluster.heal(0, kDark);
      subscribe_ok =
          subscribe_ok && cluster.observed_reweigh_version(kDark) == 2;
    }
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (cluster.is_partitioned(i)) continue;  // a dark node is silent
      if (cluster.local_balance(i) < 32) {
        renews[i] += cluster.renew(0, i, 96) > 0 ? 1 : 0;
      }
      for (std::uint64_t a = 0; a < admits_per_tick; ++a) {
        cluster.admit(0, i, 3);
      }
    }
    cluster.evaluate_overload();
  }

  res.partition_exact = cluster.debt_created() > 0 &&
                        cluster.debt_created() == cluster.debt_reconciled() &&
                        cluster.debt_tokens(kDark) == 0;
  res.subscribe_ok = subscribe_ok;

  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto loc = cluster.topology().location(i);
    res.table.add_row(
        {util::fmt_int(static_cast<std::int64_t>(i)),
         util::fmt_int(loc.dc) + "/" + util::fmt_int(loc.rack),
         util::fmt_int(static_cast<std::int64_t>(cluster.spent(i))),
         util::fmt_int(static_cast<std::int64_t>(renews[i])),
         util::fmt_int(cluster.local_balance(i)),
         util::fmt_int(static_cast<std::int64_t>(cluster.leased_tokens(i)))});
  }

  // Final settlement: force-expire every lease, then drain every pool and
  // balance the ledger against the constructed total.
  cluster.expire_all(0);
  res.expiry_exact = cluster.expiries() > 0 &&
                     cluster.expiry_recovered() > 0 &&
                     cluster.expiry_recovered() == cluster.expiry_refunded();
  for (std::size_t i = 0; i < kNodes; ++i) {
    res.drained += cluster.drain_local(0, i);
  }
  res.drained += cluster.drain_global(0);
  res.spent = cluster.total_spent();
  res.conserved = res.spent + res.drained == res.initial;
  return res;
}

// Table G's zero-lease degradation cell: a node partitioned before it ever
// renews holds nothing but its initial local pool — it must drain that to
// exact zero and then admit (and renew) nothing until heal.
bool run_zero_lease() {
  constexpr std::size_t kNode = 3;
  dist::PeerCluster cluster(make_topology(6), live_config());
  cluster.advance(0, 1);
  cluster.partition(kNode);

  std::uint64_t spent = 0;
  while (cluster.admit(0, kNode, 1) != 0) ++spent;
  bool ok = spent == live_config().local_initial;      // exactly its pool
  ok = ok && cluster.leased_tokens(kNode) == 0;        // never held a lease
  ok = ok && cluster.renew(0, kNode, 96) == 0;         // control plane down
  ok = ok && cluster.admit(0, kNode, 1) == 0;          // and nothing to spend
  cluster.heal(0, kNode);
  ok = ok && cluster.renew(0, kNode, 96) > 0 &&        // back in business
       cluster.admit(0, kNode, 1) == 1;

  cluster.expire_all(0);
  std::uint64_t drained = 0;
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    drained += cluster.drain_local(0, i);
  }
  drained += cluster.drain_global(0);
  return ok &&
         cluster.total_spent() + drained == cluster.total_initial_tokens();
}

bool sim_identical(const sim::ClusterSimResult& a,
                   const sim::ClusterSimResult& b) {
  return a.makespan == b.makespan && a.attempts == b.attempts &&
         a.admitted == b.admitted && a.rejected == b.rejected &&
         a.spent == b.spent && a.renewals == b.renewals &&
         a.renewal_tokens == b.renewal_tokens &&
         a.donations == b.donations && a.donated_tokens == b.donated_tokens &&
         a.expiries == b.expiries &&
         a.expiry_recovered == b.expiry_recovered &&
         a.expiry_refunded == b.expiry_refunded &&
         a.debt_created == b.debt_created &&
         a.debt_reconciled == b.debt_reconciled &&
         a.partition_global_touches == b.partition_global_touches &&
         a.final_parent_pool == b.final_parent_pool &&
         a.final_account_tokens == b.final_account_tokens &&
         a.final_local_tokens == b.final_local_tokens &&
         a.p50_admission == b.p50_admission &&
         a.p99_admission == b.p99_admission &&
         a.parent_stalls == b.parent_stalls;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);
  constexpr auto parent = svc::BackendKind::kBatchedNetwork;

  bench::section("Table G: live peer cluster, lease ledger end to end");
  {
    const std::uint64_t ticks = opts.smoke ? 24 : 96;
    const std::uint64_t admits = opts.smoke ? 8 : 16;
    const auto r = run_live(ticks, admits);
    bench::emit(r.table, opts);
    std::printf("  ledger: spent %llu + drained %llu == initial %llu\n",
                static_cast<unsigned long long>(r.spent),
                static_cast<unsigned long long>(r.drained),
                static_cast<unsigned long long>(r.initial));
    bench::note(
        "\nnode 1 goes dark for ticks [6,16): its leases expire into debt\n"
        "escrow, the tick-8 reweigh push misses it (every connected node\n"
        "sees version 2 at the commit instant), and heal replays the debt\n"
        "exactly and catches the version up. expire_all + full drain then\n"
        "balances the ledger to the token.",
        opts);
    bench::check("G:conservation", r.conserved, opts);
    bench::check("G:expiry_refund", r.expiry_exact, opts);
    bench::check("G:partition_heal", r.partition_exact, opts);
    bench::check("G:subscribe", r.subscribe_ok, opts);
    bench::check("G:zero_lease", run_zero_lease(), opts);
  }

  std::puts("");
  bench::section("Table G': simulated cluster, nodes x links x partitions");
  {
    const std::uint64_t ops = opts.smoke ? 96 : 224;
    struct LinkProfile {
      const char* name;
      double rack, dc, remote;
    };
    const LinkProfile profiles[] = {{"lan 1/4/16", 1.0, 4.0, 16.0},
                                    {"wan 2/8/40", 2.0, 8.0, 40.0}};
    util::Table table({"nodes", "links", "admitted", "rejected", "renews",
                       "donates", "p50", "p99", "conserved"});
    bool all_conserved = true;
    for (const std::size_t n : {4, 6, 8}) {
      for (const LinkProfile& link : profiles) {
        sim::ClusterSimConfig cfg = sim::cluster_sim_reference_config(n);
        cfg.ops_per_core = ops;
        cfg.link_same_rack = link.rack;
        cfg.link_same_dc = link.dc;
        cfg.link_remote = link.remote;
        const auto r = sim::simulate_cluster(parent, cfg);
        all_conserved = all_conserved && r.conserved && r.debt_settled;
        table.add_row(
            {util::fmt_int(static_cast<std::int64_t>(n)), link.name,
             util::fmt_int(static_cast<std::int64_t>(r.admitted)),
             util::fmt_int(static_cast<std::int64_t>(r.rejected)),
             util::fmt_int(static_cast<std::int64_t>(r.renewals)),
             util::fmt_int(static_cast<std::int64_t>(r.donations)),
             util::fmt_double(r.p50_admission, 3),
             util::fmt_double(r.p99_admission, 3),
             r.conserved ? "yes" : "NO"});
      }
    }
    bench::emit(table, opts);
    bench::check("cluster_sim_conservation", all_conserved, opts);

    // Short-TTL churn: leases expire between renewals everywhere, so the
    // refund path carries real tokens — and must carry each exactly once.
    sim::ClusterSimConfig churn = sim::cluster_sim_reference_config(6);
    churn.ops_per_core = ops;
    churn.lease_ttl = 12.0;
    const auto ce = sim::simulate_cluster(parent, churn);
    bench::check("cluster_sim_expiry_refund",
                 ce.expiries > 0 && ce.expiry_recovered > 0 &&
                     ce.expiry_recovered == ce.expiry_refunded &&
                     ce.conserved,
                 opts);

    // Two scripted partitions on top of the churn: expiries on the dark
    // nodes escrow into debt, heal replays it exactly, and no dark node
    // ever touches the coordinator or a peer.
    sim::ClusterSimConfig part = churn;
    part.partitions.push_back({1, 42.0, 300.0});
    part.partitions.push_back({4, 90.0, 340.0});
    const auto cp = sim::simulate_cluster(parent, part);
    bench::check("cluster_sim_partition_heal",
                 cp.debt_created > 0 && cp.debt_settled &&
                     cp.partition_global_touches == 0 && cp.conserved,
                 opts);

    // The locality claim, measured: identical workload and token supply,
    // leases + rack-local renewal vs every admission round-tripping the
    // uplink to one central pool.
    sim::ClusterSimConfig loc = sim::cluster_sim_reference_config(6);
    loc.ops_per_core = ops;
    // Locality is a latency claim, not a scarcity claim: give both modes
    // enough tokens for the whole demand so the tail measures renewal
    // round trips, not end-of-run global starvation.
    loc.parent_initial = 6 * loc.cores_per_node * ops;
    sim::ClusterSimConfig central = loc;
    central.leased = false;
    const auto rl = sim::simulate_cluster(parent, loc);
    const auto rc = sim::simulate_cluster(parent, central);
    util::Table lat({"mode", "admitted", "p50 admission", "p99 admission",
                     "makespan"});
    lat.add_row({"leased (rack-local renew)",
                 util::fmt_int(static_cast<std::int64_t>(rl.admitted)),
                 util::fmt_double(rl.p50_admission, 3),
                 util::fmt_double(rl.p99_admission, 3),
                 util::fmt_double(rl.makespan, 1)});
    lat.add_row({"central counting",
                 util::fmt_int(static_cast<std::int64_t>(rc.admitted)),
                 util::fmt_double(rc.p50_admission, 3),
                 util::fmt_double(rc.p99_admission, 3),
                 util::fmt_double(rc.makespan, 1)});
    bench::emit(lat, opts);
    bench::note(
        "\nsame demand, same tokens: leases keep the admission fast path\n"
        "local (p50 is one local service draw) and renewals mostly one\n"
        "rack round trip away; central counting pays the uplink's FIFO\n"
        "queue on every single admission.",
        opts);
    bench::check("cluster_sim_locality",
                 rl.conserved && rc.conserved &&
                     rl.p99_admission < rc.p99_admission &&
                     rl.p50_admission < rc.p50_admission,
                 opts);

    const auto again = sim::simulate_cluster(parent, part);
    bench::check("cluster_sim_determinism", sim_identical(cp, again), opts);
  }

  return bench::finish(opts);
}
