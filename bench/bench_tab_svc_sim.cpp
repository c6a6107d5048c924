// Table B′ — the multi-core rerun of bench_tab_svc Table B, answered in
// virtual time: sim::simulate_multicore drives the svc-layer models with P
// simulated cores, so the central→network crossover and the elimination
// pairing are observable (and CI-gated) on any host, including the
// 1-vCPU dev container where the real-thread bench cannot contend a cache
// line. Deterministic from the fixed seed: every number reproduces
// bit-identically.
//
// Table B′ — consume(1) ops per virtual second for every backend spec as
//            the simulated core count grows.
// Table B′e — elimination detail: pairs / withdrawals per core count.
//
// Named checks (fail the run via --json, which is what CI gates on):
//   svc_sim_conservation                — every spec × core count conserves
//                                         tokens exactly, pool bound at 0;
//   svc_sim_crossover_network_vs_central— batched-network >= 2x
//                                         central-atomic ops/virtual-sec
//                                         at the largest core count;
//   svc_sim_central_wins_singlecore     — ...and the opposite at 1 core,
//                                         the paper's other half;
//   svc_sim_elim_pairs_recorded         — the elimination front-end paired
//                                         ops at the largest core count;
//   svc_sim_determinism                 — a re-run with the same seed
//                                         reproduces the elim+batched-
//                                         network cell at the largest core
//                                         count exactly.
#include <string>
#include <vector>

#include "cnet/sim/multicore.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/util/table.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

sim::MulticoreConfig base_config(std::size_t cores, bool smoke) {
  sim::MulticoreConfig cfg;
  cfg.cores = cores;
  cfg.ops_per_core = smoke ? 512 : 2048;
  cfg.refill_every = smoke ? 64 : 256;
  cfg.initial_tokens_per_core = cfg.refill_every;
  // Exponential service draws: access-time variance is what makes queueing
  // depth (and the network's width) matter, as in bench_tab_throughput_sim.
  cfg.exponential_service = true;
  cfg.seed = 0xB10C0DE;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);

  const std::vector<std::size_t> core_sweep =
      opts.smoke ? std::vector<std::size_t>{1, 4, 16}
                 : std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 64};
  const std::size_t max_cores = core_sweep.back();
  const auto specs = sim::multicore_sweep_specs();

  // One pass over spec × cores; everything below reads from this grid.
  std::vector<std::vector<sim::MulticoreResult>> grid(specs.size());
  bool all_conserved = true;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (const auto cores : core_sweep) {
      grid[s].push_back(
          sim::simulate_multicore(specs[s], base_config(cores, opts.smoke)));
      all_conserved = all_conserved && grid[s].back().conserved;
    }
  }
  auto result_for = [&](const svc::BackendSpec& want,
                        std::size_t cores) -> const sim::MulticoreResult& {
    for (std::size_t s = 0; s < specs.size(); ++s) {
      if (specs[s].kind != want.kind ||
          specs[s].elimination != want.elimination) {
        continue;
      }
      for (std::size_t c = 0; c < core_sweep.size(); ++c) {
        if (core_sweep[c] == cores) return grid[s][c];
      }
    }
    std::abort();  // spec_list/core_sweep are closed sets
  };
  const svc::BackendSpec elim_batched{svc::BackendKind::kBatchedNetwork, true};

  bench::section("Table B': consume(1) ops per virtual sec vs simulated cores");
  {
    std::vector<std::string> header{"backend"};
    for (const auto c : core_sweep) {
      header.push_back(std::to_string(c) + " cores");
    }
    util::Table table(header);
    for (std::size_t s = 0; s < specs.size(); ++s) {
      std::vector<std::string> row{svc::backend_spec_name(specs[s])};
      for (std::size_t c = 0; c < core_sweep.size(); ++c) {
        row.push_back(util::fmt_double(grid[s][c].ops_per_vtime, 3));
      }
      table.add_row(row);
    }
    bench::emit(table, opts);
    const double central1 =
        result_for({svc::BackendKind::kCentralAtomic, false}, 1)
            .ops_per_vtime;
    const double network1 =
        result_for({svc::BackendKind::kBatchedNetwork, false}, 1)
            .ops_per_vtime;
    const double centralP =
        result_for({svc::BackendKind::kCentralAtomic, false}, max_cores)
            .ops_per_vtime;
    const double networkP =
        result_for({svc::BackendKind::kBatchedNetwork, false}, max_cores)
            .ops_per_vtime;
    bench::note("\nbatched-network/central-atomic at " +
                    std::to_string(max_cores) +
                    " cores: " + util::fmt_ratio(networkP, centralP, 2) +
                    "   at 1 core: " + util::fmt_ratio(network1, central1, 2) +
                    "\n(the paper's inversion: the central word wins "
                    "uncontended, the\nnetwork wins once the word is the "
                    "bottleneck)",
                opts);
    bench::check("svc_sim_crossover_network_vs_central",
                 networkP >= 2.0 * centralP, opts);
    bench::check("svc_sim_central_wins_singlecore", central1 > network1,
                 opts);
  }

  std::puts("");
  bench::section("Table B'e: elimination front-end pairing vs cores");
  {
    util::Table table({"backend", "cores", "pairs", "withdrawals",
                       "pairs/1k ops"});
    for (std::size_t s = 0; s < specs.size(); ++s) {
      if (!specs[s].elimination) continue;
      for (std::size_t c = 0; c < core_sweep.size(); ++c) {
        const auto& r = grid[s][c];
        table.add_row(
            {svc::backend_spec_name(specs[s]),
             std::to_string(core_sweep[c]), std::to_string(r.elim_pairs),
             std::to_string(r.elim_withdrawals),
             util::fmt_double(1000.0 * static_cast<double>(r.elim_pairs) /
                                  static_cast<double>(r.consume_ops),
                              2)});
      }
    }
    bench::emit(table, opts);
    bench::note(
        "\nconsume-heavy mix: decrements deposit briefly, bulk refills\n"
        "catch them — pairs never enter the backend at all.",
        opts);
    bench::check("svc_sim_elim_pairs_recorded",
                 result_for(elim_batched, max_cores).elim_pairs > 0, opts);
  }

  bench::check("svc_sim_conservation", all_conserved, opts);

  // Determinism: the whole point of answering Table B in virtual time is
  // that the numbers reproduce anywhere — re-run one cell and compare
  // every field that reaches the tables. The elim+batched-network cell at
  // the largest core count draws most from the seeded RNG (exponential
  // service on every balancer plus the exchange-slot pairings).
  {
    const auto& first = result_for(elim_batched, max_cores);
    const auto again = sim::simulate_multicore(
        elim_batched, base_config(max_cores, opts.smoke));
    const bool identical = first.ops_per_vtime == again.ops_per_vtime &&
                           first.makespan == again.makespan &&
                           first.consumed == again.consumed &&
                           first.stall_events == again.stall_events &&
                           first.elim_pairs == again.elim_pairs &&
                           first.elim_withdrawals == again.elim_withdrawals &&
                           first.elim_value_sum == again.elim_value_sum;
    bench::check("svc_sim_determinism", identical, opts);
  }

  return bench::finish(opts);
}
