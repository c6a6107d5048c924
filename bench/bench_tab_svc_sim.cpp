// Table B′ — the multi-core rerun of bench_tab_svc Table B, answered in
// virtual time: sim::simulate_multicore drives the svc-layer models with P
// simulated cores, so the central→network crossover is observable (and
// CI-gated) on any host, including a 1-vCPU machine where the real-thread
// bench cannot contend a cache line. Deterministic from the fixed seed:
// every number reproduces bit-identically.
//
// Table B′ — consume(1) ops per virtual second for every backend kind as
//            the simulated core count grows.
//
// Named checks (fail the run via --json, which is what CI gates on):
//   svc_sim_conservation                — every kind × core count conserves
//                                         tokens exactly, pool bound at 0;
//   svc_sim_crossover_network_vs_central— batched-network >= 2x
//                                         central-atomic ops/virtual-sec
//                                         at the largest core count;
//   svc_sim_central_wins_singlecore     — ...and the opposite at 1 core,
//                                         the paper's other half;
//   svc_sim_determinism                 — a re-run with the same seed
//                                         reproduces the batched-network
//                                         cell at the largest core count
//                                         exactly.
#include <iterator>
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
  const auto& kinds = svc::kAllBackendKinds;

  // One pass over kind × cores; everything below reads from this grid.
  std::vector<std::vector<sim::MulticoreResult>> grid(std::size(kinds));
  bool all_conserved = true;
  for (std::size_t s = 0; s < std::size(kinds); ++s) {
    for (const auto cores : core_sweep) {
      grid[s].push_back(
          sim::simulate_multicore(kinds[s], base_config(cores, opts.smoke)));
      all_conserved = all_conserved && grid[s].back().conserved;
    }
  }
  auto result_for = [&](svc::BackendKind want,
                        std::size_t cores) -> const sim::MulticoreResult& {
    for (std::size_t s = 0; s < std::size(kinds); ++s) {
      if (kinds[s] != want) continue;
      for (std::size_t c = 0; c < core_sweep.size(); ++c) {
        if (core_sweep[c] == cores) return grid[s][c];
      }
    }
    std::abort();  // kinds/core_sweep are closed sets
  };
  constexpr auto central = svc::BackendKind::kCentralAtomic;
  constexpr auto batched = svc::BackendKind::kBatchedNetwork;

  bench::section("Table B': consume(1) ops per virtual sec vs simulated cores");
  {
    std::vector<std::string> header{"backend"};
    for (const auto c : core_sweep) {
      header.push_back(std::to_string(c) + " cores");
    }
    util::Table table(header);
    for (std::size_t s = 0; s < std::size(kinds); ++s) {
      std::vector<std::string> row{svc::backend_kind_name(kinds[s])};
      for (std::size_t c = 0; c < core_sweep.size(); ++c) {
        row.push_back(util::fmt_double(grid[s][c].ops_per_vtime, 3));
      }
      table.add_row(row);
    }
    bench::emit(table, opts);
    const double central1 = result_for(central, 1).ops_per_vtime;
    const double network1 = result_for(batched, 1).ops_per_vtime;
    const double centralP = result_for(central, max_cores).ops_per_vtime;
    const double networkP = result_for(batched, max_cores).ops_per_vtime;
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

  bench::check("svc_sim_conservation", all_conserved, opts);

  // Determinism: the whole point of answering Table B in virtual time is
  // that the numbers reproduce anywhere — re-run one cell and compare
  // every field that reaches the tables. The batched-network cell at the
  // largest core count draws most from the seeded RNG (exponential service
  // on every balancer).
  {
    const auto& first = result_for(batched, max_cores);
    const auto again =
        sim::simulate_multicore(batched, base_config(max_cores, opts.smoke));
    const bool identical = first.ops_per_vtime == again.ops_per_vtime &&
                           first.makespan == again.makespan &&
                           first.consumed == again.consumed &&
                           first.stall_events == again.stall_events;
    bench::check("svc_sim_determinism", identical, opts);
  }

  return bench::finish(opts);
}
