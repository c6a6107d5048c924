// The experimental comparison of [19,20] (Klein; Klein–Busch–Musser),
// regenerated in the discrete-event queueing model: sustained throughput
// and mean operation latency of each counting structure as concurrency
// grows, with every balancer a unit-time server.
//
// Expected shape (matches the cited study): the central counter wins at
// n = 1 but saturates at 1/service; counting networks scale; at high n the
// wide-output C(w, w·lgw) sustains the highest network throughput because
// its N_c block spreads the queueing over t servers, while the periodic
// network trails (twice the depth). The diffracting tree sits between the
// central counter and the networks (depth lg w but a serial root).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "cnet/baselines/bitonic.hpp"
#include "cnet/baselines/difftree.hpp"
#include "cnet/baselines/periodic.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/sim/timed_sim.hpp"
#include "cnet/util/bitops.hpp"
#include "cnet/util/table.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

sim::TimedResult run(const topo::Topology& net, std::size_t n) {
  sim::TimedConfig cfg;
  cfg.concurrency = n;
  cfg.total_tokens = std::max<std::size_t>(4000, 24 * n);
  cfg.service_time = 1.0;
  cfg.wire_delay = 0.2;
  // Exponential service: memory/interconnect access times on a real
  // multiprocessor are highly variable, and the variance is what makes
  // queueing depth (and hence the width of N_c) matter.
  cfg.exponential_service = true;
  cfg.seed = 0xC0FFEE;
  return sim::simulate_timed(net, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);
  const std::size_t w = 16;
  const std::size_t lgw = util::ilog2(w);

  struct Net {
    std::string name;
    topo::Topology topo;
  };
  std::vector<Net> nets;
  // The central counter is a single server every token must pass: a
  // width-1 network with one (1,1)-balancer.
  {
    topo::Builder b;
    const auto in = b.add_network_inputs(1);
    b.set_outputs(b.add_balancer(in, 1));
    nets.push_back({"central(1 server)", std::move(b).build()});
  }
  nets.push_back({"difftree(16)", baselines::make_diffracting_tree(w)});
  nets.push_back({"bitonic(16)", baselines::make_bitonic(w)});
  nets.push_back({"periodic(16)", baselines::make_periodic(w)});
  nets.push_back({"C(16,16)", core::make_counting(w, w)});
  nets.push_back({"C(16,64)", core::make_counting(w, w * lgw)});

  // Every cell below reads one run per (network, n).
  const std::vector<std::size_t> ns = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  std::vector<std::vector<sim::TimedResult>> res(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    for (const std::size_t n : ns) res[i].push_back(run(nets[i].topo, n));
  }
  const auto at = [&](std::size_t net, std::size_t n) -> const auto& {
    const auto pos = std::find(ns.begin(), ns.end(), n) - ns.begin();
    return res[net][static_cast<std::size_t>(pos)];
  };

  std::puts("=================================================================");
  std::puts(" [19,20] shape: throughput (tokens/unit time) vs concurrency n");
  std::puts(" (unit-time balancer servers, wire delay 0.2, closed loop)");
  std::puts("=================================================================");
  {
    std::vector<std::string> headers = {"n"};
    for (const auto& net : nets) headers.push_back(net.name);
    util::Table table(headers);
    for (const std::size_t n : ns) {
      std::vector<std::string> row = {
          util::fmt_int(static_cast<std::int64_t>(n))};
      for (std::size_t i = 0; i < nets.size(); ++i) {
        row.push_back(util::fmt_double(at(i, n).throughput, 2));
      }
      table.add_row(row);
    }
    bench::emit(table, opts);
  }

  std::puts("");
  bench::section("mean Fetch&Increment latency (time units) vs concurrency n");
  {
    std::vector<std::string> headers = {"n"};
    for (const auto& net : nets) headers.push_back(net.name);
    util::Table table(headers);
    for (const std::size_t n : {1u, 8u, 64u, 256u}) {
      std::vector<std::string> row = {
          util::fmt_int(static_cast<std::int64_t>(n))};
      for (std::size_t i = 0; i < nets.size(); ++i) {
        row.push_back(util::fmt_double(at(i, n).mean_latency, 1));
      }
      table.add_row(row);
    }
    bench::emit(table, opts);
  }
  bench::note(
      "\nexpected shape: the central server caps at 1.0; counting networks\n"
      "scale with n; at n >> w, C(16,64) sustains the best network\n"
      "throughput and the lowest latency growth; periodic trails (depth\n"
      "lg^2 w); the diffracting tree caps at its root's service rate.", opts);

  // The expected shape, as checks. Indices follow `nets`.
  enum { kCentral, kDifftree, kBitonic, kPeriodic, kC16x16, kC16x64 };
  bool capped = true, scale = true, periodic_trails = true;
  for (std::size_t j = 0; j < ns.size(); ++j) {
    for (const std::size_t i : {kCentral, kDifftree}) {
      if (res[i][j].throughput > 1.0) capped = false;  // 1 / service time
    }
    for (const std::size_t i : {kBitonic, kPeriodic, kC16x16, kC16x64}) {
      if (j > 0 && res[i][j].throughput <= res[i][j - 1].throughput) {
        scale = false;
      }
    }
    if (res[kPeriodic][j].throughput >= res[kBitonic][j].throughput) {
      periodic_trails = false;
    }
  }
  const sim::TimedResult& wide = at(kC16x64, 256);
  bool wide_wins = true;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (i == kC16x64) continue;
    const sim::TimedResult& other = at(i, 256);
    if (other.throughput >= wide.throughput) wide_wins = false;
    if (other.mean_latency <= wide.mean_latency) wide_wins = false;
  }
  bench::check("throughput_sim_central_caps_at_service_rate", capped, opts);
  bench::check("throughput_sim_networks_scale_with_n", scale, opts);
  bench::check("throughput_sim_wide_output_wins_at_high_n", wide_wins, opts);
  bench::check("throughput_sim_periodic_trails_bitonic", periodic_trails,
               opts);
  return cnet::bench::finish(opts);
}
