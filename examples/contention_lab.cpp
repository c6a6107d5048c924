// Contention laboratory: run the paper's §6 stall-counting experiment on
// any network family with any scheduler from the command line, print the
// per-layer/per-block breakdown, then hammer the same network with real
// threads through the LoadGen harness (CAS-retry discipline) so the
// simulated stall census can be compared with hardware-observed stalls —
// the interactive version of bench_tab_contention / bench_fig_blocks.
//
// Usage: ./examples/contention_lab <family> <w> [t] [n] [scheduler]
//   family:    counting | bitonic | periodic | difftree | ablated
//   n:         simulated concurrency, 1..65536 (default 16·w)
//   scheduler: convoy (default) | greedy | random | rr
//
// Example: ./examples/contention_lab counting 16 64 256 convoy
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "cnet/analysis/bounds.hpp"
#include "cnet/baselines/bitonic.hpp"
#include "cnet/baselines/difftree.hpp"
#include "cnet/baselines/periodic.hpp"
#include "cnet/core/ablation.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/runtime/network_counter.hpp"
#include "cnet/sim/contention.hpp"
#include "cnet/util/bitops.hpp"
#include "support/loadgen.hpp"

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <family> <w> [t] [n] [scheduler]\n"
                 "  family: counting bitonic periodic difftree ablated\n"
                 "  scheduler: convoy greedy random rr\n",
                 argv[0]);
    return 2;
  }
  const std::string family = argv[1];
  const auto w = static_cast<std::size_t>(std::atoll(argv[2]));
  const std::size_t t =
      argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : w;
  // The simulator runs 32·n tokens; range-check an explicit n as a signed
  // value so a negative one is rejected instead of sizing a huge census.
  constexpr long long kMaxConcurrency = 65536;
  std::size_t n = 16 * w;
  if (argc > 4) {
    const long long n_arg = std::atoll(argv[4]);
    if (n_arg < 1 || n_arg > kMaxConcurrency) {
      std::fprintf(stderr,
                   "usage: %s <family> <w> [t] [1<=n<=%lld] [scheduler]\n",
                   argv[0], kMaxConcurrency);
      return 2;
    }
    n = static_cast<std::size_t>(n_arg);
  }
  const std::string sched_name = argc > 5 ? argv[5] : "convoy";

  std::optional<cnet::topo::Topology> net;
  try {
    if (family == "counting") net = cnet::core::make_counting(w, t);
    if (family == "ablated")
      net = cnet::core::make_counting_bitonic_merge(w, t);
    if (family == "bitonic") net = cnet::baselines::make_bitonic(w);
    if (family == "periodic") net = cnet::baselines::make_periodic(w);
    if (family == "difftree")
      net = cnet::baselines::make_diffracting_tree(w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "construction failed: %s\n", e.what());
    return 1;
  }
  if (!net) {
    std::fprintf(stderr, "unknown family '%s'\n", family.c_str());
    return 2;
  }

  cnet::sim::ContentionConfig cfg;
  cfg.concurrency = n;
  cfg.generations = 32;
  if (sched_name == "greedy") {
    cfg.scheduler = cnet::sim::SchedulerKind::kGreedyMaxQueue;
  } else if (sched_name == "random") {
    cfg.scheduler = cnet::sim::SchedulerKind::kRandom;
  } else if (sched_name == "rr") {
    cfg.scheduler = cnet::sim::SchedulerKind::kRoundRobin;
  } else if (sched_name != "convoy") {
    std::fprintf(stderr, "unknown scheduler '%s'\n", sched_name.c_str());
    return 2;
  }

  const auto report = cnet::sim::measure_contention(*net, cfg);
  std::printf("network : %s\n", net->summary().c_str());
  std::printf("config  : n=%zu, m=%zu tokens, scheduler=%s\n", n,
              report.tokens, cnet::sim::scheduler_name(cfg.scheduler));
  std::printf("stalls/token: %.3f   (max queue: %zu)\n",
              report.stalls_per_token, report.max_queue);
  if (family == "counting") {
    std::printf("Theorem 6.7 bound: %.1f\n",
                cnet::analysis::counting_contention_bound(w, t, n));
  }
  std::printf("\nper-layer stalls/token:\n");
  const std::size_t lgw = cnet::util::ilog2(w);
  for (std::size_t d = 0; d < report.per_layer.size(); ++d) {
    const char* block = "";
    if (family == "counting" || family == "ablated") {
      block = d + 1 < lgw ? " [Na]" : (d + 1 == lgw ? " [Nb]" : " [Nc]");
    }
    std::printf("  layer %2zu%s: %8.3f\n", d + 1, block,
                report.per_layer[d]);
  }

  // Hardware leg: the same network as a live counter under real threads
  // (capped at 16 — simulated n models logical concurrency, not cores).
  // difftree uses its own runtime, so the compiled-network leg skips it.
  if (family != "difftree") {
    const std::size_t threads = std::clamp<std::size_t>(n, 1, 16);
    cnet::rt::NetworkCounter counter(*net, family,
                                     cnet::rt::BalancerMode::kCasRetry);
    cnet::bench::LoadGenConfig cfg;
    cfg.threads = threads;
    cfg.warmup_seconds = 0.1;
    cfg.measure_seconds = 0.5;
    // stall_count() accumulates over the counter's lifetime; snapshot it
    // when the measured phase opens so stalls/token uses the same window
    // as the token denominator.
    std::uint64_t stall_baseline = 0;
    cfg.on_measure_begin = [&] { stall_baseline = counter.stall_count(); };
    const auto result = cnet::bench::run_loadgen(cfg, [&](std::size_t t) {
      volatile std::int64_t sink = counter.fetch_increment(t);
      (void)sink;
      return std::uint64_t{1};
    });
    std::printf("\nhardware (cas-retry, %zu threads, %.1fs):\n", threads,
                result.seconds);
    std::printf("  throughput  : %s\n",
                cnet::bench::fmt_rate(result.ops_per_sec).c_str());
    if (result.has_latency) {
      std::printf("  latency     : p50 %s  p99 %s\n",
                  cnet::bench::fmt_ns(result.p50_ns).c_str(),
                  cnet::bench::fmt_ns(result.p99_ns).c_str());
    }
    const std::uint64_t stalls = counter.stall_count() - stall_baseline;
    std::printf("  stalls/token: %.3f (%llu stalls / %llu tokens)\n",
                result.total_ops ? static_cast<double>(stalls) /
                                       static_cast<double>(result.total_ops)
                                 : 0.0,
                static_cast<unsigned long long>(stalls),
                static_cast<unsigned long long>(result.total_ops));
  }
  return 0;
}
