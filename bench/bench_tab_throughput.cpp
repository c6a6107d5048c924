// Experimental analysis (paper §1.3.1's reference to [19,20]): sustained
// Fetch&Increment throughput of every counter implementation under real
// threads via the unified LoadGen harness, plus the batched-token runtime
// (NetworkCounter::fetch_increment_batch) against the per-token
// baseline — the batching lever that cuts per-value atomic traffic by up
// to k×.
//
// NOTE: the paper's cited experiments ran on 10 UltraSparc workstations;
// this harness runs wherever you build it. On a few-core host the
// wall-clock ordering is dominated by path length (central counter first,
// deeper networks slower) — the contention separation that favours
// C(w, w·lgw) at high concurrency is reproduced in bench_tab_contention's
// adversarial simulation, which is the measure the theorems speak about.
// Batching wins regardless of core count because it removes atomic RMWs
// per token outright.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cnet/baselines/bitonic.hpp"
#include "cnet/baselines/periodic.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/runtime/central.hpp"
#include "cnet/runtime/difftree_rt.hpp"
#include "cnet/runtime/network_counter.hpp"
#include "cnet/util/table.hpp"
#include "support/loadgen.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

// --smoke shrinks every phase so CI can drive each topology's live
// traversal in a few seconds.
bench::LoadGenConfig config_for(std::size_t threads, bool smoke) {
  bench::LoadGenConfig cfg;
  cfg.threads = threads;
  cfg.warmup_seconds = smoke ? 0.01 : 0.1;
  cfg.measure_seconds = smoke ? 0.05 : 0.3;
  return cfg;
}

// Per-token load: one fetch_increment per op-call.
bench::LoadGenResult hammer(rt::Counter& counter, std::size_t threads,
                            bool smoke) {
  return bench::run_loadgen(config_for(threads, smoke), [&](std::size_t t) {
    volatile std::int64_t sink = counter.fetch_increment(t);
    (void)sink;
    return std::uint64_t{1};
  });
}

// Batched load: one fetch_increment_batch(k) per op-call, counted as k ops.
bench::LoadGenResult hammer_batch(rt::Counter& counter, std::size_t threads,
                                  std::size_t k, bool smoke) {
  std::vector<std::vector<std::int64_t>> buffers(
      threads, std::vector<std::int64_t>(k));
  const auto cfg = config_for(threads, smoke);
  return bench::run_loadgen(cfg, [&, k](std::size_t t) {
    counter.fetch_increment_batch(t, k, buffers[t].data());
    volatile std::int64_t sink = buffers[t][k - 1];
    (void)sink;
    return static_cast<std::uint64_t>(k);
  });
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);

  struct Backend {
    std::string label;
    std::unique_ptr<rt::Counter> counter;
  };
  std::vector<Backend> backends;
  backends.push_back({"central-atomic", std::make_unique<rt::AtomicCounter>()});
  backends.push_back({"central-cas", std::make_unique<rt::CasCounter>()});
  backends.push_back({"central-mutex", std::make_unique<rt::MutexCounter>()});
  backends.push_back({"bitonic(8)", std::make_unique<rt::NetworkCounter>(
                                        baselines::make_bitonic(8),
                                        "bitonic(8)")});
  backends.push_back({"periodic(8)", std::make_unique<rt::NetworkCounter>(
                                         baselines::make_periodic(8),
                                         "periodic(8)")});
  backends.push_back({"C(8,8)", std::make_unique<rt::NetworkCounter>(
                                    core::make_counting(8, 8), "C(8,8)")});
  backends.push_back({"C(8,24)", std::make_unique<rt::NetworkCounter>(
                                     core::make_counting(8, 24), "C(8,24)")});
  backends.push_back(
      {"C(8,24)/cas", std::make_unique<rt::NetworkCounter>(
                          core::make_counting(8, 24), "C(8,24)/cas",
                          rt::BalancerMode::kCasRetry)});
  {
    rt::DiffractingTreeCounter::Config cfg;
    cfg.leaves = 8;
    cfg.partner_spins = 4;  // collisions are rare on few-core hosts
    backends.push_back(
        {"difftree(8)", std::make_unique<rt::DiffractingTreeCounter>(cfg)});
  }

  bench::section("Fetch&Increment throughput vs threads (per-token)");
  {
    util::Table table({"backend", "n=1", "n=2", "n=4", "n=8", "p50", "p99",
                       "stalls"});
    for (auto& backend : backends) {
      std::vector<std::string> row = {backend.label};
      bench::LoadGenResult last;
      for (const std::size_t n : kThreadCounts) {
        last = hammer(*backend.counter, n, opts.smoke);
        row.push_back(bench::fmt_rate(last.ops_per_sec));
      }
      row.push_back(bench::fmt_ns(last.p50_ns));
      row.push_back(bench::fmt_ns(last.p99_ns));
      row.push_back(util::fmt_int(
          static_cast<std::int64_t>(backend.counter->stall_count())));
      table.add_row(row);
    }
    bench::emit(table, opts);
    const auto cfg = config_for(1, opts.smoke);
    bench::note("\nrates are tokens/sec over a " +
                    util::fmt_double(cfg.measure_seconds, 2) +
                    "s measured phase after " +
                    util::fmt_double(cfg.warmup_seconds, 2) +
                    "s\nwarmup; p50/p99 are per-op latencies at n=8; stalls "
                    "are CAS\nretries accumulated across the whole run (cas "
                    "backends only).",
                opts);
  }

  // The tentpole comparison: the same C(w, w·lgw) network traversed
  // per-token vs in k-token batches. One fetch_add(k) per balancer and one
  // cell RMW per exit wire replace k·depth(+1) RMWs.
  std::printf("\n");
  bench::section("Batched tokens on C(8,24): k-token batches vs per-token");
  double per_token_at8 = 0.0, batched_at8 = 0.0;
  {
    const auto net = core::make_counting(8, 24);
    util::Table table({"mode", "n=1", "n=2", "n=4", "n=8", "p50(call)",
                       "vs per-token @n=8"});
    std::vector<double> per_token_rates;
    {
      rt::NetworkCounter counter(net, "C(8,24)");
      std::vector<std::string> row = {"per-token"};
      bench::LoadGenResult last;
      for (const std::size_t n : kThreadCounts) {
        last = hammer(counter, n, opts.smoke);
        per_token_rates.push_back(last.ops_per_sec);
        row.push_back(bench::fmt_rate(last.ops_per_sec));
      }
      per_token_at8 = per_token_rates.back();
      row.push_back(bench::fmt_ns(last.p50_ns));
      row.push_back("1.00x");
      table.add_row(row);
    }
    for (const std::size_t k : {8u, 64u}) {
      rt::NetworkCounter counter(net, "batched C(8,24)");
      std::vector<std::string> row = {"batch k=" + std::to_string(k)};
      bench::LoadGenResult last;
      for (const std::size_t n : kThreadCounts) {
        last = hammer_batch(counter, n, k, opts.smoke);
        row.push_back(bench::fmt_rate(last.ops_per_sec));
      }
      if (k == 64) batched_at8 = last.ops_per_sec;
      row.push_back(bench::fmt_ns(last.p50_ns));
      row.push_back(util::fmt_double(last.ops_per_sec / per_token_at8, 2) +
                    "x");
      table.add_row(row);
    }
    bench::emit(table, opts);
  }
  std::printf("\nbatched (k=64) vs per-token at n=8 threads: %.2fx %s\n",
              batched_at8 / per_token_at8,
              batched_at8 >= 2.0 * per_token_at8 ? "(>= 2x target met)"
                                                 : "(below 2x target)");
  bench::check("batched >= 2x per-token at n=8",
               batched_at8 >= 2.0 * per_token_at8, opts);
  return bench::finish(opts);
}
