// Service-layer throughput: the svc building blocks under live threads via
// the LoadGen harness, each swept across every counter backend kind.
//
// Table A — ShardedIdAllocator: sustained allocate() IDs/sec as the shard
//           count grows (the dynomite-style composition: N counters,
//           stride-N residue classes, per-thread affinity + batched refill).
// Table B — NetTokenBucket: consume(1)/sec under a balanced refill/consume
//           load at several thread counts. The headline comparison: a
//           counting-network pool spreads admission across wires and exit
//           cells, a central pool serializes every decision on one word.
// Table C — AdmissionController: end-to-end admit() (bucket charge + unique
//           request ID) at a fixed thread count.
// Table S — the counting-network shape trade-off behind the host-sized
//           default (util::counting_shape): Theorem 4.1 depth, balancer
//           count and the Theorem 6.7 contention bound for n = 1 to 2x the
//           CPUs (S1), then live Table B/C rates for each shape at 1-4
//           threads (S2).
//
// --smoke shrinks measurement windows and sweeps so CI can exercise every
// code path in seconds; numbers from a smoke run are meaningless.
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "cnet/analysis/bounds.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/svc/admission.hpp"
#include "cnet/util/scatter.hpp"
#include "cnet/util/table.hpp"
#include "support/loadgen.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

svc::ShardedIdAllocator make_allocator(svc::BackendKind kind,
                                       std::size_t shards,
                                       std::size_t max_threads) {
  std::vector<std::unique_ptr<rt::Counter>> counters;
  for (std::size_t s = 0; s < shards; ++s) {
    counters.push_back(svc::make_counter(kind));
  }
  return svc::ShardedIdAllocator(
      std::move(counters), {.max_threads = max_threads, .refill_batch = 16});
}

bench::LoadGenConfig loadgen_config(std::size_t threads, bool smoke) {
  bench::LoadGenConfig cfg;
  cfg.threads = threads;
  cfg.warmup_seconds = smoke ? 0.01 : 0.15;
  cfg.measure_seconds = smoke ? 0.04 : 0.6;
  // A loaded CI runner can swallow the whole smoke window before a thread
  // runs once; the floor keeps every cell non-vacuous.
  cfg.min_ops_per_thread = 64;
  cfg.latency_sample_every = 0;  // pure throughput
  return cfg;
}

double allocator_rate(svc::BackendKind kind, std::size_t shards,
                      std::size_t threads, bool smoke) {
  auto alloc = make_allocator(kind, shards, threads);
  const auto result =
      bench::run_loadgen(loadgen_config(threads, smoke), [&](std::size_t t) {
        (void)alloc.allocate(t);
        return std::uint64_t{1};
      });
  return result.ops_per_sec;
}

// Balanced load: each thread tops the pool up by its own consumption in
// 256-token batches, so the pool hovers near its initial level and the
// measured rate is the cost of the consume+refill mechanism itself.
double bucket_rate(svc::BackendKind kind, std::size_t threads, bool smoke,
                   const svc::BackendConfig& net = {}) {
  svc::NetTokenBucket bucket(svc::make_counter(kind, net),
                             {.initial_tokens = 256 * threads});
  std::vector<cnet::util::Padded<std::uint64_t>> since_refill(threads);
  const auto result =
      bench::run_loadgen(loadgen_config(threads, smoke), [&](std::size_t t) {
        if (++since_refill[t].value == 256) {
          since_refill[t].value = 0;
          bucket.refill(t, 256);
        }
        return bucket.consume(t, 1, svc::kPartialOk);
      });
  return result.ops_per_sec;
}

double admission_rate(svc::BackendKind kind, std::size_t threads,
                      bool smoke, const svc::BackendConfig& net = {}) {
  svc::AdmissionConfig cfg;
  cfg.backend = kind;
  cfg.net = net;
  cfg.shards = 4;
  cfg.ids.max_threads = threads;
  // Balanced like bucket_rate(): each thread replaces what it admits, so
  // the gate stays open by construction however fast the backend is.
  cfg.bucket.initial_tokens = 256 * threads;
  svc::AdmissionController ctl(cfg);
  std::vector<cnet::util::Padded<std::uint64_t>> since_refill(threads);
  const auto result =
      bench::run_loadgen(loadgen_config(threads, smoke), [&](std::size_t t) {
        if (++since_refill[t].value == 256) {
          since_refill[t].value = 0;
          ctl.refill(t, 256);
        }
        return std::uint64_t{ctl.admit(t, 1).admitted ? 1u : 0u};
      });
  return result.ops_per_sec;
}

std::string shape_name(util::CountingShape shape) {
  return "C(" + std::to_string(shape.width_in) + "," +
         std::to_string(shape.width_out) + ")";
}

// The shapes Table S compares: the rule's C(w, w·lg w) picks for w = 2, 4
// and 8, and the bitonic C(w,w) of the two larger widths.
constexpr util::CountingShape kTableShapes[] = {
    {2, 2}, {4, 4}, {4, 8}, {8, 8}, {8, 24}};

void shape_tables(const bench::ReportOptions& opts) {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const util::CountingShape host = util::counting_shape();
  bench::section("Table S1: counting-network shapes, Theorem 4.1 depth and "
                 "Theorem 6.7 contention bound at n processes");
  bool depth_ok = true;
  {
    std::vector<std::string> header{"shape", "depth", "balancers"};
    for (unsigned n = 1; n <= 2 * cpus; ++n) {
      header.push_back("n=" + std::to_string(n));
    }
    util::Table table(header);
    for (const auto shape : kTableShapes) {
      const std::size_t w = shape.width_in, t = shape.width_out;
      const auto net = core::make_counting(w, t);
      depth_ok = depth_ok && net.depth() == analysis::counting_depth(w) &&
                 net.num_balancers() == analysis::counting_balancers(w, t);
      std::vector<std::string> row{
          shape_name(shape) + (shape.width_in == host.width_in &&
                                       shape.width_out == host.width_out
                                   ? " (default)"
                                   : ""),
          util::fmt_int(static_cast<std::int64_t>(net.depth())),
          util::fmt_int(static_cast<std::int64_t>(net.num_balancers()))};
      for (unsigned n = 1; n <= 2 * cpus; ++n) {
        row.push_back(
            util::fmt_double(analysis::counting_contention_bound(w, t, n), 1));
      }
      table.add_row(row);
    }
    bench::emit(table, opts);
  }
  bench::check("depth_matches_thm41", depth_ok, opts);
  // The default BackendConfig carries the rule's shape for this host.
  const svc::BackendConfig defaults;
  const util::CountingShape rule =
      util::kSchedCheckEnabled
          ? util::counting_shape_for(0)
          : util::counting_shape_for(std::thread::hardware_concurrency());
  bench::check("default_shape_follows_rule",
               defaults.width_in == rule.width_in &&
                   defaults.width_out == rule.width_out &&
                   core::is_valid_counting_params(rule.width_in,
                                                  rule.width_out),
               opts);
  bench::note("\nthis host: " + std::to_string(cpus) +
                  " hardware threads, default " + shape_name(host) +
                  "; depth = (lg^2 w + lg w)/2 depends on w alone",
              opts);

  std::puts("");
  const std::vector<std::size_t> thread_sweep =
      opts.smoke ? std::vector<std::size_t>{2}
                 : std::vector<std::size_t>{1, 2, 3, 4};
  bench::section("Table S2: batched-network shapes, live Table B consume(1)"
                 "/sec and Table C admit()/sec");
  {
    std::vector<std::string> header{"shape"};
    for (const auto t : thread_sweep) {
      header.push_back("B " + std::to_string(t) + " thr");
    }
    for (const auto t : thread_sweep) {
      header.push_back("C " + std::to_string(t) + " thr");
    }
    util::Table table(header);
    for (const auto shape : kTableShapes) {
      const svc::BackendConfig net{.width_in = shape.width_in,
                                   .width_out = shape.width_out};
      std::vector<std::string> row{shape_name(shape)};
      for (const auto threads : thread_sweep) {
        row.push_back(bench::fmt_rate(bucket_rate(
            svc::BackendKind::kBatchedNetwork, threads, opts.smoke, net)));
      }
      for (const auto threads : thread_sweep) {
        row.push_back(bench::fmt_rate(admission_rate(
            svc::BackendKind::kBatchedNetwork, threads, opts.smoke, net)));
      }
      table.add_row(row);
    }
    bench::emit(table, opts);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);

  const std::vector<std::size_t> shard_sweep =
      opts.smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{1, 4, 8};
  const std::size_t alloc_threads = opts.smoke ? 2 : 8;

  bench::section("Table A: ShardedIdAllocator IDs/sec, " +
                 std::to_string(alloc_threads) + " threads");
  {
    std::vector<std::string> header{"backend"};
    for (const auto s : shard_sweep) {
      header.push_back(std::to_string(s) + " shard" + (s == 1 ? "" : "s"));
    }
    util::Table table(header);
    for (const auto kind : svc::kAllBackendKinds) {
      std::vector<std::string> row{svc::backend_kind_name(kind)};
      for (const auto shards : shard_sweep) {
        row.push_back(
            bench::fmt_rate(allocator_rate(kind, shards, alloc_threads,
                                           opts.smoke)));
      }
      table.add_row(row);
    }
    bench::emit(table, opts);
    bench::note(
        "\nexpected shape: sharding multiplies every backend; network\n"
        "backends additionally spread each shard's traffic across wires.",
        opts);
  }

  std::puts("");
  const std::vector<std::size_t> thread_sweep =
      opts.smoke ? std::vector<std::size_t>{2}
                 : std::vector<std::size_t>{1, 4, 16};
  bench::section("Table B: NetTokenBucket consume(1)/sec, balanced refill");
  // The ratios are taken at the widest sweep point and printed as measured:
  // whether the network beats the central word depends on the host's core
  // count, and this table makes no promise either way.
  const std::size_t ratio_threads = thread_sweep.back();
  double central = 0.0, batched = 0.0;
  {
    std::vector<std::string> header{"backend"};
    for (const auto t : thread_sweep) {
      header.push_back(std::to_string(t) + " thr");
    }
    util::Table table(header);
    for (const auto kind : svc::kAllBackendKinds) {
      std::vector<std::string> row{svc::backend_kind_name(kind)};
      for (const auto threads : thread_sweep) {
        const double rate = bucket_rate(kind, threads, opts.smoke);
        if (threads == ratio_threads) {
          if (kind == svc::BackendKind::kCentralAtomic) central = rate;
          if (kind == svc::BackendKind::kBatchedNetwork) batched = rate;
        }
        row.push_back(bench::fmt_rate(rate));
      }
      table.add_row(row);
    }
    bench::emit(table, opts);
    if (central > 0.0) {
      bench::note("\nmeasured at " + std::to_string(ratio_threads) +
                      " threads on " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      " hardware threads: batched/central-atomic " +
                      util::fmt_ratio(batched, central, 2),
                  opts);
    }
  }

  std::puts("");
  bench::section("Table C: AdmissionController admit()/sec, 4 shards");
  {
    const std::size_t threads = opts.smoke ? 2 : 8;
    util::Table table({"backend", std::to_string(threads) + " thr"});
    for (const auto kind : svc::kAllBackendKinds) {
      table.add_row({svc::backend_kind_name(kind),
                     bench::fmt_rate(admission_rate(kind, threads,
                                                    opts.smoke))});
    }
    bench::emit(table, opts);
    bench::note(
        "\nexpected shape: admit = bucket charge + cached ID allocation,\n"
        "so rates track Table B with a small constant overhead.", opts);
  }

  std::puts("");
  shape_tables(opts);
  return bench::finish(opts);
}
