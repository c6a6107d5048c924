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
//
// --smoke shrinks measurement windows and sweeps so CI can exercise every
// code path in seconds; numbers from a smoke run are meaningless.
#include <string>
#include <thread>
#include <vector>

#include "cnet/svc/admission.hpp"
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
double bucket_rate(svc::BackendKind kind, std::size_t threads, bool smoke) {
  svc::NetTokenBucket bucket(svc::make_counter(kind),
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
                      bool smoke) {
  svc::AdmissionConfig cfg;
  cfg.backend = kind;
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
  return bench::finish(opts);
}
