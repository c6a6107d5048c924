// Rate-limited request gate: the svc::AdmissionController in front of an
// open-loop workload. One refiller thread feeds the token bucket at a fixed
// rate R while the other threads hammer admit(); whatever the offered load,
// the admitted rate is pinned at ~R and every admitted request carries a
// globally-unique ID from the sharded allocator. A miniature of the
// queueing-style serving scenario the ROADMAP aims at: arrival rate set by
// the refiller, service capacity set by the bucket.
//
// Usage: ./examples/rate_gate [backend] [threads] [rate]
//   backend: a backend kind (docs/OPERATIONS.md); a bad one prints
//            every known kind                   (default: batched-network)
//   threads: total threads incl. the refiller   (default: 5)
//   rate:    tokens/sec fed to the bucket       (default: 100000)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "cnet/svc/admission.hpp"
#include "cnet/util/cacheline.hpp"
#include "support/loadgen.hpp"

int main(int argc, char** argv) {
  const char* backend_name = argc > 1 ? argv[1] : "batched-network";
  const std::size_t threads =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 5;
  const double rate = argc > 3 ? std::atof(argv[3]) : 100000.0;

  const auto parsed = cnet::svc::parse_backend_kind(backend_name);
  if (!parsed.kind) {
    std::fprintf(stderr, "bad backend \"%s\": %s\n", backend_name,
                 parsed.error.c_str());
  }
  if (!parsed.kind || threads < 2 || threads > 256 || rate < 1.0) {
    std::fprintf(stderr,
                 "usage: rate_gate [<backend-kind>] [threads>=2] "
                 "[rate>=1]\n");
    return 2;
  }

  cnet::svc::AdmissionConfig cfg;
  cfg.backend = *parsed.kind;
  cfg.shards = 4;
  cfg.ids.max_threads = threads;
  cnet::svc::AdmissionController gate(cfg);

  // Lifetime tallies (warmup included), one padded slot per thread.
  struct alignas(cnet::util::kCacheLine) Tally {
    std::uint64_t attempts = 0;
    std::uint64_t refilled = 0;
    std::vector<std::int64_t> ids;
  };
  std::vector<Tally> tallies(threads);

  cnet::bench::LoadGenConfig lg;
  lg.threads = threads;
  lg.warmup_seconds = 0.2;
  lg.measure_seconds = 1.0;
  lg.latency_sample_every = 0;

  // Thread 0 drips tokens at `rate`; everyone else is offered load.
  const std::uint64_t chunk =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(rate / 200.0));
  const auto chunk_period = std::chrono::duration<double>(chunk / rate);
  const auto result = cnet::bench::run_loadgen(lg, [&](std::size_t t) {
    Tally& tally = tallies[t];
    if (t == 0) {
      tally.refilled += chunk;
      gate.refill(0, chunk);
      std::this_thread::sleep_for(chunk_period);
      return chunk;
    }
    ++tally.attempts;
    const auto ticket = gate.admit(t, 1);
    if (ticket.admitted) tally.ids.push_back(ticket.request_id);
    return std::uint64_t{1};
  });

  std::uint64_t attempts = 0, refilled = 0;
  std::vector<std::int64_t> ids;
  for (const auto& tally : tallies) {
    attempts += tally.attempts;
    refilled += tally.refilled;
    ids.insert(ids.end(), tally.ids.begin(), tally.ids.end());
  }
  const double wall = lg.warmup_seconds + result.seconds;

  std::printf("gate         : %s\n", gate.name().c_str());
  std::printf("threads      : %zu (1 refiller + %zu consumers)\n", threads,
              threads - 1);
  std::printf("token rate   : %.0f/s (refilled %llu over ~%.2fs)\n", rate,
              static_cast<unsigned long long>(refilled), wall);
  std::printf("offered      : %llu attempts (%s)\n",
              static_cast<unsigned long long>(attempts),
              cnet::bench::fmt_rate(attempts / wall).c_str());
  std::printf("admitted     : %zu (%s — pinned at the token rate)\n",
              ids.size(), cnet::bench::fmt_rate(ids.size() / wall).c_str());
  std::printf("rejected     : %llu\n",
              static_cast<unsigned long long>(attempts - ids.size()));
  std::printf("observed stalls: %llu\n",
              static_cast<unsigned long long>(gate.stall_count()));

  // Safety checks: never over-admit, and no request ID handed out twice.
  const bool bounded = ids.size() <= refilled;
  std::sort(ids.begin(), ids.end());
  const bool unique =
      std::adjacent_find(ids.begin(), ids.end()) == ids.end();
  std::printf("admitted <= refilled: %s\n", bounded ? "yes" : "VIOLATED");
  std::printf("request IDs unique  : %s\n", unique ? "yes" : "VIOLATED");
  return bounded && unique ? 0 : 1;
}
