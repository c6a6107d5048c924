// Load balancing through a counting network — the first motivating
// application in paper §1.1.
//
// A pool of producer threads dispatches jobs to `t` worker queues. Routing
// each job through C(w, t) and enqueueing it on the exit wire's queue
// guarantees (by the step property) that queue lengths never differ by more
// than one — without any central dispatcher. We contrast this with random
// assignment, whose imbalance grows like sqrt(m).
//
// Build & run:  ./examples/load_balancing [jobs-per-thread]
//               (1..10000000, default 20000)
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "cnet/core/counting.hpp"
#include "cnet/runtime/compiled_network.hpp"
#include "cnet/util/cacheline.hpp"
#include "cnet/util/prng.hpp"

namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kWidthIn = 8;
constexpr std::size_t kQueues = 16;  // t = 2w

struct QueueLengths {
  std::vector<cnet::util::Padded<std::atomic<std::int64_t>>> len{kQueues};
  std::int64_t min() const {
    std::int64_t m = len[0].value.load();
    for (const auto& q : len) m = std::min(m, q.value.load());
    return m;
  }
  std::int64_t max() const {
    std::int64_t m = len[0].value.load();
    for (const auto& q : len) m = std::max(m, q.value.load());
    return m;
  }
};

}  // namespace

int main(int argc, char** argv) {
  // Range-check as a signed value before any thread starts: a negative
  // count cast to size_t would dispatch for hours, and zero jobs would
  // pass the balance check vacuously.
  constexpr long long kMaxJobsPerThread = 10'000'000;
  const long long jobs_arg = argc > 1 ? std::atoll(argv[1]) : 20000;
  if (jobs_arg < 1 || jobs_arg > kMaxJobsPerThread) {
    std::fprintf(stderr,
                 "usage: load_balancing [1<=jobs-per-thread<=%lld]\n",
                 kMaxJobsPerThread);
    return 2;
  }
  const auto jobs_per_thread = static_cast<std::size_t>(jobs_arg);

  // Network-balanced dispatch.
  const auto topology = cnet::core::make_counting(kWidthIn, kQueues);
  cnet::rt::CompiledNetwork net(topology);
  QueueLengths balanced;
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (std::size_t i = 0; i < jobs_per_thread; ++i) {
          const std::size_t q = net.traverse(
              t % kWidthIn, cnet::rt::BalancerMode::kFetchAdd, nullptr);
          balanced.len[q].value.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }

  // Random dispatch baseline.
  QueueLengths random;
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        cnet::util::Xoshiro256 rng(0xD15F + t);
        for (std::size_t i = 0; i < jobs_per_thread; ++i) {
          random.len[rng.below(kQueues)].value.fetch_add(
              1, std::memory_order_relaxed);
        }
      });
    }
  }

  const auto total =
      static_cast<std::int64_t>(kThreads * jobs_per_thread);
  std::printf("dispatched %lld jobs to %zu queues from %zu threads\n\n",
              static_cast<long long>(total), kQueues, kThreads);
  std::printf("%-22s %8s %8s %10s\n", "dispatcher", "min", "max",
              "imbalance");
  std::printf("%-22s %8lld %8lld %10lld\n", "counting-network C(8,16)",
              static_cast<long long>(balanced.min()),
              static_cast<long long>(balanced.max()),
              static_cast<long long>(balanced.max() - balanced.min()));
  std::printf("%-22s %8lld %8lld %10lld\n", "uniform random",
              static_cast<long long>(random.min()),
              static_cast<long long>(random.max()),
              static_cast<long long>(random.max() - random.min()));

  // The step property guarantees imbalance <= 1.
  const bool ok = balanced.max() - balanced.min() <= 1;
  std::printf("\ncounting-network imbalance <= 1: %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
