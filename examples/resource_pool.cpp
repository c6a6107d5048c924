// A concurrent resource pool on top of Fetch&Increment / Fetch&Decrement
// (paper §1.4.2): acquiring a resource draws a slot index from the
// counting-network counter; releasing it sends an antitoken through the
// network, which reclaims the most recent slot, semaphore-style.
//
// The demo runs worker threads that acquire up to `capacity` outstanding
// slots (guarded by a semaphore so the outstanding count never goes
// negative, the precondition of Fetch&Decrement) and verifies that after
// all workers drain the pool, the counter is back at zero.
//
// Build & run:  ./examples/resource_pool [workers] [ops-per-worker]
//   workers:         worker threads, 1..256         (default: 6)
//   ops-per-worker:  acquire/release cycles, >= 1   (default: 5000)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <semaphore>
#include <thread>
#include <vector>

#include "cnet/core/counting.hpp"
#include "cnet/runtime/network_counter.hpp"

int main(int argc, char** argv) {
  // Range-check as signed values first: a negative count cast to size_t
  // would start billions of threads.
  const long long workers_arg = argc > 1 ? std::atoll(argv[1]) : 6;
  const long long ops_arg = argc > 2 ? std::atoll(argv[2]) : 5000;
  if (workers_arg < 1 || workers_arg > 256 || ops_arg < 1) {
    std::fprintf(stderr,
                 "usage: resource_pool [1<=workers<=256] "
                 "[ops-per-worker>=1]\n");
    return 2;
  }
  const auto workers = static_cast<std::size_t>(workers_arg);
  const auto ops = static_cast<std::size_t>(ops_arg);
  constexpr std::ptrdiff_t kCapacity = 64;

  cnet::rt::NetworkCounter counter(cnet::core::make_counting(8, 16),
                                   "C(8,16)");
  // counting_semaphore enforces inc-count >= dec-count (the §1.4.2
  // precondition); the counting network hands out/reclaims the slots.
  std::counting_semaphore<kCapacity> available(kCapacity);
  std::vector<std::int64_t> peaks(workers, 0);

  {
    std::vector<std::jthread> team;
    for (std::size_t t = 0; t < workers; ++t) {
      team.emplace_back([&, t] {
        for (std::size_t i = 0; i < ops; ++i) {
          available.acquire();
          const std::int64_t slot = counter.fetch_increment(t);
          peaks[t] = std::max(peaks[t], slot);
          // ... use resource `slot % kCapacity` ...
          (void)counter.fetch_decrement(t);
          available.release();
        }
      });
    }
  }
  std::int64_t peak = 0;
  for (const auto p : peaks) peak = std::max(peak, p);

  // Fully drained: the next acquisition must restart at 0.
  const std::int64_t probe = counter.fetch_increment(0);
  std::printf("%zu workers x %zu acquire/release cycles through %s\n",
              workers, ops, counter.name().c_str());
  std::printf("highest outstanding slot seen: %lld (capacity %lld)\n",
              static_cast<long long>(peak),
              static_cast<long long>(kCapacity));
  std::printf("post-drain probe ticket: %lld (expected 0): %s\n",
              static_cast<long long>(probe),
              probe == 0 ? "PASS" : "FAIL");
  return probe == 0 ? 0 : 1;
}
