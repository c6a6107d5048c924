// Schedule-checker driver: the central counters.
//
// The value words of AtomicCounter and CasCounter are util::Atomic, so every
// fetch_add, bounded-decrement CAS and CasCounter retry is one explored
// step. Each scenario runs once per counter. The invariants are the ones
// the admission stack leans on when it puts a central counter under a
// token pool: a decrement never takes a token that is not there, a batch
// is one contiguous block, and a bulk decrement racing a batch conserves
// tokens exactly.
#include <cstdint>
#include <memory>

#include "cnet/check/driver.hpp"
#include "cnet/runtime/central.hpp"
#include "cnet/util/ensure.hpp"

namespace {

using cnet::check::Expect;
using cnet::check::Scenario;
using cnet::check::TestContext;
using cnet::rt::AtomicCounter;
using cnet::rt::CasCounter;
using cnet::rt::Counter;

std::uint64_t drain(Counter& pool) {
  std::uint64_t drained = 0;
  for (std::uint64_t got; (got = pool.try_fetch_decrement_n(0, 8)) != 0;) {
    drained += got;
  }
  return drained;
}

// A pool of one: a try-decrement races a 2-token refund_n. The seed is
// never taken by anyone else, so the decrement must succeed; a drain
// afterwards must find exactly the other two.
template <class C>
void decrement_vs_refund(TestContext& ctx) {
  auto pool = std::make_shared<C>();
  pool->refund_n(0, 1);
  auto took = std::make_shared<bool>(false);
  ctx.spawn([pool, took] { *took = pool->try_fetch_decrement(1); });
  ctx.spawn([pool] { pool->refund_n(0, 2); });
  ctx.join_all();
  CNET_ENSURE(*took, "try-decrement failed on a pool that held a token");
  CNET_ENSURE(drain(*pool) == 2,
              "drain after the race is not exactly seed + refund - taken");
}

// Two batches of 2 and 3: each is one contiguous block, and together they
// tile {0..4} with no gap and no duplicate.
template <class C>
void disjoint_batches(TestContext& ctx) {
  auto counter = std::make_shared<C>();
  auto a = std::make_shared<std::int64_t[]>(2);
  auto b = std::make_shared<std::int64_t[]>(3);
  ctx.spawn([counter, a] { counter->fetch_increment_batch(0, 2, a.get()); });
  ctx.spawn([counter, b] { counter->fetch_increment_batch(1, 3, b.get()); });
  ctx.join_all();
  CNET_ENSURE(a[1] == a[0] + 1 && b[1] == b[0] + 1 && b[2] == b[0] + 2,
              "a batch is not one contiguous block");
  CNET_ENSURE((a[0] == 0 && b[0] == 2) || (b[0] == 0 && a[0] == 3),
              "two batches did not tile {0..4} exactly");
}

// A pool of two: a bulk decrement of up to 3 races a 2-token batch. It
// gets the seed whatever the order, at most one batch token on top, and
// what it leaves is exactly what a drain finds.
template <class C>
void bulk_decrement_vs_batch(TestContext& ctx) {
  auto pool = std::make_shared<C>();
  pool->refund_n(0, 2);
  auto got = std::make_shared<std::uint64_t>(0);
  auto values = std::make_shared<std::int64_t[]>(2);
  ctx.spawn([pool, got] { *got = pool->try_fetch_decrement_n(0, 3); });
  ctx.spawn([pool, values] {
    pool->fetch_increment_batch(1, 2, values.get());
  });
  ctx.join_all();
  CNET_ENSURE(*got == 2 || *got == 3,
              "bulk decrement took a token that was not there, or missed "
              "the seed");
  CNET_ENSURE(*got + drain(*pool) == 4,
              "bulk decrement racing a batch lost or created a token");
}

}  // namespace

int main(int argc, char** argv) {
  return cnet::check::run_scenarios(
      {
          Scenario{"decrement_vs_refund/atomic", Expect::kClean,
                   decrement_vs_refund<AtomicCounter>},
          Scenario{"decrement_vs_refund/cas", Expect::kClean,
                   decrement_vs_refund<CasCounter>},
          Scenario{"disjoint_batches/atomic", Expect::kClean,
                   disjoint_batches<AtomicCounter>},
          Scenario{"disjoint_batches/cas", Expect::kClean,
                   disjoint_batches<CasCounter>},
          Scenario{"bulk_decrement_vs_batch/atomic", Expect::kClean,
                   bulk_decrement_vs_batch<AtomicCounter>},
          Scenario{"bulk_decrement_vs_batch/cas", Expect::kClean,
                   bulk_decrement_vs_batch<CasCounter>},
      },
      argc, argv);
}
