// Schedule-checker driver: the counting-network hot path.
//
// Balancer state words and exit cells are util::Atomic, so every balancer
// step of a traversal and every exit-cell claim is one explored step. The
// networks are tiny — C(2,2) and C(2,6) are one balancer, C(4,4) six — to
// keep whole traversals inside the preemption bound. The invariants are the
// paper's counting property for racing increments, the pool's
// never-over-admit bound for an antitoken racing a batched give-back or
// racing tokens through a fanout that is not a power of two, and
// independence of counters that share one compiled shape.
#include <cstdint>
#include <memory>

#include "cnet/check/driver.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/runtime/network_counter.hpp"
#include "cnet/util/ensure.hpp"

namespace {

using cnet::check::Expect;
using cnet::check::Scenario;
using cnet::check::TestContext;
using cnet::rt::CompiledShape;
using cnet::rt::NetworkCounter;

std::shared_ptr<const CompiledShape> counting_shape(std::size_t w,
                                                    std::size_t t) {
  return std::make_shared<const CompiledShape>(
      cnet::core::make_counting(w, t));
}

// Two tokens enter C(4,4) on different wires at once: quiescent, the
// network has handed out exactly {0, 1}.
void two_increments(TestContext& ctx) {
  auto counter =
      std::make_shared<NetworkCounter>(counting_shape(4, 4), "C(4,4)");
  auto got = std::make_shared<std::int64_t[]>(2);
  ctx.spawn([counter, got] { got[0] = counter->fetch_increment(0); });
  ctx.spawn([counter, got] { got[1] = counter->fetch_increment(1); });
  ctx.join_all();
  CNET_ENSURE((got[0] == 0 && got[1] == 1) || (got[0] == 1 && got[1] == 0),
              "racing increments did not hand out exactly {0, 1}");
}

// A pool seeded with one token: a try-decrement races a 2-token refund_n
// batch pass. The seed is never taken by anyone else, so the decrement
// must succeed; a drain afterwards must find exactly the other two.
void decrement_vs_refund(TestContext& ctx) {
  auto pool =
      std::make_shared<NetworkCounter>(counting_shape(2, 2), "C(2,2)");
  pool->refund_n(0, 1);
  auto took = std::make_shared<bool>(false);
  ctx.spawn([pool, took] { *took = pool->try_fetch_decrement(1); });
  ctx.spawn([pool] { pool->refund_n(0, 2); });
  ctx.join_all();
  CNET_ENSURE(*took, "try-decrement failed on a pool that held a token");
  std::uint64_t drained = 0;
  for (std::uint64_t got; (got = pool->try_fetch_decrement_n(0, 8)) != 0;) {
    drained += got;
  }
  CNET_ENSURE(drained == 2,
              "drain after the race is not exactly seed + refund - taken "
              "(over-admitted or lost a token)");
}

// C(2,6) is one (2,6)-balancer, so every step takes the general divide
// route rather than the power-of-two mask. Two tokens race an antitoken on
// an empty pool: the try-decrement takes at most one of the two tokens,
// and a drain afterwards finds exactly the rest.
void general_fanout(TestContext& ctx) {
  auto pool =
      std::make_shared<NetworkCounter>(counting_shape(2, 6), "C(2,6)");
  auto took = std::make_shared<bool>(false);
  ctx.spawn([pool] { pool->fetch_increment(0); });
  ctx.spawn([pool] { pool->fetch_increment(1); });
  ctx.spawn([pool, took] { *took = pool->try_fetch_decrement(1); });
  ctx.join_all();
  std::uint64_t drained = 0;
  for (std::uint64_t got; (got = pool->try_fetch_decrement_n(0, 8)) != 0;) {
    drained += got;
  }
  CNET_ENSURE(drained + (*took ? 1 : 0) == 2,
              "drain after the race is not exactly increments - taken "
              "(over-admitted or lost a token)");
}

// Two counters on one compiled shape, one thread each: they share wiring,
// not state, so each hands out 0.
void shared_shape(TestContext& ctx) {
  const auto shape = counting_shape(2, 2);
  auto a = std::make_shared<NetworkCounter>(shape, "a");
  auto b = std::make_shared<NetworkCounter>(shape, "b");
  auto got = std::make_shared<std::int64_t[]>(2);
  ctx.spawn([a, got] { got[0] = a->fetch_increment(0); });
  ctx.spawn([b, got] { got[1] = b->fetch_increment(1); });
  ctx.join_all();
  CNET_ENSURE(got[0] == 0 && got[1] == 0,
              "counters sharing a shape leaked state into each other");
}

}  // namespace

int main(int argc, char** argv) {
  return cnet::check::run_scenarios(
      {
          Scenario{"two_increments", Expect::kClean, two_increments},
          Scenario{"decrement_vs_refund", Expect::kClean, decrement_vs_refund},
          Scenario{"shared_shape", Expect::kClean, shared_shape},
          Scenario{"general_fanout", Expect::kClean, general_fanout},
      },
      argc, argv);
}
