// Schedule-checker driver: ReconfigEngine commit vs racing readers.
//
// The protocol under test is the RCU-style triangle: reader slot enter
// (seq_cst RMW) + active-pointer load vs the committer's publish + slot
// scan. The committer's migrate step poisons the *old* state after
// quiescence; the invariant is that no reader section ever observes the
// poison value (a reader that could would have been migrated under) or a
// torn half-written state, including when two readers share one slot.
// The last scenario runs the same protocol through NetTokenBucket, whose
// consume tallies share the engine's reader lines: consumes racing a
// respec commit on one shared line keep tokens conserved and the attempt
// and reject tallies exact.
#include <cstdint>
#include <memory>

#include "cnet/check/driver.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/net_token_bucket.hpp"
#include "cnet/svc/reconfig.hpp"
#include "cnet/util/atomic.hpp"
#include "cnet/util/ensure.hpp"

namespace {

using cnet::check::Expect;
using cnet::check::Scenario;
using cnet::check::TestContext;
using cnet::svc::BackendKind;
using cnet::svc::NetTokenBucket;
using cnet::svc::ReconfigEngine;

constexpr std::uint64_t kPoison = 999;

struct XY {
  cnet::util::Atomic<std::uint64_t> x;
  cnet::util::Atomic<std::uint64_t> y;
  explicit XY(std::uint64_t v) : x(v), y(v) {}
};

void reader(const std::shared_ptr<ReconfigEngine<XY>>& eng,
            std::size_t hint) {
  eng->read(hint, [](XY& s) {
    const std::uint64_t a = s.x.load();
    const std::uint64_t b = s.y.load();
    CNET_ENSURE(a != kPoison && b != kPoison,
                "reader section observed a migrated (quiescence-poisoned) "
                "state: commit did not wait for this reader");
    CNET_ENSURE(a == b, "reader observed a torn state");
    return 0;
  });
}

void committer(const std::shared_ptr<ReconfigEngine<XY>>& eng) {
  eng->commit(std::make_unique<XY>(2), [](XY& old, XY&) {
    // Runs only once the old state is quiescent; a reader still inside a
    // read section on `old` would trip the kPoison invariant above.
    old.x.store(kPoison);
    old.y.store(kPoison);
  });
}

void commit_vs_reader(TestContext& ctx) {
  auto eng = std::make_shared<ReconfigEngine<XY>>(std::make_unique<XY>(1));
  ctx.spawn([eng] { reader(eng, 0); });
  ctx.spawn([eng] { committer(eng); });
  ctx.join_all();
  CNET_ENSURE(eng->config_version() == 2, "commit did not bump the version");
  CNET_ENSURE(eng->current().x.load() == 2 && eng->current().y.load() == 2,
              "published state is not the staged one");
}

void two_readers(TestContext& ctx, std::size_t h0, std::size_t h1) {
  auto eng = std::make_shared<ReconfigEngine<XY>>(std::make_unique<XY>(1));
  ctx.spawn([eng, h0] { reader(eng, h0); });
  ctx.spawn([eng, h1] { reader(eng, h1); });
  ctx.spawn([eng] { committer(eng); });
  ctx.join_all();
  CNET_ENSURE(eng->config_version() == 2, "commit did not bump the version");
}

// Hints 0 and 1 land on the two distinct reader slots of a
// CNET_SCHED_CHECK build, so the quiescence scan must get both right.
void commit_vs_two_readers(TestContext& ctx) { two_readers(ctx, 0, 1); }

// Hints 0 and 2 both mask to slot 0 of a CNET_SCHED_CHECK build's two
// reader slots, as hints do whenever threads outnumber the host's cores:
// the scan must wait for that slot's count of 2 to drain, not 1.
void commit_vs_readers_sharing_a_slot(TestContext& ctx) {
  two_readers(ctx, 0, 2);
}

// Two single-token consumes on hints 0 and 2 race a respec committed from
// hint 2: all three share line 0 of a CNET_SCHED_CHECK build's two lines,
// so the reader counts, the attempt and reject tallies, and the commit's
// scan of that line interleave step by step. Central-atomic pools keep
// each pool op to a few explored steps. A consume may run on the new pool
// before the migration refunds into it and be rejected (the documented
// transient under-admit), so each outcome is free, but the counts are not:
// every token is granted once or still pooled, every consume is one
// attempt, and every zero return is one reject.
void consume_vs_respec_tallies(TestContext& ctx) {
  constexpr std::uint64_t kInitial = 2;
  auto bucket = std::make_shared<NetTokenBucket>(
      cnet::svc::make_counter(BackendKind::kCentralAtomic),
      NetTokenBucket::Config{kInitial, 1});
  auto got = std::make_shared<std::uint64_t[]>(2);
  ctx.spawn([bucket, got] { got[0] = bucket->consume(0, 1); });
  ctx.spawn([bucket, got] { got[1] = bucket->consume(2, 1); });
  ctx.spawn([bucket] {
    bucket->respec(2, {BackendKind::kCentralAtomic, {}, 1});
  });
  ctx.join_all();
  CNET_ENSURE(bucket->config_version() == 2, "respec did not commit");
  std::uint64_t remaining = 0;
  while (bucket->consume(1, 1) == 1) ++remaining;
  CNET_ENSURE(got[0] + got[1] + remaining == kInitial,
              "tokens leaked or were minted across the respec");
  CNET_ENSURE(bucket->consume_attempts() == 3 + remaining,
              "a consume attempt was lost or counted twice");
  const std::uint64_t rejected = (got[0] == 0) + (got[1] == 0) + 1;
  CNET_ENSURE(bucket->consume_rejects() == rejected,
              "a reject was lost or counted twice");
}

}  // namespace

int main(int argc, char** argv) {
  return cnet::check::run_scenarios(
      {
          Scenario{"commit_vs_reader", Expect::kClean, commit_vs_reader},
          Scenario{"commit_vs_two_readers", Expect::kClean,
                   commit_vs_two_readers},
          Scenario{"commit_vs_readers_sharing_a_slot", Expect::kClean,
                   commit_vs_readers_sharing_a_slot},
          Scenario{"consume_vs_respec_tallies", Expect::kClean,
                   consume_vs_respec_tallies},
      },
      argc, argv);
}
