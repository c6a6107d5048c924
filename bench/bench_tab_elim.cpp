// Elimination front-end under mixed inc/dec load — the svc layer this
// bench exists to keep honest.
//
// Table A — hit-rate vs thread count: a 50/50 fetch_increment /
//           try_fetch_decrement mix on the batched network backend, with
//           and without the ElimCounter front-end. The elimination claims:
//           hit-rate > 0 once ≥2 threads collide, and network traversals
//           per op strictly below the plain backend's (paired ops never
//           enter the network).
// Table B — hit-rate vs mix ratio at a fixed thread count: collisions need
//           both streams, so the hit-rate should rise toward the balanced
//           50% mix and starve at inc-only.
//
// After every run the conservation invariant is drained and recorded as a
// named check (--json + exit code), which CI gates on: successful
// decrements plus what remains in the pool must equal the increments,
// elimination included.
#include <cstdint>
#include <string>
#include <vector>

#include "cnet/svc/backend.hpp"
#include "cnet/svc/elimination.hpp"
#include "cnet/util/cacheline.hpp"
#include "cnet/util/prng.hpp"
#include "cnet/util/table.hpp"
#include "support/loadgen.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

struct MixedRunResult {
  double ops_per_sec = 0.0;
  std::uint64_t incs = 0;
  std::uint64_t decs = 0;        // successful decrements only
  std::uint64_t ops = 0;         // incs + dec attempts (lifetime)
  std::uint64_t pairs = 0;       // eliminated inc/dec pairs
  std::uint64_t traversals = 0;  // tokens/antitokens into the network
  bool conserved = false;        // decs + drained remainder == incs
};

// Runs a mixed workload — each op is a decrement attempt with probability
// dec_percent/100, an increment otherwise — then drains the counter and
// verifies conservation.
MixedRunResult run_mixed(const svc::BackendSpec& spec, std::size_t threads,
                         unsigned dec_percent, bool smoke) {
  svc::BackendConfig cfg;
  // One exchange slot per thread: undersized arrays collapse when the
  // machine is oversubscribed and parked waiters hold every slot (see
  // EliminationLayer::Config::slots).
  cfg.elim.layer.slots = threads;
  const auto counter = svc::make_counter(spec, cfg);
  const auto* elim = dynamic_cast<const svc::ElimCounter*>(counter.get());

  struct alignas(util::kCacheLine) Tally {
    std::uint64_t incs = 0;
    std::uint64_t decs = 0;
    std::uint64_t ops = 0;
    std::uint64_t rng = 0;
  };
  std::vector<Tally> tallies(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    tallies[t].rng = 0x9e3779b97f4a7c15ULL * (t + 1) + 0xe11b;
  }

  bench::LoadGenConfig lg;
  lg.threads = threads;
  lg.warmup_seconds = smoke ? 0.01 : 0.1;
  lg.measure_seconds = smoke ? 0.05 : 0.5;
  // Smoke windows are small enough for a loaded CI runner to swallow
  // whole; the floor keeps every row non-vacuous.
  lg.min_ops_per_thread = 64;
  lg.latency_sample_every = 0;
  const auto loadgen = bench::run_loadgen(lg, [&](std::size_t t) {
    Tally& tally = tallies[t];
    ++tally.ops;
    if (util::xorshift64_star(tally.rng) % 100 < dec_percent) {
      if (counter->try_fetch_decrement(t)) ++tally.decs;
    } else {
      (void)counter->fetch_increment(t);
      ++tally.incs;
    }
    return std::uint64_t{1};
  });

  MixedRunResult result;
  result.ops_per_sec = loadgen.ops_per_sec;
  for (const auto& tally : tallies) {
    result.incs += tally.incs;
    result.decs += tally.decs;
    result.ops += tally.ops;
  }
  result.pairs = elim != nullptr ? elim->layer().pairs() : 0;
  result.traversals = counter->traversal_count();

  // Quiescent drain: everything the run left in the pool must be exactly
  // the inc/dec imbalance — elimination must not create or leak tokens.
  std::uint64_t drained = 0;
  for (std::uint64_t got;
       (got = counter->try_fetch_decrement_n(0, 256)) != 0;) {
    drained += got;
  }
  result.conserved = result.decs + drained == result.incs;
  return result;
}

std::string hit_rate_cell(const MixedRunResult& r) {
  // Both sides of a pair are eliminated ops.
  return util::fmt_double(
             r.ops == 0 ? 0.0
                        : 100.0 * 2.0 * static_cast<double>(r.pairs) /
                              static_cast<double>(r.ops),
             1) +
         "%";
}

std::string trav_per_op_cell(const MixedRunResult& r) {
  return util::fmt_double(r.ops == 0 ? 0.0
                                     : static_cast<double>(r.traversals) /
                                           static_cast<double>(r.ops),
                          3);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);

  const svc::BackendSpec plain{svc::BackendKind::kBatchedNetwork, false};
  const svc::BackendSpec elim{svc::BackendKind::kBatchedNetwork, true};

  const std::vector<std::size_t> thread_sweep =
      opts.smoke ? std::vector<std::size_t>{4}
                 : std::vector<std::size_t>{2, 4, 8};
  bench::section("Table A: elimination vs threads, 50/50 inc/dec mix");
  {
    util::Table table(
        {"backend", "thr", "ops/s", "hit-rate", "trav/op", "conserved"});
    for (const auto threads : thread_sweep) {
      for (const auto& spec : {plain, elim}) {
        const auto r = run_mixed(spec, threads, 50, opts.smoke);
        table.add_row({svc::backend_spec_name(spec), util::fmt_int(threads),
                       bench::fmt_rate(r.ops_per_sec), hit_rate_cell(r),
                       trav_per_op_cell(r), r.conserved ? "yes" : "NO"});
        // `ops > 0` folded in: a zero-op run conserves vacuously, and a
        // vacuous pass must read as a failure, not a green check.
        bench::check("A:conservation[" + svc::backend_spec_name(spec) + "," +
                         std::to_string(threads) + "thr,50%dec]",
                     r.conserved && r.ops > 0, opts);
      }
    }
    bench::emit(table, opts);
    bench::note(
        "\nexpected shape: elim+ rows show hit-rate > 0 at >= 2 threads and\n"
        "strictly fewer network traversals per op — paired inc/dec ops\n"
        "cancel in the exchange slots and never enter the network. (On a\n"
        "single-core box the waiter's spin budget costs wall-clock, so the\n"
        "ops/s win needs real parallelism even though the traversal and\n"
        "hit-rate columns already show the mechanism working.)",
        opts);
  }

  std::puts("");
  const std::size_t mix_threads = 4;
  const std::vector<unsigned> mix_sweep =
      opts.smoke ? std::vector<unsigned>{50}
                 : std::vector<unsigned>{0, 25, 50};
  bench::section("Table B: elimination vs mix ratio, " +
                 std::to_string(mix_threads) + " threads");
  {
    util::Table table(
        {"backend", "dec%", "ops/s", "hit-rate", "trav/op", "conserved"});
    for (const auto dec_percent : mix_sweep) {
      const auto r = run_mixed(elim, mix_threads, dec_percent, opts.smoke);
      table.add_row({svc::backend_spec_name(elim),
                     util::fmt_int(dec_percent),
                     bench::fmt_rate(r.ops_per_sec), hit_rate_cell(r),
                     trav_per_op_cell(r), r.conserved ? "yes" : "NO"});
      bench::check("B:conservation[" + svc::backend_spec_name(elim) + "," +
                       std::to_string(mix_threads) + "thr," +
                       std::to_string(dec_percent) + "%dec]",
                   r.conserved && r.ops > 0, opts);
    }
    bench::emit(table, opts);
    bench::note(
        "\nexpected shape: collisions need both streams — hit-rate rises\n"
        "toward the balanced mix and is zero on the inc-only row.",
        opts);
  }

  return bench::finish(opts);
}
