// Theorem 6.7 + §1.3.1: amortized contention of C(w,t) under the
// Dwork-Herlihy-Waarts stall measure, against the bitonic and periodic
// networks, measured with the wavefront-convoy adversary in the token
// simulator (the model in which the theorem is stated).
//
// Table A — contention vs concurrency n at fixed w (=16): bitonic and
//           C(w,w) grow with slope ~lg²w/w; C(w, w·lgw) with slope ~lgw/w
//           (the headline lg w improvement).
// Table B — contention vs output width t at fixed w, n: the contention
//           falls as t grows, approaching the n-independent floor, next to
//           the paper's closed-form bound
//           4n·lgw/w + n·lg²w/t + w·lg³w/t + 4lg²w + lgw.
//           --json checks both: every row at or below the bound, and the
//           measured contention strictly decreasing in t.
// Table C — the lg w gap: C(w, w·lgw) vs bitonic(w) across w at n = 16w.
#include <cmath>
#include <limits>
#include <iostream>
#include <string>

#include "cnet/analysis/bounds.hpp"
#include "cnet/baselines/bitonic.hpp"
#include "cnet/baselines/periodic.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/sim/contention.hpp"
#include "cnet/util/bitops.hpp"
#include "cnet/util/table.hpp"
#include "support/report.hpp"

namespace {

using namespace cnet;

double contention_of(const topo::Topology& net, std::size_t n) {
  sim::ContentionConfig cfg;
  cfg.concurrency = n;
  cfg.generations = 24;
  cfg.min_tokens = 4096;
  return sim::measure_contention(net, cfg).stalls_per_token;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::ReportOptions::parse(argc, argv);
  bench::section("Table A: stalls/token vs concurrency n (w = 16, adversary)");
  {
    const std::size_t w = 16;
    const std::size_t lgw = util::ilog2(w);
    const auto bitonic = baselines::make_bitonic(w);
    const auto periodic = baselines::make_periodic(w);
    const auto cww = core::make_counting(w, w);
    const auto cwlg = core::make_counting(w, w * lgw);
    util::Table table({"n", "bitonic(16)", "periodic(16)", "C(16,16)",
                       "C(16,64)", "bitonic/C(16,64)"});
    for (const std::size_t n : {16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
      const double cb = contention_of(bitonic, n);
      const double cp = contention_of(periodic, n);
      const double c1 = contention_of(cww, n);
      const double c2 = contention_of(cwlg, n);
      table.add_row({util::fmt_int(static_cast<std::int64_t>(n)),
                     util::fmt_double(cb, 2), util::fmt_double(cp, 2),
                     util::fmt_double(c1, 2), util::fmt_double(c2, 2),
                     util::fmt_ratio(cb, c2, 2)});
    }
    bench::emit(table, opts);
    bench::note(
        "\nexpected shape: all grow ~linearly in n; C(16,64) grows ~lg w\n"
        "times slower than bitonic/C(16,16); periodic is worst (lg^3 w).", opts);
  }

  std::puts("");
  bench::section("Table B: stalls/token vs output width t (w = 16, n = 512)");
  {
    const std::size_t w = 16, n = 512;
    util::Table table({"t", "measured", "paper bound", "bound/measured"});
    bool within_bound = true;
    bool decreasing = true;
    double previous = std::numeric_limits<double>::infinity();
    for (const std::size_t p : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
      const std::size_t t = p * w;
      const double measured = contention_of(core::make_counting(w, t), n);
      const double bound = analysis::counting_contention_bound(w, t, n);
      within_bound = within_bound && measured <= bound;
      decreasing = decreasing && measured < previous;
      previous = measured;
      table.add_row({util::fmt_int(static_cast<std::int64_t>(t)),
                     util::fmt_double(measured, 2),
                     util::fmt_double(bound, 1),
                     util::fmt_ratio(bound, measured, 1)});
    }
    bench::emit(table, opts);
    bench::note(
        "\nexpected shape: measured contention decreases monotonically in t\n"
        "and stays below the Theorem 6.7 bound (the bound is not tight).", opts);
    bench::check("contention_within_thm67_bound", within_bound, opts);
    bench::check("contention_decreasing_in_t", decreasing, opts);
  }

  std::puts("");
  bench::section("Table C: the lg w gap — C(w, w lg w) vs bitonic(w), n = 16w");
  {
    util::Table table({"w", "lg w", "bitonic", "C(w,w lg w)", "ratio"});
    for (const std::size_t w : {8u, 16u, 32u, 64u}) {
      const std::size_t lgw = util::ilog2(w);
      const std::size_t n = 16 * w;
      const double cb = contention_of(baselines::make_bitonic(w), n);
      const double co = contention_of(core::make_counting(w, w * lgw), n);
      table.add_row({util::fmt_int(static_cast<std::int64_t>(w)),
                     util::fmt_int(static_cast<std::int64_t>(lgw)),
                     util::fmt_double(cb, 2), util::fmt_double(co, 2),
                     util::fmt_ratio(cb, co, 2)});
    }
    bench::emit(table, opts);
    bench::note(
        "\nexpected shape: the ratio grows with w roughly like lg w\n"
        "(paper §1.3.1: O(n lg^2 w / w) vs O(n lg w / w)).", opts);
  }
  return cnet::bench::finish(opts);
}
