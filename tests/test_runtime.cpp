// Concurrent runtime: compiled networks, network counters under real
// threads, both balancer disciplines, counters sharing one compiled shape,
// the compiled kernel against a plain reference interpreter, the
// util::SlotArray per-hint tally lines and the util::LineArray blocks.
#include "cnet/runtime/network_counter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cnet/baselines/bitonic.hpp"
#include "cnet/baselines/periodic.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/runtime/compiled_network.hpp"
#include "cnet/util/cacheline.hpp"
#include "cnet/util/prng.hpp"
#include "cnet/util/scatter.hpp"
#include "cnet/util/slot_array.hpp"
#include "test_util.hpp"

namespace cnet::rt {
namespace {

// Runs `threads` workers, each performing `per_thread` fetch_increments,
// and returns all values obtained.
std::vector<std::int64_t> hammer(Counter& counter, std::size_t threads,
                                 std::size_t per_thread) {
  std::vector<std::vector<std::int64_t>> got(threads);
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        got[t].reserve(per_thread);
        for (std::size_t i = 0; i < per_thread; ++i) {
          got[t].push_back(counter.fetch_increment(t));
        }
      });
    }
  }
  std::vector<std::int64_t> all;
  for (auto& v : got) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

TEST(CompiledNetwork, SequentialTraversalMatchesBalancerSemantics) {
  // One (2,4)-balancer: successive tokens exit wires 0,1,2,3,0,...
  topo::Builder b;
  const auto in = b.add_network_inputs(2);
  b.set_outputs(b.add_balancer(in, 4));
  const auto net = std::move(b).build();
  CompiledNetwork cn(net);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t expect = 0; expect < 4; ++expect) {
      EXPECT_EQ(cn.traverse(0, BalancerMode::kFetchAdd, nullptr), expect);
    }
  }
}

TEST(CompiledNetwork, ResetRestoresInitialState) {
  topo::Builder b;
  const auto in = b.add_network_inputs(2);
  b.set_outputs(b.add_balancer(in, 2));
  const auto net = std::move(b).build();
  CompiledNetwork cn(net);
  EXPECT_EQ(cn.traverse(0, BalancerMode::kFetchAdd, nullptr), 0u);
  EXPECT_EQ(cn.traverse(0, BalancerMode::kFetchAdd, nullptr), 1u);
  cn.reset();
  EXPECT_EQ(cn.traverse(0, BalancerMode::kFetchAdd, nullptr), 0u);
}

TEST(CompiledNetwork, CasModeCountsNoStallsWhenSequential) {
  const auto net = core::make_counting(4, 4);
  CompiledNetwork cn(net);
  std::uint64_t stalls = 0;
  for (int i = 0; i < 100; ++i) {
    (void)cn.traverse(static_cast<std::size_t>(i) % 4,
                      BalancerMode::kCasRetry, &stalls);
  }
  EXPECT_EQ(stalls, 0u);
}

TEST(NetworkCounter, SequentialValuesAreSequential) {
  NetworkCounter counter(core::make_counting(4, 8), "C(4,8)");
  for (std::int64_t expect = 0; expect < 200; ++expect) {
    EXPECT_EQ(counter.fetch_increment(static_cast<std::size_t>(expect) % 4),
              expect);
  }
}

struct CounterCase {
  const char* label;
  std::size_t w, t;
  BalancerMode mode;
};

class NetworkCounterThreads : public ::testing::TestWithParam<CounterCase> {};

TEST_P(NetworkCounterThreads, ConcurrentValuesAreExactRange) {
  const auto& param = GetParam();
  NetworkCounter counter(core::make_counting(param.w, param.t), param.label,
                         param.mode);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 2000;
  auto values = hammer(counter, kThreads, kPerThread);
  ASSERT_EQ(values.size(), kThreads * kPerThread);
  EXPECT_TRUE(test::is_exact_range(
      std::vector<seq::Value>(values.begin(), values.end())));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetworkCounterThreads,
    ::testing::Values(CounterCase{"C44_fa", 4, 4, BalancerMode::kFetchAdd},
                      CounterCase{"C48_fa", 4, 8, BalancerMode::kFetchAdd},
                      CounterCase{"C816_fa", 8, 16, BalancerMode::kFetchAdd},
                      CounterCase{"C88_cas", 8, 8, BalancerMode::kCasRetry},
                      CounterCase{"C1648_fa", 16, 48,
                                  BalancerMode::kFetchAdd}),
    [](const auto& pinfo) { return std::string(pinfo.param.label); });

TEST(NetworkCounter, BitonicBackendAlsoCounts) {
  NetworkCounter counter(baselines::make_bitonic(8), "bitonic(8)");
  auto values = hammer(counter, 6, 1500);
  EXPECT_TRUE(test::is_exact_range(
      std::vector<seq::Value>(values.begin(), values.end())));
}

TEST(NetworkCounter, PeriodicBackendAlsoCounts) {
  NetworkCounter counter(baselines::make_periodic(8), "periodic(8)");
  auto values = hammer(counter, 6, 1500);
  EXPECT_TRUE(test::is_exact_range(
      std::vector<seq::Value>(values.begin(), values.end())));
}

TEST(NetworkCounter, StallCountIsZeroForFetchAdd) {
  NetworkCounter counter(core::make_counting(4, 4), "C(4,4)");
  (void)hammer(counter, 4, 500);
  EXPECT_EQ(counter.stall_count(), 0u);
}

TEST(NetworkCounter, NameAndWidthsExposed) {
  NetworkCounter counter(core::make_counting(4, 12), "C(4,12)");
  EXPECT_EQ(counter.name(), "C(4,12)");
  EXPECT_EQ(counter.width_in(), 4u);
  EXPECT_EQ(counter.width_out(), 12u);
}

// A counter on a shared compiled shape is the same machine as one that
// compiled its own: one seeded stream of every op kind gives bit-identical
// results and leaves bit-identical exit cells, in both balancer modes.
TEST(SharedShape, OpStreamMatchesTopologyCounter) {
  const auto net = core::make_counting(8, 24);
  const auto shape = std::make_shared<const CompiledShape>(net);
  for (const BalancerMode mode :
       {BalancerMode::kFetchAdd, BalancerMode::kCasRetry}) {
    NetworkCounter own(net, "own", mode);
    NetworkCounter shared(shape, "shared", mode);
    util::Xoshiro256 rng(1998);
    std::int64_t own_buf[48], shared_buf[48];
    for (int op = 0; op < 4000; ++op) {
      const std::size_t hint = rng.below(8);
      switch (rng.below(5)) {
        case 0:
          ASSERT_EQ(own.fetch_increment(hint), shared.fetch_increment(hint));
          break;
        case 1: {
          const std::size_t k = 1 + rng.below(32);
          own.fetch_increment_batch(hint, k, own_buf);
          shared.fetch_increment_batch(hint, k, shared_buf);
          ASSERT_TRUE(std::equal(own_buf, own_buf + k, shared_buf)) << op;
          break;
        }
        case 2: {
          std::int64_t own_v = -1, shared_v = -1;
          ASSERT_EQ(own.try_fetch_decrement(hint, &own_v),
                    shared.try_fetch_decrement(hint, &shared_v));
          ASSERT_EQ(own_v, shared_v);
          break;
        }
        case 3: {
          const std::uint64_t n = rng.below(48);
          const std::uint64_t got = own.try_fetch_decrement_n(hint, n, own_buf);
          ASSERT_EQ(got, shared.try_fetch_decrement_n(hint, n, shared_buf));
          ASSERT_TRUE(std::equal(own_buf, own_buf + got, shared_buf)) << op;
          break;
        }
        default: {
          const std::uint64_t n = rng.below(64);
          own.refund_n(hint, n);
          shared.refund_n(hint, n);
          break;
        }
      }
    }
    for (std::size_t wire = 0; wire < own.width_out(); ++wire) {
      EXPECT_EQ(own.exit_cell(wire), shared.exit_cell(wire)) << wire;
    }
    EXPECT_EQ(own.traversal_count(), shared.traversal_count());
    EXPECT_EQ(own.batch_pass_count(), shared.batch_pass_count());
  }
}

// Counters on one shape share only the wiring: each has its own balancer
// states and exit cells, so each hands out exactly 0..n-1.
TEST(SharedShape, CountersOnOneShapeAreIndependent) {
  const auto shape =
      std::make_shared<const CompiledShape>(core::make_counting(4, 8));
  NetworkCounter a(shape, "a");
  NetworkCounter b(shape, "b");
  EXPECT_EQ(a.shape(), b.shape());
  std::int64_t next_a = 0, next_b = 0;
  for (std::size_t i = 0; i < 600; ++i) {
    ASSERT_EQ(a.fetch_increment(i % 4), next_a++);
    if (i % 3 != 0) ASSERT_EQ(b.fetch_increment((i + 1) % 4), next_b++);
  }
  // And under concurrency: two threads per counter, both at once.
  NetworkCounter c(shape, "c");
  NetworkCounter d(shape, "d");
  std::vector<std::int64_t> got_c, got_d;
  {
    std::jthread on_c([&] { got_c = hammer(c, 2, 3000); });
    std::jthread on_d([&] { got_d = hammer(d, 2, 3000); });
  }
  EXPECT_TRUE(test::is_exact_range(
      std::vector<seq::Value>(got_c.begin(), got_c.end())));
  EXPECT_TRUE(test::is_exact_range(
      std::vector<seq::Value>(got_d.begin(), got_d.end())));
}

// The balancer semantics written out plainly: one int64 state per balancer,
// a token takes ticket s and leaves on port ((s % f) + f) % f, an antitoken
// steps s back and leaves on the port the state lands on. A k-token batch
// is k tokens one after another, which leaves every balancer the same
// ticket block a batch pass reads off.
class ReferenceNetwork {
 public:
  explicit ReferenceNetwork(const topo::Topology& net)
      : net_(net), state_(net.num_balancers(), 0) {}

  std::size_t traverse(std::size_t input) { return walk(input, +1); }
  std::size_t traverse_anti(std::size_t input) { return walk(input, -1); }
  void traverse_batch(std::size_t input, std::uint64_t k,
                      std::vector<std::uint64_t>& out_counts) {
    for (std::uint64_t i = 0; i < k; ++i) ++out_counts[traverse(input)];
  }
  std::int64_t state(std::size_t b) const { return state_[b]; }

 private:
  std::size_t walk(std::size_t input, int step) {
    topo::WireId wire = net_.input_wires()[input];
    for (;;) {
      const topo::WireEnd& end = net_.consumer(wire);
      if (end.kind == topo::WireEnd::Kind::kNetworkOutput) return end.port;
      const topo::Balancer& bal = net_.balancer(end.balancer);
      const auto f = static_cast<std::int64_t>(bal.fan_out());
      std::int64_t& s = state_[end.balancer.value];
      const std::int64_t ticket = step > 0 ? s++ : --s;
      wire = bal.outputs[static_cast<std::size_t>(((ticket % f) + f) % f)];
    }
  }

  const topo::Topology& net_;
  std::vector<std::int64_t> state_;
};

// The compiled kernel routes by mask where a fanout is a power of two and
// by a divide elsewhere; both must agree with the reference interpreter
// bit for bit. Each seeded stream opens with antitokens so that states go
// negative, then mixes tokens, antitokens and batches of every size the
// split arithmetic distinguishes.
TEST(CompiledNetwork, MatchesReferenceInterpreter) {
  struct Case {
    std::string name;
    topo::Topology net;
  };
  std::vector<Case> cases;
  cases.push_back({"C(2,6)", core::make_counting(2, 6)});
  cases.push_back({"C(4,12)", core::make_counting(4, 12)});
  cases.push_back({"C(8,16)", core::make_counting(8, 16)});
  cases.push_back({"C(8,24)", core::make_counting(8, 24)});
  cases.push_back({"C(16,64)", core::make_counting(16, 64)});
  cases.push_back({"bitonic(8)", baselines::make_bitonic(8)});
  cases.push_back({"periodic(8)", baselines::make_periodic(8)});
  constexpr std::uint64_t kBatchSizes[] = {2, 3, 7, 64, 768};
  for (const Case& c : cases) {
    for (const BalancerMode mode :
         {BalancerMode::kFetchAdd, BalancerMode::kCasRetry}) {
      SCOPED_TRACE(c.name + " " + balancer_mode_name(mode));
      CompiledNetwork compiled(c.net);
      ReferenceNetwork reference(c.net);
      BatchScratch scratch;
      std::uint64_t stalls = 0;
      const std::size_t w = c.net.width_in();
      util::Xoshiro256 rng(16 + c.net.num_balancers());
      for (int op = 0; op < 64; ++op) {
        const std::size_t in = rng.below(w);
        ASSERT_EQ(compiled.traverse_anti(in, mode, &stalls),
                  reference.traverse_anti(in))
            << op;
      }
      for (int op = 0; op < 1500; ++op) {
        const std::size_t in = rng.below(w);
        switch (rng.below(3)) {
          case 0:
            ASSERT_EQ(compiled.traverse(in, mode, &stalls),
                      reference.traverse(in))
                << op;
            break;
          case 1:
            ASSERT_EQ(compiled.traverse_anti(in, mode, &stalls),
                      reference.traverse_anti(in))
                << op;
            break;
          default: {
            const std::uint64_t k = kBatchSizes[rng.below(5)];
            std::vector<std::uint64_t> got(c.net.width_out(), 0);
            std::vector<std::uint64_t> want(c.net.width_out(), 0);
            compiled.traverse_batch(in, k, mode, &stalls, scratch, got.data());
            reference.traverse_batch(in, k, want);
            ASSERT_EQ(got, want) << op << " k=" << k;
            break;
          }
        }
      }
      for (std::size_t b = 0; b < c.net.num_balancers(); ++b) {
        EXPECT_EQ(compiled.balancer_state(b), reference.state(b)) << b;
      }
      EXPECT_EQ(stalls, 0u);
    }
  }
}

TEST(SlotArray, RejectsSlotCountsThatAreNotPowersOfTwo) {
  for (const std::size_t slots : {0u, 3u, 6u, 24u, 100u}) {
    EXPECT_THROW(util::SlotArray<1>{slots}, std::invalid_argument) << slots;
    EXPECT_THROW((util::SlotArray<3, util::Padded<util::Atomic<std::int64_t>>>{
                     4, slots}),
                 std::invalid_argument)
        << slots;
  }
  for (const std::size_t slots : {1u, 2u, 64u}) {
    EXPECT_NO_THROW(util::SlotArray<1>{slots}) << slots;
    EXPECT_NO_THROW(util::SlotArray<8>{slots}) << slots;
  }
}

// The default width: twice the CPU count rounded up to a power of two,
// capped at 64, with an unknown count (0) keeping the full width.
TEST(SlotArray, ScatterWidthRule) {
  EXPECT_EQ(util::scatter_slots_for(0), 64u);
  EXPECT_EQ(util::scatter_slots_for(1), 2u);
  EXPECT_EQ(util::scatter_slots_for(2), 4u);
  EXPECT_EQ(util::scatter_slots_for(3), 8u);
  EXPECT_EQ(util::scatter_slots_for(4), 8u);
  EXPECT_EQ(util::scatter_slots_for(5), 16u);
  EXPECT_EQ(util::scatter_slots_for(32), 64u);
  EXPECT_EQ(util::scatter_slots_for(33), 64u);
  EXPECT_EQ(util::scatter_slots_for(64), 64u);
  EXPECT_EQ(util::scatter_slots_for(1024), 64u);
  EXPECT_EQ(util::scatter_slots_for(0xFFFFFFFFu), 64u);
  const std::size_t host = util::scatter_slots();
  EXPECT_TRUE(util::is_pow2(host)) << host;
  EXPECT_LE(host, util::kMaxScatterSlots);
  EXPECT_EQ(util::scatter_slots(), host);  // computed once
  EXPECT_EQ(util::SlotArray<2>{}.size(), host);
}

// The default network is C(w, w·lg w) with w the CPU count rounded up to a
// power of two, between 2 and 8; an unknown count keeps C(8,24).
TEST(HostSizing, CountingShapeRule) {
  const std::pair<unsigned, std::size_t> expected[] = {
      {0, 8}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {64, 8}};
  for (const auto& [cpus, w] : expected) {
    const util::CountingShape shape = util::counting_shape_for(cpus);
    EXPECT_EQ(shape.width_in, w) << cpus;
    EXPECT_EQ(shape.width_out, w * util::ilog2(w)) << cpus;
    EXPECT_TRUE(
        core::is_valid_counting_params(shape.width_in, shape.width_out))
        << cpus;
  }
  EXPECT_EQ(util::counting_shape_for(0xFFFFFFFFu).width_in, 8u);
  const util::CountingShape host = util::counting_shape();
  const util::CountingShape rule =
      util::kSchedCheckEnabled
          ? util::CountingShape{8, 24}
          : util::counting_shape_for(std::thread::hardware_concurrency());
  EXPECT_EQ(host.width_in, rule.width_in);
  EXPECT_EQ(host.width_out, rule.width_out);
}

// Hints far past the slot count fold onto slot hint mod slots: the total is
// exact.
TEST(SlotArray, TalliesExactlyUnderMaskIndexing) {
  util::SlotArray<1> slots(8);
  std::uint64_t expect = 0;
  for (std::size_t hint = 0; hint < 1000; ++hint) {
    slots.add(0, hint * 7 + 3, hint % 5);
    expect += hint % 5;
  }
  EXPECT_EQ(slots.total(0), expect);
  util::SlotArray<1> wide_hints(4);
  wide_hints.add(0, 1ull << 40 | 1, 4);
  wide_hints.add(0, ~std::size_t{0}, 6);
  EXPECT_EQ(wide_hints.total(0), 10u);
  EXPECT_EQ(&wide_hints.line(1ull << 40 | 1), &wide_hints.line(1));
  EXPECT_EQ(&wide_hints.line(~std::size_t{0}), &wide_hints.line(3));
}

// Fields on one line are independent: many hints sharing each of two lines
// add to every field of a three-field line, and each field's total is its
// own sum, exactly, while threads race on the shared lines.
TEST(SlotArray, FieldsOnOneLineStayIndependentUnderSharedHints) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 5000;
  util::SlotArray<3> lines(2);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&lines, t] {
      for (std::size_t i = 0; i < kRounds; ++i) {
        const std::size_t hint = t + kThreads * i;  // odd and even hints
        lines.add(0, hint, 1);
        lines.add(1, hint, 2 + t);
        lines.add(2, hint, i % 3);  // adds of 0 touch nothing
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::uint64_t second = 0;
  std::uint64_t third = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    second += (2 + t) * kRounds;
    for (std::size_t i = 0; i < kRounds; ++i) third += i % 3;
  }
  EXPECT_EQ(lines.total(0), kThreads * kRounds);
  EXPECT_EQ(lines.total(1), second);
  EXPECT_EQ(lines.total(2), third);
  // Threads 0 and 2 (even hints) share line 0, threads 1 and 3 line 1;
  // each field splits between the lines as the hints do.
  EXPECT_EQ(lines.line(0).field[0].load() + lines.line(1).field[0].load(),
            kThreads * kRounds);
  EXPECT_EQ(lines.line(0).field[1].load(), (2 + 0 + 2 + 2) * kRounds);
  EXPECT_EQ(lines.line(1).field[1].load(), (2 + 1 + 2 + 3) * kRounds);
}

// Head lines sit ahead of the slot lines in the same block, value-
// initialized, and the tally lines start at zero.
TEST(SlotArray, HeadLinesShareTheBlock) {
  util::SlotArray<2, util::Padded<util::Atomic<std::int64_t>>> lines(5, 4);
  ASSERT_EQ(lines.size(), 4u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(lines.head(i).value.load(), 0) << i;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&lines.head(i)) %
                  util::kCacheLine,
              0u);
  }
  EXPECT_EQ(reinterpret_cast<const std::byte*>(&lines.line(0)),
            reinterpret_cast<const std::byte*>(&lines.head(0)) +
                5 * util::kCacheLine);
  lines.head(4).value.store(-7);
  lines.add(1, 6, 9);
  EXPECT_EQ(lines.total(0), 0u);
  EXPECT_EQ(lines.total(1), 9u);
  EXPECT_EQ(lines.head(4).value.load(), -7);
}

// Every block is a plain allocation aligned by hand: across head and slot
// counts, every line sits on a cache-line boundary, the lines follow one
// another with no gap, and they start zeroed. Eight fields fill a line, so
// writing every field lets the address sanitizer catch a block that
// overruns its one line of slack.
TEST(SlotArray, EveryLineIsCacheLineAligned) {
  using Lines = util::SlotArray<8, util::Padded<util::Atomic<std::int64_t>>>;
  const auto addr = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p);
  };
  for (std::size_t heads = 0; heads <= 9; ++heads) {
    for (std::size_t slots = 1; slots <= 64; slots *= 2) {
      SCOPED_TRACE(testing::Message() << heads << " heads, " << slots
                                      << " slots");
      Lines lines(heads, slots);
      std::uintptr_t next = heads > 0 ? addr(&lines.head(0))
                                      : addr(&lines.line(0));
      for (std::size_t i = 0; i < heads; ++i) {
        EXPECT_EQ(addr(&lines.head(i)), next);
        EXPECT_EQ(addr(&lines.head(i)) % util::kCacheLine, 0u);
        EXPECT_EQ(lines.head(i).value.load(), 0);
        lines.head(i).value.store(-1);
        next += util::kCacheLine;
      }
      for (std::size_t i = 0; i < slots; ++i) {
        EXPECT_EQ(addr(&lines.line(i)), next);
        EXPECT_EQ(addr(&lines.line(i)) % util::kCacheLine, 0u);
        for (std::size_t f = 0; f < 8; ++f) {
          EXPECT_EQ(lines.line(i).field[f].load(), 0u);
          lines.line(i).field[f].store(~std::uint64_t{0});
        }
        next += util::kCacheLine;
      }
    }
  }
}

// util::LineArray, the same block under the balancer nodes, the quota
// tenant table and the ID cache table: stand-ins of those three element
// shapes (a trivially destructible atomic line, a line owning a heap
// object, a line owning a vector, two lines wide) are aligned, contiguous,
// value-initialized and destroyed. The address sanitizer's leak check sees
// an element that is never destroyed, and the cache stand-in's last byte
// is the element's last, so filling it finds an overrun.
struct NodeLine {
  alignas(util::kCacheLine) util::Atomic<std::int64_t> state{0};
  std::uint32_t fanout = 0;
};
struct TenantLine {
  alignas(util::kCacheLine) std::unique_ptr<std::int64_t> owned;
  util::Atomic<std::uint64_t> borrowed{0};
};
struct CacheLines {
  alignas(util::kCacheLine) std::vector<std::int64_t> ids;
  std::byte tail[2 * util::kCacheLine - sizeof(std::vector<std::int64_t>)]{};
};

template <class T>
void expect_line_array(std::size_t size, void (*fill)(T&),
                       bool (*fresh)(const T&)) {
  SCOPED_TRACE(testing::Message() << size << " elements of " << sizeof(T)
                                  << " B");
  util::LineArray<T> array(size);
  ASSERT_EQ(array.size(), size);
  ASSERT_EQ(array.end() - array.begin(), static_cast<std::ptrdiff_t>(size));
  for (std::size_t i = 0; i < size; ++i) {
    const auto at = reinterpret_cast<std::uintptr_t>(&array[i]);
    EXPECT_EQ(at % util::kCacheLine, 0u);
    EXPECT_EQ(at, reinterpret_cast<std::uintptr_t>(array.begin()) +
                      i * sizeof(T));
    EXPECT_TRUE(fresh(array[i]));
    fill(array[i]);
  }
}

TEST(LineArray, EveryElementIsCacheLineAligned) {
  static_assert(sizeof(CacheLines) == 2 * util::kCacheLine);
  for (std::size_t size = 1; size <= 64; ++size) {
    expect_line_array<NodeLine>(
        size, [](NodeLine& n) { n.state.store(-1); },
        [](const NodeLine& n) {
          return n.state.load() == 0 && n.fanout == 0;
        });
    expect_line_array<TenantLine>(
        size,
        [](TenantLine& t) {
          t.owned = std::make_unique<std::int64_t>(7);
          t.borrowed.store(1);
        },
        [](const TenantLine& t) {
          return t.owned == nullptr && t.borrowed.load() == 0;
        });
    expect_line_array<CacheLines>(
        size,
        [](CacheLines& c) {
          c.ids.assign(16, 3);
          std::fill(std::begin(c.tail), std::end(c.tail), std::byte{1});
        },
        [](const CacheLines& c) {
          return c.ids.empty() &&
                 std::all_of(std::begin(c.tail), std::end(c.tail),
                             [](std::byte b) { return b == std::byte{0}; });
        });
  }
}

}  // namespace
}  // namespace cnet::rt
