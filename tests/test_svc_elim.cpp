// svc::EliminationLayer / svc::ElimCounter unit tests: the exchange-slot
// protocol (catch, deposit/withdraw, pair-value agreement) and the headline
// guarantee of the front-end — a paired increment/decrement cancels locally
// and never sends a token into the backing network (its traversal counter
// stays untouched). Also the backend-spec parser the elim+ prefix goes
// through, with a seeded property test over malformed spec strings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cnet/core/counting.hpp"
#include "cnet/runtime/network_counter.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/elimination.hpp"
#include "cnet/util/prng.hpp"
#include "test_svc_util.hpp"

namespace cnet::svc {
namespace {

using Role = EliminationLayer::Role;

TEST(EliminationLayer, CatchOnlyMissesOnEmptySlots) {
  EliminationLayer layer({.slots = 2, .max_spins = 64});
  std::int64_t value = 0;
  EXPECT_FALSE(layer.try_exchange(Role::kDec, 0, /*spins=*/0, &value));
  EXPECT_FALSE(layer.try_exchange(Role::kInc, 0, /*spins=*/0, &value));
  EXPECT_EQ(layer.pairs(), 0u);
  EXPECT_EQ(layer.withdrawals(), 0u);
}

TEST(EliminationLayer, DepositWithdrawsCleanlyAfterTimeout) {
  EliminationLayer layer({.slots = 1, .max_spins = 16});
  std::int64_t value = 0;
  EXPECT_FALSE(layer.try_exchange(Role::kInc, 0, /*spins=*/16, &value));
  EXPECT_EQ(layer.withdrawals(), 1u);
  // The slot must be empty again: a later opposite-role catch pass finds no
  // stale waiter to pair with.
  EXPECT_FALSE(layer.try_exchange(Role::kDec, 1, /*spins=*/0, &value));
  EXPECT_EQ(layer.pairs(), 0u);
}

TEST(EliminationLayer, PairAgreesOnOneNegativeValue) {
  EliminationLayer layer({.slots = 1, .max_spins = 64});
  std::int64_t waiter_value = 0, catcher_value = 0;
  bool waiter_paired = false;
  std::thread waiter([&] {
    // Large budget: stays deposited until the catcher arrives.
    waiter_paired =
        layer.try_exchange(Role::kInc, 0, 1u << 28, &waiter_value);
  });
  while (!layer.try_exchange(Role::kDec, 1, /*spins=*/0, &catcher_value)) {
    std::this_thread::yield();  // waiter not deposited yet
  }
  waiter.join();
  ASSERT_TRUE(waiter_paired);
  EXPECT_EQ(waiter_value, catcher_value);
  EXPECT_LT(waiter_value, 0);
  EXPECT_EQ(layer.pairs(), 1u);
}

TEST(ElimCounter, PairedIncDecNeverEntersTheNetwork) {
  // The tentpole guarantee, deterministically: one increment deposits, one
  // decrement collides with it, both complete — and the backing network's
  // traversal counter never moves, because neither token was ever routed.
  ElimCounter counter(
      std::make_unique<rt::NetworkCounter>(core::make_counting(4, 8),
                                           "C(4,8)"),
      {.layer = {.slots = 1, .max_spins = 1u << 28},
       .inc_spins = 1u << 28,
       .dec_spins = 1u << 28});

  std::int64_t inc_value = 0;
  std::thread inc([&] { inc_value = counter.fetch_increment(0); });
  std::int64_t dec_value = 0;
  // Catch-only probes until the waiter shows up, so this thread can never
  // fall through to the backing counter either.
  while (!counter.layer().try_exchange(Role::kDec, 1, /*spins=*/0,
                                       &dec_value)) {
    std::this_thread::yield();
  }
  inc.join();

  EXPECT_EQ(inc_value, dec_value);
  EXPECT_LT(inc_value, 0);
  EXPECT_EQ(counter.layer().pairs(), 1u);
  EXPECT_EQ(counter.inner().traversal_count(), 0u)
      << "a paired inc/dec must not traverse the backing network";
  EXPECT_EQ(counter.inner().stall_count(), 0u);
}

TEST(ElimCounter, ValueFreeBatchCatchesAWaitingDecrement) {
  // A value-free batch (null out_values) catches a deposited decrement,
  // discards the pair's value and passes its remainder on as another null
  // batch. Each call adds 2 tokens; the first that meets the waiter hands
  // it one and sends the other into the network.
  ElimCounter counter(
      std::make_unique<rt::NetworkCounter>(core::make_counting(4, 8),
                                           "C(4,8)"),
      {.layer = {.slots = 1, .max_spins = 1u << 28},
       .inc_spins = 0,
       .dec_spins = 1u << 28});
  bool dec_ok = false;
  std::thread dec([&] { dec_ok = counter.try_fetch_decrement(0); });
  std::uint64_t added = 0;
  while (counter.layer().pairs() == 0) {
    counter.fetch_increment_batch(1, 2, nullptr);
    added += 2;
  }
  dec.join();
  EXPECT_TRUE(dec_ok);
  EXPECT_EQ(counter.try_fetch_decrement_n(1, added), added - 1)
      << "the value-free batch minted or lost tokens";
}

TEST(ElimCounter, FallsThroughToBackingWithoutAPartner) {
  // Catch-only on both roles and a single thread: nothing ever pairs, so
  // the decorator must be a transparent pass-through.
  ElimCounter counter(
      std::make_unique<rt::NetworkCounter>(core::make_counting(4, 8),
                                           "C(4,8)"),
      {.layer = {.slots = 2, .max_spins = 16},
       .inc_spins = 0,
       .dec_spins = 0});
  std::int64_t batch[5];
  counter.fetch_increment_batch(0, 5, batch);
  std::vector<std::int64_t> values(batch, batch + 5);
  values.push_back(counter.fetch_increment(1));
  std::sort(values.begin(), values.end());
  EXPECT_EQ(std::vector<std::int64_t>({0, 1, 2, 3, 4, 5}), values)
      << "pass-through increments must hand out the backing sequence";
  EXPECT_EQ(counter.traversal_count(), 6u);

  EXPECT_EQ(counter.try_fetch_decrement_n(0, 4), 4u);
  EXPECT_TRUE(counter.try_fetch_decrement(0));
  EXPECT_TRUE(counter.try_fetch_decrement(0));
  // Bound at zero: the pool is drained and must report empty.
  EXPECT_FALSE(counter.try_fetch_decrement(0));
  EXPECT_EQ(counter.try_fetch_decrement_n(0, 4), 0u);
  EXPECT_EQ(counter.layer().pairs(), 0u);
}

// A take of one and a batch of one are lone tokens, whichever entry point
// they come through: with no partner each deposits in a slot, spins out its
// role's budget and withdraws to the backend, as sim::ElimModel's lone
// tokens do. Larger calls only catch.
ElimCounter lone_token_counter() {
  return ElimCounter(
      std::make_unique<rt::NetworkCounter>(core::make_counting(4, 8),
                                           "C(4,8)"),
      {.layer = {.slots = 2, .max_spins = 16},
       .inc_spins = 16,
       .dec_spins = 16});
}

TEST(ElimCounter, LoneBatchOfOneDepositsAndWithdraws) {
  ElimCounter counter = lone_token_counter();
  std::int64_t value = -1;
  counter.fetch_increment_batch(0, 1, &value);
  EXPECT_EQ(value, 0);
  EXPECT_EQ(counter.layer().withdrawals(), 1u);
  counter.fetch_increment_batch(0, 2, nullptr);
  EXPECT_EQ(counter.layer().withdrawals(), 1u) << "a batch of 2 deposited";
  EXPECT_EQ(counter.traversal_count(), 3u);
}

TEST(ElimCounter, LoneTakeOfOneDepositsAndWithdraws) {
  ElimCounter counter = lone_token_counter();
  counter.refund_n(0, 3);
  EXPECT_EQ(counter.try_fetch_decrement_n(0, 1), 1u);
  EXPECT_EQ(counter.layer().withdrawals(), 1u);
  EXPECT_EQ(counter.try_fetch_decrement_n(0, 2), 2u);
  EXPECT_EQ(counter.layer().withdrawals(), 1u) << "a take of 2 deposited";
  EXPECT_EQ(counter.layer().pairs(), 0u);
}

TEST(BackendSpec, ParsesAndRoundTrips) {
  const auto plain = parse_backend_spec("batched-network");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->kind, BackendKind::kBatchedNetwork);
  EXPECT_FALSE(plain->elimination);

  const auto elim = parse_backend_spec("elim+central-atomic");
  ASSERT_TRUE(elim.has_value());
  EXPECT_EQ(elim->kind, BackendKind::kCentralAtomic);
  EXPECT_TRUE(elim->elimination);
  EXPECT_EQ(backend_spec_name(*elim), "elim+central-atomic");

  // The retired adaptive kind parses as nothing, bare or prefixed.
  EXPECT_FALSE(parse_backend_spec("adaptive").has_value());
  EXPECT_FALSE(parse_backend_spec("elim+adaptive").has_value());

  EXPECT_FALSE(parse_backend_spec("elim+").has_value());
  EXPECT_FALSE(parse_backend_spec("elim+bogus").has_value());
  EXPECT_FALSE(parse_backend_spec("bogus").has_value());
}

TEST(BackendSpec, ParseFailuresNameTheReason) {
  // A successful parse carries no error text.
  EXPECT_TRUE(parse_backend_spec("batched-network").error.empty());

  // A bare prefix is its own failure mode, not an "unknown kind".
  const auto bare = parse_backend_spec("elim+");
  ASSERT_FALSE(bare.has_value());
  EXPECT_NE(bare.error.find("bare \"elim+\" prefix"), std::string::npos)
      << bare.error;

  // Unknown kinds list what IS known, so a typo'd flag is self-correcting.
  const auto unknown = parse_backend_spec("bogus");
  ASSERT_FALSE(unknown.has_value());
  EXPECT_NE(unknown.error.find("unknown backend kind \"bogus\""),
            std::string::npos)
      << unknown.error;
  EXPECT_NE(unknown.error.find("batched-network"), std::string::npos)
      << "the known-kinds list should appear in: " << unknown.error;

  // The prefix survives into the unknown-kind diagnosis.
  const auto prefixed = parse_backend_spec("elim+bogus");
  ASSERT_FALSE(prefixed.has_value());
  EXPECT_NE(prefixed.error.find("unknown backend kind \"bogus\""),
            std::string::npos)
      << prefixed.error;

  // A retired kind is an unknown kind like any other, and the list it
  // points at names exactly the three that remain.
  for (const std::string retired :
       {"adaptive", "elim+adaptive", "network", "elim+network",
        "central-mutex", "elim+central-mutex"}) {
    const auto gone = parse_backend_spec(retired);
    ASSERT_FALSE(gone.has_value()) << retired;
    // rfind misses on a bare kind, and npos + 1 wraps to 0.
    const std::string kind = retired.substr(retired.rfind('+') + 1);
    EXPECT_NE(gone.error.find("unknown backend kind \"" + kind + "\""),
              std::string::npos)
        << gone.error;
    EXPECT_NE(gone.error.find("(known: central-atomic, central-cas, "
                              "batched-network;"),
              std::string::npos)
        << gone.error;
  }

  // A valid kind with junk appended is called out as trailing garbage
  // rather than lumped in with unknown kinds.
  const auto trailing = parse_backend_spec("central-atomicx");
  ASSERT_FALSE(trailing.has_value());
  EXPECT_NE(trailing.error.find("trailing garbage \"x\""), std::string::npos)
      << trailing.error;
  EXPECT_NE(trailing.error.find("\"central-atomic\""), std::string::npos)
      << trailing.error;
}

TEST(BackendSpec, EveryNameRoundTrips) {
  for (const BackendSpec& spec : test::all_pool_backend_specs()) {
    const std::string name = backend_spec_name(spec);
    const auto parsed = parse_backend_spec(name);
    ASSERT_TRUE(parsed.has_value()) << name << ": " << parsed.error;
    EXPECT_TRUE(parsed.error.empty()) << name;
    EXPECT_EQ(parsed->kind, spec.kind) << name;
    EXPECT_EQ(parsed->elimination, spec.elimination) << name;
    EXPECT_EQ(backend_spec_name(*parsed), name);
  }
}

// One seeded malformation of a spec string: truncation, appended junk, a
// doubled prefix, or flipped letter case.
std::string mutate_spec(std::string s, util::Xoshiro256& rng) {
  static constexpr char kJunk[] = {'x', '-', '+', ' ', '9', 'Z', '\0', '.'};
  switch (rng.below(4)) {
    case 0:
      s.resize(rng.below(s.size() + 1));
      break;
    case 1:
      for (std::uint64_t n = 1 + rng.below(4); n > 0; --n) {
        s += kJunk[rng.below(std::size(kJunk))];
      }
      break;
    case 2:
      // Either a second "elim+" or a repeat of the string's own head.
      s = rng.below(2) == 0 ? "elim+" + s
                            : s.substr(0, 1 + rng.below(s.size() + 1)) + s;
      break;
    default:
      for (std::uint64_t n = 1 + rng.below(3); n > 0 && !s.empty(); --n) {
        char& c = s[rng.below(s.size())];
        if (std::isalpha(static_cast<unsigned char>(c))) {
          c = static_cast<char>(
              std::islower(static_cast<unsigned char>(c))
                  ? std::toupper(static_cast<unsigned char>(c))
                  : std::tolower(static_cast<unsigned char>(c)));
        }
      }
      break;
  }
  return s;
}

TEST(BackendSpec, SeededMutationsParseOrExplainNeverThrow) {
  const auto specs = test::all_pool_backend_specs();
  util::Xoshiro256 rng(0x5bec'1998);
  std::size_t parsed_count = 0, rejected_count = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string s = backend_spec_name(specs[rng.below(specs.size())]);
    for (std::uint64_t rounds = 1 + rng.below(3); rounds > 0; --rounds) {
      s = mutate_spec(std::move(s), rng);
    }
    ParseResult result;
    ASSERT_NO_THROW(result = parse_backend_spec(s)) << '"' << s << '"';
    if (result.has_value()) {
      // Only a canonical name parses, so the parse names the input back.
      EXPECT_TRUE(result.error.empty()) << '"' << s << '"';
      EXPECT_EQ(backend_spec_name(*result), s);
      ++parsed_count;
    } else {
      EXPECT_FALSE(result.error.empty()) << '"' << s << '"';
      ++rejected_count;
    }
  }
  // The seed reaches both outcomes.
  EXPECT_GT(parsed_count, 0u);
  EXPECT_GT(rejected_count, 0u);
}

TEST(BackendSpec, FactoryComposesTheDecorator) {
  const auto counter =
      make_counter(BackendSpec{BackendKind::kCentralAtomic, true});
  EXPECT_EQ(counter->name(), "elim·central-atomic");
  EXPECT_NE(dynamic_cast<ElimCounter*>(counter.get()), nullptr);
}

}  // namespace
}  // namespace cnet::svc
