// The backend-spec parser and the BackendSpec shim: every kind round-trips
// through its name, a rejected spec names the reason, a seeded property
// test over malformed spec strings never throws, and the shim's
// constructor refuses the removed front-end.
#include <gtest/gtest.h>

#include <cctype>
#include <iterator>
#include <stdexcept>
#include <string>

#include "cnet/svc/backend.hpp"
#include "cnet/util/prng.hpp"

namespace cnet::svc {
namespace {

TEST(BackendSpec, ParsesAndRoundTrips) {
  const auto plain = parse_backend_spec("batched-network");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->kind, BackendKind::kBatchedNetwork);
  EXPECT_EQ(backend_spec_name(*plain), "batched-network");

  // The retired adaptive kind parses as nothing.
  EXPECT_FALSE(parse_backend_spec("adaptive").has_value());
  EXPECT_FALSE(parse_backend_spec("bogus").has_value());
  EXPECT_FALSE(parse_backend_spec("").has_value());
}

TEST(BackendSpec, ParseFailuresNameTheReason) {
  // A successful parse carries no error text.
  EXPECT_TRUE(parse_backend_spec("batched-network").error.empty());

  // Unknown kinds list what IS known, so a typo'd flag is self-correcting.
  const auto unknown = parse_backend_spec("bogus");
  ASSERT_FALSE(unknown.has_value());
  EXPECT_NE(unknown.error.find("unknown backend kind \"bogus\""),
            std::string::npos)
      << unknown.error;
  EXPECT_NE(unknown.error.find("batched-network"), std::string::npos)
      << "the known-kinds list should appear in: " << unknown.error;

  // A retired kind, or a spec with the removed front-end prefix, is an
  // unknown kind like any other, and the list it points at names exactly
  // the three that remain.
  for (const std::string retired :
       {"adaptive", "network", "central-mutex", "elim+batched-network",
        "elim+central-atomic"}) {
    const auto gone = parse_backend_spec(retired);
    ASSERT_FALSE(gone.has_value()) << retired;
    EXPECT_NE(gone.error.find("unknown backend kind \"" + retired + "\""),
              std::string::npos)
        << gone.error;
    EXPECT_NE(gone.error.find("(known: central-atomic, central-cas, "
                              "batched-network)"),
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
  for (const BackendKind kind : kAllBackendKinds) {
    const std::string name = backend_spec_name(kind);
    EXPECT_EQ(name, backend_kind_name(kind));
    const auto parsed = parse_backend_spec(name);
    ASSERT_TRUE(parsed.has_value()) << name << ": " << parsed.error;
    EXPECT_TRUE(parsed.error.empty()) << name;
    EXPECT_EQ(parsed->kind, kind) << name;
    EXPECT_EQ(backend_spec_name(*parsed), name);
  }
}

// One seeded malformation of a spec string: truncation, appended junk, a
// repeat of the string's own head, or flipped letter case.
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
      s = s.substr(0, 1 + rng.below(s.size() + 1)) + s;
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
  util::Xoshiro256 rng(0x5bec'1998);
  std::size_t parsed_count = 0, rejected_count = 0;
  for (int i = 0; i < 20000; ++i) {
    const BackendKind kind =
        kAllBackendKinds[rng.below(std::size(kAllBackendKinds))];
    std::string s = backend_kind_name(kind);
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

TEST(BackendSpec, ShimRejectsTheRemovedFrontEnd) {
  for (const BackendKind kind : kAllBackendKinds) {
    const BackendSpec plain{kind, false};
    EXPECT_EQ(plain.kind, kind);
    EXPECT_THROW((BackendSpec{kind, true}), std::invalid_argument)
        << backend_kind_name(kind);
  }
  EXPECT_EQ(BackendSpec{}.kind, BackendKind::kBatchedNetwork);
}

}  // namespace
}  // namespace cnet::svc
