// svc::AdmissionController: the facade must charge the bucket
// all-or-nothing, hand out globally-unique request IDs only on admission,
// and hold the combined safety property (admitted requests x cost never
// exceeds refilled tokens) under concurrency.
#include "cnet/svc/admission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "test_svc_util.hpp"

namespace cnet::svc {
namespace {

TEST(AdmissionController, AdmitsExactlyWhileTokensLast) {
  AdmissionConfig cfg;
  cfg.backend = BackendKind::kCentralAtomic;
  cfg.bucket.initial_tokens = 6;
  AdmissionController ctl(cfg);
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 5; ++i) {
    const auto ticket = ctl.admit(0, 2);
    if (i < 3) {
      ASSERT_TRUE(ticket.admitted) << "request " << i;
      ids.push_back(ticket.request_id);
    } else {
      ASSERT_FALSE(ticket.admitted) << "request " << i;
      ASSERT_EQ(ticket.request_id, -1);
    }
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  // A later refill re-opens the gate.
  ctl.refill(0, 2);
  EXPECT_TRUE(ctl.admit(1, 2).admitted);
}

TEST(AdmissionController, ZeroCostIsRejectedAsMisuse) {
  AdmissionController ctl(AdmissionConfig{});
  EXPECT_THROW((void)ctl.admit(0, 0), std::invalid_argument);
}

TEST(AdmissionController, ConcurrentAdmissionsAreUniqueAndBounded) {
  for (const BackendKind kind :
       {BackendKind::kCentralCas, BackendKind::kBatchedNetwork}) {
    AdmissionConfig cfg;
    cfg.backend = kind;
    cfg.shards = 4;
    cfg.ids.max_threads = 8;
    cfg.bucket.initial_tokens = 2000;
    AdmissionController ctl(cfg);
    std::vector<std::vector<std::int64_t>> ids(8);
    {
      std::vector<std::jthread> workers;
      for (std::size_t t = 0; t < 8; ++t) {
        workers.emplace_back([&, t] {
          for (int i = 0; i < 400; ++i) {
            const auto ticket = ctl.admit(t, 1);
            if (ticket.admitted) ids[t].push_back(ticket.request_id);
          }
        });
      }
    }
    std::vector<std::int64_t> all;
    for (const auto& v : ids) all.insert(all.end(), v.begin(), v.end());
    // 8x400 = 3200 attempts against 2000 tokens: admissions are bounded by
    // the refilled total and every admitted request got a distinct ID.
    EXPECT_LE(all.size(), 2000u) << ctl.name();
    EXPECT_GE(all.size(), 1u) << ctl.name();
    std::sort(all.begin(), all.end());
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
        << ctl.name();
  }
}

TEST(AdmissionController, NameAndStallsReportTheBackend) {
  AdmissionConfig cfg;
  cfg.backend = BackendKind::kBatchedNetwork;
  cfg.net = test::shape_config({8, 24});
  AdmissionController ctl(cfg);
  EXPECT_EQ(ctl.name(), "admission·batched C(8,24)");
  EXPECT_GE(ctl.stall_count(), 0u);
  // A default-built stack carries the host-sized shape.
  EXPECT_EQ(AdmissionController(AdmissionConfig{}).name(),
            "admission·batched " + test::shape_label(util::counting_shape()));
}

// Every shape the host-sizing rule can pick, on every host: concurrent
// admits and refills conserve tokens, and admitted requests get distinct
// IDs.
class AdmissionShapes
    : public ::testing::TestWithParam<util::CountingShape> {};

TEST_P(AdmissionShapes, ConcurrentAdmitsConserveAndStayUnique) {
  AdmissionConfig cfg;
  cfg.net = test::shape_config(GetParam());
  cfg.ids.max_threads = 4;
  cfg.bucket.initial_tokens = 500;
  AdmissionController ctl(cfg);
  ASSERT_EQ(ctl.name(), "admission·batched " + test::shape_label(GetParam()));
  constexpr std::uint64_t kRefills = 2000, kPerRefill = 4;
  std::vector<std::vector<std::int64_t>> ids(4);
  std::vector<std::uint64_t> charged(4, 0);
  {
    std::vector<std::jthread> workers;
    workers.emplace_back([&] {  // refiller, also admitting (hint 0)
      for (std::uint64_t r = 0; r < kRefills; ++r) {
        ctl.refill(0, kPerRefill);
        const auto ticket = ctl.admit(0, 2);
        if (ticket.admitted) {
          ids[0].push_back(ticket.request_id);
          charged[0] += ticket.charged;
        }
      }
    });
    for (std::size_t t = 1; t < 4; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < 3000; ++i) {
          const auto ticket = ctl.admit(t, 1 + t % 2);
          if (ticket.admitted) {
            ids[t].push_back(ticket.request_id);
            charged[t] += ticket.charged;
          }
        }
      });
    }
  }
  std::vector<std::int64_t> all;
  std::uint64_t admitted_tokens = 0;
  for (std::size_t t = 0; t < 4; ++t) {
    all.insert(all.end(), ids[t].begin(), ids[t].end());
    admitted_tokens += charged[t];
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  std::uint64_t leftover = 0;
  while (ctl.admit(0, 1).admitted) ++leftover;
  EXPECT_EQ(admitted_tokens + leftover, 500 + kRefills * kPerRefill);
}

INSTANTIATE_TEST_SUITE_P(RuleShapes, AdmissionShapes,
                         ::testing::ValuesIn(test::kRuleShapes),
                         test::shape_param_name);

}  // namespace
}  // namespace cnet::svc
