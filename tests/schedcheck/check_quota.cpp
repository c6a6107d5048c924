// Schedule-checker driver: QuotaHierarchy borrow reservation.
//
// The protocol under test is reserve_borrow's CAS loop over the tenant's
// `borrowed` word inside a weights_ read section — the mechanism behind
// the isolation guarantee (outstanding borrow never exceeds the weighted
// limit, not even transiently). Two shapes: the reservation racing a
// reweigh commit (limits swap generations mid-loop), and two acquires
// racing for the last unit of borrow headroom.
#include <cstdint>
#include <memory>
#include <vector>

#include "cnet/check/driver.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/quota.hpp"
#include "cnet/util/ensure.hpp"

namespace {

using cnet::check::Expect;
using cnet::check::Scenario;
using cnet::check::TestContext;
using cnet::svc::BackendKind;
using cnet::svc::QuotaHierarchy;

// Two tenants, empty children, tiny parent: every admission is forced
// through the parent-borrow reservation. Central-atomic backends shrink
// the pool arithmetic to one explored step per op (check_central covers
// that word on its own) — the rest of the explored steps are the
// reservation CAS loop, the weights read section, and the commit protocol.
std::shared_ptr<QuotaHierarchy> tiny_quota() {
  QuotaHierarchy::Config cfg;
  cfg.parent = BackendKind::kCentralAtomic;
  cfg.parent_initial_tokens = 4;
  cfg.borrow_budget = 2;  // weights {1,1} -> limit 1 per tenant
  return std::make_shared<QuotaHierarchy>(
      cfg, std::vector<QuotaHierarchy::TenantConfig>{{0, 1}, {0, 1}});
}

void borrow_vs_reweigh(TestContext& ctx) {
  auto quota = tiny_quota();
  auto grant = std::make_shared<QuotaHierarchy::Grant>();
  ctx.spawn([quota, grant] { *grant = quota->acquire(0, 0, 1); });
  ctx.spawn([quota] {
    quota->reweigh(1, std::vector<std::uint64_t>{3, 1});
  });
  ctx.join_all();
  CNET_ENSURE(quota->config_version() == 2, "reweigh did not commit");
  CNET_ENSURE(quota->borrow_limit(0) + quota->borrow_limit(1) <=
                  2,
              "limits exceed the borrow budget");
  if (grant->admitted) {
    CNET_ENSURE(grant->from_parent == 1 && grant->from_child == 0,
                "grant parts must record one parent-borrowed token");
    CNET_ENSURE(quota->borrowed(0) == 1,
                "borrow ledger out of sync with the outstanding grant");
    quota->release(0, *grant);
  }
  CNET_ENSURE(quota->borrowed(0) == 0 && quota->borrowed(1) == 0,
              "borrow ledger nonzero after all grants released");
}

void last_headroom(TestContext& ctx) {
  auto quota = tiny_quota();
  auto g1 = std::make_shared<QuotaHierarchy::Grant>();
  auto g2 = std::make_shared<QuotaHierarchy::Grant>();
  // Same tenant, limit 1: exactly one of the two racing reservations may
  // win the last unit of headroom — never both (that would put borrowed
  // above the limit, the isolation bug), never neither (a failed CAS means
  // the other reservation progressed).
  ctx.spawn([quota, g1] { *g1 = quota->acquire(0, 0, 1); });
  ctx.spawn([quota, g2] { *g2 = quota->acquire(1, 0, 1); });
  ctx.join_all();
  const int admitted = (g1->admitted ? 1 : 0) + (g2->admitted ? 1 : 0);
  CNET_ENSURE(admitted == 1,
              "exactly one acquire must win the last borrow headroom");
  CNET_ENSURE(quota->borrowed(0) == 1,
              "borrow ledger out of sync after the race");
  quota->release(0, g1->admitted ? *g1 : *g2);
  CNET_ENSURE(quota->borrowed(0) == 0,
              "borrow ledger nonzero after release");
}

}  // namespace

int main(int argc, char** argv) {
  return cnet::check::run_scenarios(
      {
          Scenario{"borrow_vs_reweigh", Expect::kClean, borrow_vs_reweigh},
          Scenario{"last_headroom", Expect::kClean, last_headroom},
      },
      argc, argv);
}
