#include "cnet/svc/admission.hpp"

#include <utility>
#include <vector>

#include "cnet/svc/overload.hpp"
#include "cnet/util/ensure.hpp"

namespace cnet::svc {

namespace {

std::vector<std::unique_ptr<rt::Counter>> make_shards(
    const AdmissionConfig& cfg) {
  CNET_REQUIRE(cfg.shards > 0, "at least one shard");
  std::vector<std::unique_ptr<rt::Counter>> shards;
  shards.reserve(cfg.shards);
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    shards.push_back(make_counter(cfg.backend, cfg.net));
  }
  return shards;
}

}  // namespace

AdmissionController::AdmissionController(const AdmissionConfig& cfg)
    : bucket_(make_counter(cfg.backend, cfg.net), cfg.bucket),
      ids_(make_shards(cfg), cfg.ids) {}

AdmissionController::Ticket AdmissionController::admit(
    std::size_t thread_hint, std::uint64_t cost) {
  CNET_REQUIRE(cost > 0, "admission cost must be positive");
  // Validate before charging: a bad hint must not consume tokens the
  // caller can never get a ticket (or a refund) for.
  CNET_REQUIRE(thread_hint < ids_.max_threads(),
               "thread_hint must be < max_threads");
  Ticket ticket;
  // The degrade decision is made here, not inside the bucket: only the
  // admission layer can hand the caller the exact partial charge, and a
  // silently partial bucket would leak tokens through every all-or-nothing
  // caller that compares the result against `cost`.
  const bool degrade =
      overload_ != nullptr && overload_->actions().degrade_to_partial;
  const std::uint64_t charged = bucket_.consume(
      thread_hint, cost, degrade ? kPartialOk : kAllOrNothing);
  if (degrade ? charged == 0 : charged != cost) {
    return ticket;  // rejected, nothing charged, no ID burned
  }
  ticket.admitted = true;
  ticket.charged = charged;
  ticket.request_id = ids_.allocate(thread_hint);
  return ticket;
}

std::string AdmissionController::name() const {
  return "admission·" + bucket_.pool().name();
}

}  // namespace cnet::svc
