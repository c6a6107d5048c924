// The service-layer facade: one header wiring the token-bucket rate
// limiter and the sharded ID allocator behind a single admission call, the
// shape a front-end request path actually wants — "may this request run,
// and if so, under which globally-unique request ID?". Both components
// share one Counter backend kind chosen by AdmissionConfig, so swapping a
// whole deployment between central and counting-network admission is a
// one-field change.
#pragma once

#include <cstdint>
#include <string>

#include "cnet/svc/backend.hpp"
#include "cnet/svc/net_token_bucket.hpp"
#include "cnet/svc/sharded_id_allocator.hpp"

namespace cnet::svc {

struct AdmissionConfig {
  BackendKind backend = BackendKind::kBatchedNetwork;
  BackendConfig net;  // network shape for the network-backed kinds
  std::size_t shards = 4;
  ShardedIdAllocator::Config ids;
  NetTokenBucket::Config bucket;
};

class OverloadManager;

class AdmissionController {
 public:
  struct Ticket {
    bool admitted = false;
    std::int64_t request_id = -1;  // valid iff admitted
    // Tokens actually charged: == cost on a normal admission, possibly
    // less under the overload manager's degrade-partial action, always 0
    // on rejection. Conservation contract: whatever a caller undoes, it
    // must refund exactly `charged` (never `cost`) through the bucket.
    std::uint64_t charged = 0;
  };

  explicit AdmissionController(const AdmissionConfig& cfg);

  // Charges `cost` tokens and on admission tags the request with a unique
  // ID from the sharded allocator. The charge is all-or-nothing — never
  // over-admitting is the bucket backend's bound-at-zero guarantee —
  // unless an attached overload manager's tier carries degrade_to_partial,
  // in which case a short pool still admits with Ticket::charged set to
  // the partial grab (at least 1). Either way no tokens are ever created:
  // charged tokens came out of the pool exactly once and a rejected call
  // leaves the pool untouched.
  Ticket admit(std::size_t thread_hint, std::uint64_t cost = 1);

  // Capacity addition via the pool's batched increment path (this *is*
  // load, unlike refunds of previously charged tokens).
  void refill(std::size_t thread_hint, std::uint64_t tokens) {
    bucket_.refill(thread_hint, tokens);
  }

  // Puts the admission path under an overload manager: the bucket gets the
  // shrink action, and admit() starts honoring degrade_to_partial as
  // described above. The manager must outlive this controller; nullptr
  // detaches.
  void attach_overload(const OverloadManager* manager) noexcept {
    overload_ = manager;
    bucket_.attach_overload(manager);
  }

  NetTokenBucket& bucket() noexcept { return bucket_; }
  ShardedIdAllocator& ids() noexcept { return ids_; }
  // Total backend contention events across the bucket pool and ID shards.
  std::uint64_t stall_count() const {
    return bucket_.stall_count() + ids_.stall_count();
  }
  std::string name() const;

 private:
  NetTokenBucket bucket_;
  ShardedIdAllocator ids_;
  const OverloadManager* overload_ = nullptr;
};

}  // namespace cnet::svc
