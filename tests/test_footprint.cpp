// Set-up footprint: the exact number of heap allocations a warm build of
// each benchmarked stack makes, built as e2ebench builds it. A counting
// replacement of every form of the global operator new sees every
// allocation the library makes.
// A warm build is the second one in the process, after the shape memo and
// the scatter width are settled, which is what e2ebench's set-up bursts
// time. The counts are host-independent: every per-thread-hint array is one
// allocation whatever the scatter width, a network's balancers are one
// allocation whatever its shape, and only the byte totals follow the
// host's core count. Allocations through the aligned operator new
// (std::align_val_t) are counted apart and pinned at zero: every padded
// block the library builds is aligned by hand inside a plain allocation
// (util::LineBlock).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "cnet/dist/peer_cluster.hpp"
#include "cnet/svc/admission.hpp"
#include "cnet/svc/backend.hpp"
#include "cnet/svc/net_token_bucket.hpp"
#include "cnet/svc/quota.hpp"
#include "cnet/util/scatter.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_aligned{0};
std::atomic<std::uint64_t> g_bytes{0};

// `align` is 0 for the plain forms, the requested alignment for the
// std::align_val_t forms.
void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align == 0) {
    p = std::malloc(size);
  } else {
    g_aligned.fetch_add(1, std::memory_order_relaxed);
    if (posix_memalign(&p, std::max(align, sizeof(void*)), size) != 0) {
      p = nullptr;
    }
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Out of line, so the compiler does not see free() meet a pointer from
// operator new at an inlined delete.
[[gnu::noinline]] void free_block(void* p) noexcept { std::free(p); }

}  // namespace

// Every form is replaced: a sanitizer runtime supplies its own array and
// nothrow forms, which would not forward to the plain ones.
void* operator new(std::size_t size) {
  return counted_alloc(size, 0);
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return ::operator new(size, align, std::nothrow);
}
void operator delete(void* p) noexcept { free_block(p); }
void operator delete[](void* p) noexcept { free_block(p); }
void operator delete(void* p, std::size_t) noexcept { free_block(p); }
void operator delete[](void* p, std::size_t) noexcept { free_block(p); }
void operator delete(void* p, std::align_val_t) noexcept { free_block(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  free_block(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  free_block(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  free_block(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  free_block(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  free_block(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  free_block(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  free_block(p);
}

namespace cnet {
namespace {

struct Footprint {
  std::uint64_t allocs = 0;
  std::uint64_t aligned = 0;  // of allocs, through std::align_val_t
  std::uint64_t bytes = 0;
};

// Builds once cold, then counts the allocations of a second build. The
// build emplaces the stack into the optional it is given, as a member
// would hold it, so the stack object itself is not counted, and neither is
// its teardown.
template <class T, class Build>
Footprint warm_footprint(const char* label, Build build) {
  {
    std::optional<T> cold;
    build(cold);
  }
  std::optional<T> warm;
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t aligned = g_aligned.load(std::memory_order_relaxed);
  const std::uint64_t bytes = g_bytes.load(std::memory_order_relaxed);
  build(warm);
  const Footprint fp{g_allocs.load(std::memory_order_relaxed) - allocs,
                     g_aligned.load(std::memory_order_relaxed) - aligned,
                     g_bytes.load(std::memory_order_relaxed) - bytes};
  std::printf(
      "%s: %llu allocations (%llu aligned), %llu bytes (scatter width %zu, "
      "default C(%zu,%zu))\n",
      label, static_cast<unsigned long long>(fp.allocs),
      static_cast<unsigned long long>(fp.aligned),
      static_cast<unsigned long long>(fp.bytes), util::scatter_slots(),
      util::counting_shape().width_in, util::counting_shape().width_out);
  return fp;
}

// The counter object, its balancer nodes, and one block holding the exit
// cells with the per-hint tally lines.
TEST(Footprint, BatchedNetworkCounter) {
  const auto fp = warm_footprint<std::unique_ptr<rt::Counter>>(
      "batched_network_counter", [](auto& out) {
        out.emplace(svc::make_counter(svc::BackendKind::kBatchedNetwork));
      });
  EXPECT_EQ(fp.allocs, 3u);
  EXPECT_EQ(fp.aligned, 0u);
}

// The counter object and one block holding its value word's line with the
// stall lines, the engine's pool state, and the engine's reader lines,
// which also carry the consume tallies.
TEST(Footprint, CentralBucket) {
  const auto fp =
      warm_footprint<svc::NetTokenBucket>("central_bucket", [](auto& out) {
        out.emplace(svc::make_counter(svc::BackendKind::kCentralAtomic));
      });
  EXPECT_EQ(fp.allocs, 4u);
  EXPECT_EQ(fp.aligned, 0u);
}

// The admit_steady / admit_overload stack: a batched-network pool of the
// host-sized shape and four ID shards, all defaults.
TEST(Footprint, DefaultAdmissionController) {
  const auto fp = warm_footprint<svc::AdmissionController>(
      "admission_controller",
      [](auto& out) { out.emplace(svc::AdmissionConfig{}); });
  EXPECT_EQ(fp.allocs, 19u);
  EXPECT_EQ(fp.aligned, 0u);
}

// The quota_skew stack: eight central-atomic tenants, the hot one weighted
// 4, under a batched-network parent.
TEST(Footprint, QuotaSkewHierarchy) {
  const auto fp = warm_footprint<svc::QuotaHierarchy>(
      "quota_skew_hierarchy", [](auto& out) {
        svc::QuotaHierarchy::Config cfg;
        cfg.parent = svc::BackendKind::kBatchedNetwork;
        cfg.borrow_budget = 64 * 8;
        std::vector<svc::QuotaHierarchy::TenantConfig> tenants(8, {0, 1});
        tenants[0].weight = 4;
        out.emplace(cfg, std::move(tenants));
      });
  EXPECT_EQ(fp.allocs, 52u);
  EXPECT_EQ(fp.aligned, 0u);
}

// The cluster_lease stack: four nodes in two dcs over a batched-network
// parent. A node's debt list allocates nothing until it is partitioned.
TEST(Footprint, ClusterLeasePeerCluster) {
  const auto fp = warm_footprint<dist::PeerCluster>(
      "cluster_lease_peer_cluster", [](auto& out) {
        std::vector<dist::NodeLocation> locs(4);
        for (std::size_t i = 0; i < locs.size(); ++i) {
          locs[i].dc = static_cast<std::uint32_t>(i / 2);
        }
        dist::ClusterConfig cfg;
        cfg.parent_initial = 16384;
        cfg.borrow_budget = 8192;
        cfg.node_account_initial = 256;
        cfg.local_initial = 4096;
        cfg.lease_chunk = 96;
        cfg.lease_ttl = 1;
        cfg.peer_reserve = 2048;
        out.emplace(dist::Topology(std::move(locs)), cfg);
      });
  EXPECT_EQ(fp.allocs, 81u);
  EXPECT_EQ(fp.aligned, 0u);
}

}  // namespace
}  // namespace cnet
