// Request spans for the traced run. Each thread records into its own
// preallocated ring, so recording is a few stores and never allocates;
// the rings are read after the threads have joined. Spans are recorded
// around the benchmark's calls into each layer's public functions: a root
// span for the request and one child span per layer call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

// Span names are module names: the layer whose public function the span
// times.
enum class SpanName : std::uint16_t {
  kRequest,         // root of a layer-stripped request
  kAdmissionAdmit,  // AdmissionController::admit
  kBucketConsume,   // NetTokenBucket::consume
  kBucketRefill,    // NetTokenBucket::refill / QuotaHierarchy::refill_parent
  kIdsAllocate,     // ShardedIdAllocator::allocate
  kRuntimePoolOp,   // rt::Counter::try_fetch_decrement on a bucket's pool
  kQuotaAcquire,    // QuotaHierarchy::acquire
  kQuotaRelease,    // QuotaHierarchy::release
  kDistAdmit,       // PeerCluster::admit
  kDistRenew,       // PeerCluster::renew
  kDistAdvance,     // PeerCluster::advance
  kCount,
};

inline const char* span_name(SpanName n) {
  static constexpr const char* kNames[] = {
      "request",        "admission.admit", "bucket.consume",
      "bucket.refill",  "ids.allocate",    "runtime.pool_op",
      "quota.acquire",  "quota.release",   "dist.admit",
      "dist.renew",     "dist.advance",
  };
  static_assert(sizeof kNames / sizeof kNames[0] ==
                static_cast<std::size_t>(SpanName::kCount));
  return kNames[static_cast<std::size_t>(n)];
}

struct Span {
  std::uint64_t request = 0;  // thread << 48 | per-thread sequence
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  // Tokens the call moved (0 = rejected); for a layer-stripped request's
  // root span, the stripping variant.
  std::uint64_t value = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 for a root span
  SpanName name = SpanName::kRequest;

  std::uint64_t duration() const noexcept { return end_ns - start_ns; }
};

// A fixed-capacity ring: once full, new spans overwrite the oldest, so the
// recording cost stays the same for the whole traced window.
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity = std::size_t{1} << 14)
      : spans_(capacity) {}

  void record(const Span& span) noexcept {
    spans_[next_ % spans_.size()] = span;
    ++next_;
  }

  template <class Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = std::min<std::uint64_t>(next_, spans_.size());
    for (std::size_t i = 0; i < n; ++i) fn(spans_[i]);
  }

 private:
  std::vector<Span> spans_;
  std::uint64_t next_ = 0;
};

// Median of the span durations (ns) for which `keep` holds; 0 when none.
template <class Keep>
double median_duration(const std::vector<SpanRing>& rings, Keep&& keep) {
  std::vector<std::uint64_t> durations;
  for (const SpanRing& ring : rings) {
    ring.for_each([&](const Span& s) {
      if (keep(s)) durations.push_back(s.duration());
    });
  }
  if (durations.empty()) return 0.0;
  const auto mid = durations.begin() + durations.size() / 2;
  std::nth_element(durations.begin(), mid, durations.end());
  return static_cast<double>(*mid);
}

inline double median_duration(const std::vector<SpanRing>& rings,
                              SpanName name) {
  return median_duration(rings, [name](const Span& s) { return s.name == name; });
}

// Writes every span still in the rings as one JSON object per line.
inline bool write_spans(const std::vector<SpanRing>& rings,
                        const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanRing& ring : rings) {
    ring.for_each([&](const Span& s) {
      std::fprintf(out,
                   "{\"request\": %llu, \"span\": %u, \"parent\": %u, "
                   "\"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": %llu, "
                   "\"value\": %llu}\n",
                   static_cast<unsigned long long>(s.request), s.id, s.parent,
                   span_name(s.name),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.value));
    });
  }
  return std::fclose(out) == 0;
}

}  // namespace e2e
