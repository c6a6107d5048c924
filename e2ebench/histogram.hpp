// Log-bucket latency histogram at 1/64 relative precision: values below 64
// get a bucket each, larger values share a bucket with everything that has
// the same leading 7 bits. Recording is an index computation and one
// increment, so a generator thread can record every request it sends; each
// thread owns its histograms and they are merged once, after the threads
// have joined.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace e2e {

class LogHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  // Values at or above 2^kMaxExp ns (about 18 minutes) clamp into the top
  // bucket.
  static constexpr int kMaxExp = 40;
  static constexpr std::size_t kBuckets = kSub + (kMaxExp - kSubBits) * kSub;

  void add(std::uint64_t v) noexcept {
    ++counts_[bucket_of(v)];
    ++total_;
  }

  void merge(const LogHistogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  std::uint64_t count() const noexcept { return total_; }

  // Nearest-rank quantile, q in [0, 1]: the bucket holding the
  // ceil(q * count)-th smallest value, reported as the bucket's midpoint, so
  // the result is within 1/128 of that value. 0 when empty.
  double quantile(double q) const noexcept {
    if (total_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_));
    if (static_cast<double>(rank) < q * static_cast<double>(total_)) ++rank;
    if (rank == 0) rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

  static std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int exp = std::bit_width(v) - 1;  // >= kSubBits
    if (exp >= kMaxExp) return kBuckets - 1;
    const std::uint64_t mantissa = (v >> (exp - kSubBits)) & (kSub - 1);
    return static_cast<std::size_t>(kSub + (exp - kSubBits) * kSub + mantissa);
  }

  static double midpoint(std::size_t bucket) noexcept {
    if (bucket < kSub) return static_cast<double>(bucket);
    const std::size_t exp = (bucket - kSub) / kSub + kSubBits;
    const std::uint64_t mantissa = (bucket - kSub) % kSub;
    const std::uint64_t width = std::uint64_t{1} << (exp - kSubBits);
    const std::uint64_t low = (kSub + mantissa) * width;
    return static_cast<double>(low) + static_cast<double>(width - 1) / 2.0;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace e2e
