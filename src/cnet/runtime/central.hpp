// Centralized counter baselines: the trivial single-location counters that
// counting networks are designed to outperform under contention (paper §1.1).
#pragma once

#include "cnet/runtime/counter.hpp"
#include "cnet/util/atomic.hpp"
#include "cnet/util/mutex.hpp"
#include "cnet/util/slot_array.hpp"
#include "cnet/util/thread_annotations.hpp"

namespace cnet::rt {

// Every bulk op on a central counter is one atomic step, whatever its size:
// a k-token batch claims the contiguous block base..base+k-1 with a single
// RMW (or lock hold). A value-free batch (null out_values) is the same step
// with no block written, and it is what the inherited refund_n takes.

// A central counter's block: the value word on its own head line, then one
// line per thread-hint slot whose one field counts CAS retries. The counter
// object itself is then a plain allocation.
using CentralLines =
    util::SlotArray<1, util::Padded<util::Atomic<std::int64_t>>>;

// One shared cache line, advanced by fetch_add. Wait-free but a sequential
// bottleneck: every operation serializes on the same location.
class AtomicCounter final : public Counter {
 public:
  void fetch_increment_batch(std::size_t, std::size_t k,
                             std::int64_t* out_values) override {
    const std::int64_t base = word().fetch_add(
        static_cast<std::int64_t>(k), std::memory_order_relaxed);
    if (out_values == nullptr) return;
    for (std::size_t i = 0; i < k; ++i) {
      out_values[i] = base + static_cast<std::int64_t>(i);
    }
  }
  std::uint64_t try_fetch_decrement_n(
      std::size_t thread_hint, std::uint64_t n,
      std::int64_t* out_values = nullptr) override;
  std::string name() const override { return "central-atomic"; }
  std::uint64_t stall_count() const override { return lines_.total(0); }

 private:
  util::Atomic<std::int64_t>& word() noexcept { return lines_.head(0).value; }

  CentralLines lines_{1, util::scatter_slots()};
};

// CAS-retry central counter: the canonical high-contention victim; retries
// are counted as stalls.
class CasCounter final : public Counter {
 public:
  void fetch_increment_batch(std::size_t thread_hint, std::size_t k,
                             std::int64_t* out_values) override;
  std::uint64_t try_fetch_decrement_n(
      std::size_t thread_hint, std::uint64_t n,
      std::int64_t* out_values = nullptr) override;
  std::string name() const override { return "central-cas"; }
  std::uint64_t stall_count() const override { return lines_.total(0); }

 private:
  CentralLines lines_{1, util::scatter_slots()};
};

// Lock-protected counter. Values only: it offers no take-back.
class MutexCounter final : public Counter {
 public:
  void fetch_increment_batch(std::size_t, std::size_t k,
                             std::int64_t* out_values) override {
    const util::MutexLock lock(mu_);
    if (out_values == nullptr) {
      value_ += static_cast<std::int64_t>(k);
      return;
    }
    for (std::size_t i = 0; i < k; ++i) out_values[i] = value_++;
  }
  std::string name() const override { return "central-mutex"; }

 private:
  util::Mutex mu_;
  std::int64_t value_ CNET_GUARDED_BY(mu_) = 0;
};

}  // namespace cnet::rt
