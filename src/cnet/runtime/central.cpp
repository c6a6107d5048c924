#include "cnet/runtime/central.hpp"

#include <algorithm>

namespace cnet::rt {

namespace {

// Shared bounded-decrement loop for the atomic central counters: one CAS
// takes a whole block of min(n, value) values, never moving the value below
// zero. Failed CAS attempts count as stalls, symmetrically with the
// increment path. The block taken is value-1 down to value-m.
std::uint64_t bounded_decrement_n(CentralLines& lines, std::uint64_t n,
                                  std::int64_t* out_values,
                                  std::size_t thread_hint) {
  util::Atomic<std::int64_t>& value = lines.head(0).value;
  std::int64_t cur = value.load(std::memory_order_relaxed);
  std::uint64_t retries = 0;
  while (cur > 0) {
    const auto m = std::min<std::uint64_t>(
        n, static_cast<std::uint64_t>(cur));
    if (value.compare_exchange_weak(cur,
                                    cur - static_cast<std::int64_t>(m),
                                    std::memory_order_relaxed)) {
      lines.add(0, thread_hint, retries);
      if (out_values != nullptr) {
        for (std::uint64_t i = 0; i < m; ++i) {
          out_values[i] = cur - 1 - static_cast<std::int64_t>(i);
        }
      }
      return m;
    }
    ++retries;
  }
  lines.add(0, thread_hint, retries);
  return 0;
}

}  // namespace

std::uint64_t AtomicCounter::try_fetch_decrement_n(std::size_t thread_hint,
                                                   std::uint64_t n,
                                                   std::int64_t* out_values) {
  return bounded_decrement_n(lines_, n, out_values, thread_hint);
}

void CasCounter::fetch_increment_batch(std::size_t thread_hint, std::size_t k,
                                       std::int64_t* out_values) {
  util::Atomic<std::int64_t>& value = lines_.head(0).value;
  std::int64_t base = value.load(std::memory_order_relaxed);
  std::uint64_t retries = 0;
  while (!value.compare_exchange_weak(base,
                                      base + static_cast<std::int64_t>(k),
                                      std::memory_order_relaxed)) {
    ++retries;
  }
  lines_.add(0, thread_hint, retries);
  if (out_values == nullptr) return;
  for (std::size_t i = 0; i < k; ++i) {
    out_values[i] = base + static_cast<std::int64_t>(i);
  }
}

std::uint64_t CasCounter::try_fetch_decrement_n(std::size_t thread_hint,
                                                std::uint64_t n,
                                                std::int64_t* out_values) {
  return bounded_decrement_n(lines_, n, out_values, thread_hint);
}

}  // namespace cnet::rt
