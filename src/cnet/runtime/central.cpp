#include "cnet/runtime/central.hpp"

namespace cnet::rt {

namespace {

// Shared bounded-decrement loop for the atomic central counters: move the
// value back by one unless it is already zero. Failed CAS attempts count as
// stalls, symmetrically with the increment path.
bool bounded_decrement(CentralLines& lines, std::int64_t* reclaimed,
                       std::size_t thread_hint) {
  util::Atomic<std::int64_t>& value = lines.head(0).value;
  std::int64_t cur = value.load(std::memory_order_relaxed);
  std::uint64_t retries = 0;
  while (cur > 0) {
    if (value.compare_exchange_weak(cur, cur - 1,
                                    std::memory_order_relaxed)) {
      lines.add(0, thread_hint, retries);
      if (reclaimed != nullptr) *reclaimed = cur - 1;
      return true;
    }
    ++retries;
  }
  lines.add(0, thread_hint, retries);
  return false;
}

// Bulk form: one CAS takes a whole block of min(n, value) values.
std::uint64_t bounded_decrement_n(CentralLines& lines, std::uint64_t n,
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
      return m;
    }
    ++retries;
  }
  lines.add(0, thread_hint, retries);
  return 0;
}

}  // namespace

bool AtomicCounter::try_fetch_decrement(std::size_t thread_hint,
                                        std::int64_t* reclaimed) {
  return bounded_decrement(lines_, reclaimed, thread_hint);
}

std::uint64_t AtomicCounter::try_fetch_decrement_n(std::size_t thread_hint,
                                                   std::uint64_t n) {
  return bounded_decrement_n(lines_, n, thread_hint);
}

std::int64_t CasCounter::add(std::size_t thread_hint, std::int64_t k) {
  util::Atomic<std::int64_t>& value = lines_.head(0).value;
  std::int64_t cur = value.load(std::memory_order_relaxed);
  std::uint64_t retries = 0;
  while (!value.compare_exchange_weak(cur, cur + k,
                                      std::memory_order_relaxed)) {
    ++retries;
  }
  lines_.add(0, thread_hint, retries);
  return cur;
}

std::int64_t CasCounter::fetch_increment(std::size_t thread_hint) {
  return add(thread_hint, 1);
}

void CasCounter::fetch_increment_batch(std::size_t thread_hint, std::size_t k,
                                       std::int64_t* out_values) {
  const std::int64_t base = add(thread_hint, static_cast<std::int64_t>(k));
  if (out_values == nullptr) return;
  for (std::size_t i = 0; i < k; ++i) {
    out_values[i] = base + static_cast<std::int64_t>(i);
  }
}

bool CasCounter::try_fetch_decrement(std::size_t thread_hint,
                                     std::int64_t* reclaimed) {
  return bounded_decrement(lines_, reclaimed, thread_hint);
}

std::uint64_t CasCounter::try_fetch_decrement_n(std::size_t thread_hint,
                                                std::uint64_t n) {
  return bounded_decrement_n(lines_, n, thread_hint);
}

}  // namespace cnet::rt
