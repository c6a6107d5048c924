#include "cnet/runtime/network_counter.hpp"

#include <algorithm>
#include <utility>

#include "cnet/util/bitops.hpp"
#include "cnet/util/ensure.hpp"

namespace cnet::rt {

NetworkCounter::NetworkCounter(const topo::Topology& net, std::string label,
                               BalancerMode mode)
    : NetworkCounter(std::make_shared<const CompiledShape>(net),
                     std::move(label), mode) {}

NetworkCounter::NetworkCounter(std::shared_ptr<const CompiledShape> shape,
                               std::string label, BalancerMode mode)
    : net_(std::move(shape)), label_(std::move(label)), mode_(mode),
      entry_mask_(util::is_pow2(net_.width_in())
                      ? net_.width_in() - 1
                      : CompiledNetwork::kNoMask),
      lines_(net_.width_out(), util::scatter_slots()) {
  for (std::size_t i = 0; i < net_.width_out(); ++i) {
    cell(i).store(static_cast<std::int64_t>(i), std::memory_order_relaxed);
  }
}

std::size_t NetworkCounter::entry_wire(
    std::size_t thread_hint) const noexcept {
  return entry_mask_ != CompiledNetwork::kNoMask
             ? thread_hint & entry_mask_
             : thread_hint % net_.width_in();
}

std::size_t NetworkCounter::walk(std::size_t thread_hint, std::int64_t step) {
  std::uint64_t local_stalls = 0;
  const std::size_t out =
      net_.walk(entry_wire(thread_hint), step, mode_, &local_stalls);
  lines_.add(kStalls, thread_hint, local_stalls);
  lines_.add(kTraversals, thread_hint, 1);
  return out;
}

std::int64_t NetworkCounter::fetch_decrement(std::size_t thread_hint) {
  const std::size_t out = walk(thread_hint, -1);
  // Undo one cell step: the reclaimed value is the new cell content.
  return cell(out).fetch_sub(
             static_cast<std::int64_t>(net_.width_out()),
             std::memory_order_relaxed) -
         static_cast<std::int64_t>(net_.width_out());
}

std::uint64_t NetworkCounter::try_fetch_decrement_n(std::size_t thread_hint,
                                                    std::uint64_t n,
                                                    std::int64_t* out_values) {
  if (n == 0) return 0;
  const std::size_t out = walk(thread_hint, -1);
  // Bounded cell claims: wire w starts at value w and holds one unreclaimed
  // handed-out value per step of t above that floor. One CAS steps a cell
  // back by m = min(still needed, surplus) values, and only while the wire
  // is net-positive, so globally the number of values taken back can never
  // exceed the number of increments at any moment — each is backed by a
  // specific increment's cell step on the same wire. The claims sweep from
  // the antitoken's own exit wire, then round-robin over the other cells:
  // phantom antitokens from earlier misses shift the routing, and the
  // sweep keeps the op lossless. It is the O(t) miss path; successful
  // consumes stay on the traversal's exit wire.
  const std::size_t t = net_.width_out();
  const auto step = static_cast<std::int64_t>(t);
  std::uint64_t got = 0;
  std::uint64_t retries = 0;
  for (std::size_t wire = out, i = 0; i < t; ++wire, ++i) {
    if (wire == t) wire = 0;
    const auto floor = static_cast<std::int64_t>(wire);
    std::int64_t cur = cell(wire).load(std::memory_order_relaxed);
    while (cur >= floor + step) {
      // A claim of one needs no surplus count, and so no divide.
      std::uint64_t m = n - got;
      if (m > 1) {
        m = std::min(m, static_cast<std::uint64_t>((cur - floor) / step));
      }
      if (cell(wire).compare_exchange_weak(
              cur, cur - static_cast<std::int64_t>(m) * step,
              std::memory_order_relaxed)) {
        // The reclaimed values are the cell contents the claim stepped
        // back through: cur - t, cur - 2t, ...
        if (out_values != nullptr) {
          for (std::uint64_t j = 1; j <= m; ++j) {
            out_values[got++] = cur - static_cast<std::int64_t>(j) * step;
          }
        } else {
          got += m;
        }
        break;
      }
      ++retries;
    }
    if (got == n) break;
  }
  lines_.add(kStalls, thread_hint, retries);
  return got;
}

void NetworkCounter::fetch_increment_batch(std::size_t thread_hint,
                                           std::size_t k,
                                           std::int64_t* out_values) {
  if (k == 0) return;
  if (k == 1) {
    // A lone token walks the network on its own: the batch machinery
    // costs Θ(balancers) in scratch resets per call.
    const std::size_t out = walk(thread_hint, +1);
    // The exit cell assigns the value and advances by t (paper §1.1). One
    // atomic RMW makes the assignment linearizable per wire.
    const std::int64_t v = cell(out).fetch_add(
        static_cast<std::int64_t>(net_.width_out()),
        std::memory_order_relaxed);
    if (out_values != nullptr) out_values[0] = v;
    return;
  }
  // One scratch per thread, shared across instances: traverse_batch resizes
  // it to the current network, and calls never nest.
  static thread_local BatchScratch scratch;
  static thread_local std::vector<std::uint64_t> wire_counts;
  wire_counts.assign(net_.width_out(), 0);

  std::uint64_t local_stalls = 0;
  net_.traverse_batch(entry_wire(thread_hint), k, mode_, &local_stalls,
                      scratch, wire_counts.data());
  lines_.add(kStalls, thread_hint, local_stalls);
  lines_.add(kTraversals, thread_hint, k);
  lines_.add(kBatchPasses, thread_hint, 1);

  const auto t = static_cast<std::int64_t>(net_.width_out());
  std::size_t filled = 0;
  for (std::size_t wire = 0; wire < wire_counts.size(); ++wire) {
    const std::uint64_t count = wire_counts[wire];
    if (count == 0) continue;
    // One cell RMW claims the wire's whole contiguous block of values.
    const std::int64_t base = cell(wire).fetch_add(
        static_cast<std::int64_t>(count) * t, std::memory_order_relaxed);
    if (out_values == nullptr) continue;  // value-free: count only
    for (std::uint64_t j = 0; j < count; ++j) {
      out_values[filled++] = base + static_cast<std::int64_t>(j) * t;
    }
  }
}

}  // namespace cnet::rt
