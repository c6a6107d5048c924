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

std::int64_t NetworkCounter::fetch_increment(std::size_t thread_hint) {
  std::uint64_t local_stalls = 0;
  const std::size_t out =
      net_.traverse(entry_wire(thread_hint), mode_, &local_stalls);
  lines_.add(kStalls, thread_hint, local_stalls);
  lines_.add(kTraversals, thread_hint, 1);
  // The exit cell assigns the value and advances by t (paper §1.1). One
  // atomic RMW makes the assignment linearizable per wire.
  return cell(out).fetch_add(
      static_cast<std::int64_t>(net_.width_out()),
      std::memory_order_relaxed);
}

std::int64_t NetworkCounter::fetch_decrement(std::size_t thread_hint) {
  std::uint64_t local_stalls = 0;
  const std::size_t out =
      net_.traverse_anti(entry_wire(thread_hint), mode_, &local_stalls);
  lines_.add(kStalls, thread_hint, local_stalls);
  lines_.add(kTraversals, thread_hint, 1);
  // Undo one cell step: the reclaimed value is the new cell content.
  return cell(out).fetch_sub(
             static_cast<std::int64_t>(net_.width_out()),
             std::memory_order_relaxed) -
         static_cast<std::int64_t>(net_.width_out());
}

bool NetworkCounter::try_claim_cell(std::size_t wire, std::size_t thread_hint,
                                    std::int64_t* reclaimed) {
  // Bounded cell claim: wire `wire` starts at value `wire` and holds one
  // unreclaimed handed-out value per step of t above that floor. Only step
  // back while the wire is net-positive, so globally the number of
  // successful try-decrements can never exceed the number of increments at
  // any moment — each success is backed by a specific increment's cell
  // step on the same wire.
  const auto t = static_cast<std::int64_t>(net_.width_out());
  const auto floor = static_cast<std::int64_t>(wire);
  std::int64_t cur = cell(wire).load(std::memory_order_relaxed);
  std::uint64_t retries = 0;
  while (cur >= floor + t) {
    if (cell(wire).compare_exchange_weak(cur, cur - t,
                                         std::memory_order_relaxed)) {
      lines_.add(kStalls, thread_hint, retries);
      if (reclaimed != nullptr) *reclaimed = cur - t;
      return true;
    }
    ++retries;
  }
  lines_.add(kStalls, thread_hint, retries);
  return false;
}

bool NetworkCounter::try_fetch_decrement(std::size_t thread_hint,
                                         std::int64_t* reclaimed) {
  std::uint64_t local_stalls = 0;
  const std::size_t out =
      net_.traverse_anti(entry_wire(thread_hint), mode_, &local_stalls);
  lines_.add(kStalls, thread_hint, local_stalls);
  lines_.add(kTraversals, thread_hint, 1);
  // Fast path: the antitoken's own exit wire — under balanced traffic this
  // is exactly where the most recent token's value sits.
  if (try_claim_cell(out, thread_hint, reclaimed)) return true;
  // The exit wire is drained but tokens may sit on other wires (phantom
  // antitokens from earlier failures shift the routing). One round-robin
  // sweep over the remaining cells keeps the op lossless: it can only miss
  // when every cell is at its floor during the pass, i.e. the pool is
  // genuinely empty (or being emptied concurrently). The sweep is the
  // O(t) miss path; successful consumes stay on the traversal fast path.
  for (std::size_t wire = out + 1, i = 1; i < net_.width_out(); ++wire, ++i) {
    if (wire == net_.width_out()) wire = 0;
    if (try_claim_cell(wire, thread_hint, reclaimed)) return true;
  }
  return false;
}

std::uint64_t NetworkCounter::try_claim_cell_n(std::size_t wire,
                                               std::size_t thread_hint,
                                               std::uint64_t n) {
  // Block form of try_claim_cell: one CAS steps the cell back by
  // min(n, surplus) values while preserving the floor bound.
  const auto t = static_cast<std::int64_t>(net_.width_out());
  const auto floor = static_cast<std::int64_t>(wire);
  std::int64_t cur = cell(wire).load(std::memory_order_relaxed);
  std::uint64_t retries = 0;
  while (cur >= floor + t) {
    const auto surplus = static_cast<std::uint64_t>((cur - floor) / t);
    const auto m = std::min<std::uint64_t>(n, surplus);
    if (cell(wire).compare_exchange_weak(
            cur, cur - static_cast<std::int64_t>(m) * t,
            std::memory_order_relaxed)) {
      lines_.add(kStalls, thread_hint, retries);
      return m;
    }
    ++retries;
  }
  lines_.add(kStalls, thread_hint, retries);
  return 0;
}

std::uint64_t NetworkCounter::try_fetch_decrement_n(std::size_t thread_hint,
                                                    std::uint64_t n) {
  if (n == 0) return 0;
  std::uint64_t local_stalls = 0;
  const std::size_t out =
      net_.traverse_anti(entry_wire(thread_hint), mode_, &local_stalls);
  lines_.add(kStalls, thread_hint, local_stalls);
  lines_.add(kTraversals, thread_hint, 1);
  std::uint64_t got = 0;
  for (std::size_t wire = out, i = 0; i < net_.width_out() && got < n;
       ++wire, ++i) {
    if (wire == net_.width_out()) wire = 0;
    got += try_claim_cell_n(wire, thread_hint, n - got);
  }
  return got;
}

void NetworkCounter::fetch_increment_batch(std::size_t thread_hint,
                                           std::size_t k,
                                           std::int64_t* out_values) {
  if (k == 0) return;
  if (k == 1) {
    // The batch machinery costs Θ(balancers) in scratch resets per call;
    // a lone token is cheaper on the per-token path.
    const std::int64_t v = fetch_increment(thread_hint);
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
