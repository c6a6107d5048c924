// util::Atomic<T> — std::atomic<T> behind the schedule checker's seam.
//
// Every protocol word whose interleavings the checker explores (balancer
// states and exit cells of the network counters, the value words of the
// central atomic and CAS counters, SlotArray tallies, ReconfigEngine
// reader counts and active-state pointer, the quota borrow reservation,
// PeerCluster's per-node balance and spent ledgers, CountingBarrier's
// epoch, OverloadManager's tier word, sampler claim and last pressure) is
// declared as util::Atomic instead of std::atomic. With
// CNET_SCHED_CHECK off this is a pure forwarding shim over std::atomic —
// same layout, same memory orders, inline calls, zero overhead. With it on,
// each operation first announces itself at a util::SchedPoint, making it
// one explorable step of the controlled scheduler (see
// util/sched_point.hpp); the real std::atomic operation then executes with
// its original memory order, so the checked code is the shipped code, not
// a model of it.
//
// Only the operations the tree actually uses are provided — add more
// forwarders as call sites need them rather than pre-paving the full
// std::atomic surface.
#pragma once

#include <atomic>

#include "cnet/util/sched_point.hpp"

namespace cnet::util {

template <class T>
class Atomic {
 public:
  constexpr Atomic() noexcept = default;
  constexpr Atomic(T desired) noexcept : v_(desired) {}  // NOLINT(google-explicit-constructor): mirrors std::atomic
  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

  T load(std::memory_order order = std::memory_order_seq_cst) const {
    announce(SchedOpKind::kAtomicLoad);
    return v_.load(order);
  }

  void store(T desired, std::memory_order order = std::memory_order_seq_cst) {
    announce(SchedOpKind::kAtomicStore);
    v_.store(desired, order);
  }

  T exchange(T desired, std::memory_order order = std::memory_order_seq_cst) {
    announce(SchedOpKind::kAtomicRmw);
    return v_.exchange(desired, order);
  }

  T fetch_add(T arg, std::memory_order order = std::memory_order_seq_cst) {
    announce(SchedOpKind::kAtomicRmw);
    return v_.fetch_add(arg, order);
  }

  T fetch_sub(T arg, std::memory_order order = std::memory_order_seq_cst) {
    announce(SchedOpKind::kAtomicRmw);
    return v_.fetch_sub(arg, order);
  }

  bool compare_exchange_weak(
      T& expected, T desired,
      std::memory_order order = std::memory_order_seq_cst) {
    announce(SchedOpKind::kAtomicRmw);
    return v_.compare_exchange_weak(expected, desired, order);
  }

  // Blocking wait and wake, unannounced: a controlled thread must never
  // sleep in the kernel, so under CNET_SCHED_CHECK callers wait in a
  // util::sched_yield() loop instead (CountingBarrier).
  void wait(T old, std::memory_order order = std::memory_order_seq_cst) const {
    v_.wait(old, order);
  }

  void notify_all() noexcept { v_.notify_all(); }

  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order order = std::memory_order_seq_cst) {
    announce(SchedOpKind::kAtomicRmw);
    return v_.compare_exchange_strong(expected, desired, order);
  }

 private:
  void announce(SchedOpKind kind) const {
#if defined(CNET_SCHED_CHECK)
    if (SchedHooks* h = sched_hooks()) h->sched_point(SchedOp{kind, this});
#else
    (void)kind;
#endif
  }

  std::atomic<T> v_{};
};

}  // namespace cnet::util
