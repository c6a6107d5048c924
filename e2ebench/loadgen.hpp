// Load generation for the end-to-end benchmark: a closed loop (each
// generator sends its next request as soon as the previous one returns) and
// an open loop (each generator sends on a seeded Poisson schedule, whatever
// the system's state). The op is a template parameter, so the per-request
// harness cost is a counter store and, in the open loop, two clock reads
// and two histogram increments; loadgen.op_overhead_ns measures it.
//
// An op is called as op(generator, traced, phase) and returns whether the
// request was admitted: `traced` is true for one request in 64 while a
// traced slice is open, `phase` is kClosed or kOpen.
// Generator g runs on the g-th allowed CPU; the next CPU is left for the
// workload's helper thread.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "cnet/util/cacheline.hpp"
#include "cnet/util/prng.hpp"
#include "histogram.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Pins the calling thread to the `index`-th CPU this process may run on,
// when there are enough of them for every load thread to get its own. On a
// 4-vCPU virtual machine, leaving the placement of three contending threads
// to the scheduler changed admit_steady throughput by up to 12% from run
// to run; pinned, by 3%.
inline void pin_to_cpu(std::size_t index, std::size_t load_threads) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  if (static_cast<std::size_t>(CPU_COUNT(&allowed)) < load_threads) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (index-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof one, &one);
      return;
    }
  }
}

enum Phase : int { kClosed = 0, kOpen = 1 };

// One request in this many is traced while tracing is on.
inline constexpr std::uint64_t kTraceEvery = 64;

struct ClosedLoopConfig {
  std::size_t threads = 3;
  double warmup_s = 0.5;
  double measure_s = 3.0;
  std::size_t slices = 12;
  // Odd slices run traced, even slices untraced, so one run yields both
  // rates and their ratio is the tracing overhead.
  bool alternate_tracing = false;
};

struct ClosedLoopResult {
  std::vector<double> rates;           // requests/s of each untraced slice
  std::vector<double> admitted_rates;  // admitted requests/s of each untraced slice
  std::vector<double> traced_rates;    // requests/s of each traced slice
  std::uint64_t attempts = 0;          // requests sent in the measured window
  std::uint64_t admitted = 0;          // of which admitted
  double seconds = 0.0;                // measured window
};

// Runs `op` back to back on cfg.threads generators. `on_begin`/`on_end` run
// on the coordinating thread at the edges of the measured window (after the
// warmup), where the caller snapshots telemetry.
template <class Op>
ClosedLoopResult run_closed_loop(const ClosedLoopConfig& cfg, Op& op,
                                 const std::function<void()>& on_begin = {},
                                 const std::function<void()>& on_end = {}) {
  // Only the generator writes its counts: plain stores, not RMWs.
  struct alignas(cnet::util::kCacheLine) Progress {
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::uint64_t> admitted{0};
  };
  std::vector<Progress> progress(cfg.threads);
  std::atomic<bool> stop{false};
  std::atomic<bool> tracing{false};
  struct Count {
    std::uint64_t done = 0, admitted = 0;
  };
  const auto total = [&] {
    Count sum;
    for (const Progress& p : progress) {
      sum.done += p.done.load(std::memory_order_relaxed);
      sum.admitted += p.admitted.load(std::memory_order_relaxed);
    }
    return sum;
  };

  ClosedLoopResult result;
  {
    std::vector<std::jthread> generators;
    for (std::size_t g = 0; g < cfg.threads; ++g) {
      generators.emplace_back([&, g] {
        pin_to_cpu(g, cfg.threads + 1);
        Progress& mine = progress[g];
        std::uint64_t seq = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const bool traced = tracing.load(std::memory_order_relaxed) &&
                              ++seq % kTraceEvery == 0;
          if (op(g, traced, kClosed)) {
            mine.admitted.store(mine.admitted.load(std::memory_order_relaxed) + 1,
                                std::memory_order_relaxed);
          }
          mine.done.store(mine.done.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(cfg.warmup_s));
    if (on_begin) on_begin();
    const auto begin = Clock::now();
    const auto slice = std::chrono::duration<double>(cfg.measure_s /
                                                     static_cast<double>(cfg.slices));
    auto edge = begin;
    const Count first = total();
    Count count = first;
    for (std::size_t s = 0; s < cfg.slices; ++s) {
      const bool traced = cfg.alternate_tracing && s % 2 == 1;
      tracing.store(traced, std::memory_order_relaxed);
      std::this_thread::sleep_until(
          begin + std::chrono::duration_cast<Clock::duration>(
                      slice * static_cast<double>(s + 1)));
      const auto now = Clock::now();
      const Count next = total();
      const double secs = std::chrono::duration<double>(now - edge).count();
      const double rate = static_cast<double>(next.done - count.done) / secs;
      if (traced) {
        result.traced_rates.push_back(rate);
      } else {
        result.rates.push_back(rate);
        result.admitted_rates.push_back(
            static_cast<double>(next.admitted - count.admitted) / secs);
      }
      edge = now;
      count = next;
    }
    result.attempts = count.done - first.done;
    result.admitted = count.admitted - first.admitted;
    tracing.store(false, std::memory_order_relaxed);
    if (on_end) on_end();
    result.seconds = std::chrono::duration<double>(edge - begin).count();
    stop.store(true, std::memory_order_relaxed);
  }
  return result;
}

// The open-loop schedule starts this long after the phase is launched, so
// every generator is running when the first request falls due.
inline constexpr std::uint64_t kOpenLoopLeadNs = 2'000'000;

struct OpenLoopConfig {
  std::size_t threads = 3;
  double rate = 1e6;  // requests/s offered by all generators together
  double seconds = 5.0;
  std::size_t slices = 10;
  std::uint64_t seed = 1;
};

struct OpenLoopResult {
  // Latency from each request's due time to its completion, in ns: one
  // histogram per slice of the schedule, and the whole phase.
  std::vector<LogHistogram> slice_latency;
  LogHistogram latency;
  // How late each request was sent (ns): the generator's backlog.
  LogHistogram lag;
  LogHistogram last_slice_lag;
  std::uint64_t sent = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

// Sends requests on a per-generator Poisson schedule at cfg.rate / threads
// each. Generators spin until a request is due, so a request sent late waits
// for nothing but the system; the time it was late counts in its latency.
// `on_end` runs once the generators have joined, while their histograms are
// still held.
template <class Op>
OpenLoopResult run_open_loop(const OpenLoopConfig& cfg, Op& op,
                             const std::function<void()>& on_end = {}) {
  struct GenState {
    std::vector<LogHistogram> slices;
    LogHistogram lag;
    LogHistogram last_lag;
    std::uint64_t sent = 0;
  };
  std::vector<std::unique_ptr<GenState>> states;
  for (std::size_t g = 0; g < cfg.threads; ++g) {
    states.push_back(std::make_unique<GenState>());
    states.back()->slices.resize(cfg.slices);
  }

  OpenLoopResult result;
  result.start_ns = now_ns() + kOpenLoopLeadNs;
  result.end_ns =
      result.start_ns + static_cast<std::uint64_t>(cfg.seconds * 1e9);
  const double mean_gap_ns =
      1e9 * static_cast<double>(cfg.threads) / cfg.rate;
  const double slice_ns = (cfg.seconds * 1e9) / static_cast<double>(cfg.slices);
  {
    std::vector<std::jthread> generators;
    for (std::size_t g = 0; g < cfg.threads; ++g) {
      generators.emplace_back([&, g] {
        pin_to_cpu(g, cfg.threads + 1);
        GenState& st = *states[g];
        cnet::util::Xoshiro256 rng(
            cnet::util::SplitMix64(cfg.seed * 0x100 + g).next());
        double due = static_cast<double>(result.start_ns);
        std::uint64_t seq = 0;
        for (;;) {
          due += -std::log(1.0 - rng.uniform01()) * mean_gap_ns;
          const auto due_ns = static_cast<std::uint64_t>(due);
          if (due_ns >= result.end_ns) break;
          std::uint64_t sent_at = now_ns();
          while (sent_at < due_ns) {
            cpu_relax();
            sent_at = now_ns();
          }
          op(g, false, kOpen);
          const std::uint64_t done_at = now_ns();
          const auto slice = std::min<std::size_t>(
              cfg.slices - 1,
              static_cast<std::size_t>(
                  static_cast<double>(due_ns - result.start_ns) / slice_ns));
          st.slices[slice].add(done_at - due_ns);
          st.lag.add(sent_at - due_ns);
          if (slice == cfg.slices - 1) st.last_lag.add(sent_at - due_ns);
          ++seq;
        }
        st.sent = seq;
      });
    }
  }
  if (on_end) on_end();
  result.slice_latency.resize(cfg.slices);
  for (const auto& st : states) {
    for (std::size_t s = 0; s < cfg.slices; ++s) {
      result.slice_latency[s].merge(st->slices[s]);
      result.latency.merge(st->slices[s]);
    }
    result.lag.merge(st->lag);
    result.last_slice_lag.merge(st->last_lag);
    result.sent += st->sent;
  }
  return result;
}

}  // namespace e2e
