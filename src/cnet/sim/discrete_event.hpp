// The discrete-event core the virtual-time simulators share: a
// deterministic executor, the service-time draw, and a counting network as
// per-balancer FIFO servers. simulate_timed drives the servers in a closed
// loop of bare tokens; the multicore NetworkModel drives the same servers
// with pool claims and batched chunks on top. Internal to src/cnet/sim.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "cnet/topology/routing.hpp"
#include "cnet/topology/topology.hpp"
#include "cnet/util/ensure.hpp"
#include "cnet/util/prng.hpp"

namespace cnet::sim::des {

using Done = std::function<void()>;

// Minimal deterministic discrete-event executor: events fire in (time,
// insertion order), so equal-time events replay identically on every host.
class Engine {
 public:
  double now() const noexcept { return now_; }

  void at(double time, Done fn) {
    events_.push(Event{std::max(time, now_), seq_++, std::move(fn)});
  }

  void run() {
    while (!events_.empty()) {
      // Move the handler out from under priority_queue's const top(). The
      // subsequent pop() re-heapifies by comparing only the trivially
      // copied time/seq fields, which the move leaves intact — nothing on
      // the pop path may ever inspect fn.
      Event ev = std::move(const_cast<Event&>(events_.top()));
      events_.pop();
      now_ = ev.time;
      ev.fn();
    }
  }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    Done fn;
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::uint64_t seq_ = 0;
  double now_ = 0.0;
};

// Service-time draw: fixed, or exponential with the given mean (real
// memory access times are noisy, and the noise is what makes queue depth
// matter). Every simulated service time passes through here, so a negative
// or NaN mean is rejected once, at construction.
class ServiceDraw {
 public:
  ServiceDraw(double mean, bool exponential, util::Xoshiro256& rng)
      : mean_(mean), exponential_(exponential), rng_(rng) {
    CNET_REQUIRE(mean >= 0.0, "service time must be nonnegative");
  }
  double operator()() {
    if (!exponential_) return mean_;
    return -mean_ * std::log1p(-rng_.uniform01());
  }

 private:
  double mean_;
  bool exponential_;
  util::Xoshiro256& rng_;
};

// The counting network as per-balancer FIFO servers over the real
// topology: a token injected on hint's entry wire queues at each balancer
// it reaches while that server is busy, takes one service draw to pass,
// leaves on the balancer's next output port, and travels wire_delay to the
// next balancer or out of the network, where on_exit runs. Each queued
// arrival is a stall event.
class BalancerServers {
 public:
  BalancerServers(Engine& eng, const topo::Topology& net, double wire_delay,
                  ServiceDraw draw)
      : eng_(eng),
        wire_(wire_delay),
        draw_(draw),
        routing_(net),
        bals_(routing_.num_balancers()) {}

  // Launch one traversal from entry wire hint mod width_in.
  void inject(std::size_t hint, Done on_exit) {
    const std::int32_t e = routing_.entry[hint % routing_.width_in()];
    if (e < 0) {
      eng_.at(eng_.now(), std::move(on_exit));
      return;
    }
    arrive(static_cast<std::uint32_t>(e), std::move(on_exit));
  }

  std::uint64_t stalls() const noexcept { return stalls_; }
  // Total time tokens spent queued, summed as each leaves its queue.
  double queue_wait() const noexcept { return queue_wait_; }

 private:
  struct Waiter {
    Done on_exit;
    double since;
  };
  struct Balancer {
    bool busy = false;
    std::uint32_t state = 0;
    std::deque<Waiter> waiting;
  };

  void arrive(std::uint32_t b, Done on_exit) {
    Balancer& bal = bals_[b];
    if (bal.busy) {
      ++stalls_;
      bal.waiting.push_back(Waiter{std::move(on_exit), eng_.now()});
      return;
    }
    bal.busy = true;
    start_service(b, std::move(on_exit));
  }

  void start_service(std::uint32_t b, Done on_exit) {
    eng_.at(eng_.now() + draw_(),
            [this, b, on_exit = std::move(on_exit)]() mutable {
              complete(b, std::move(on_exit));
            });
  }

  void complete(std::uint32_t b, Done on_exit) {
    Balancer& bal = bals_[b];
    const std::uint32_t port = bal.state;
    bal.state = (bal.state + 1) % routing_.fanout[b];
    const std::int32_t next = routing_.next(b, port);
    if (next < 0) {
      eng_.at(eng_.now() + wire_, std::move(on_exit));
    } else {
      const auto nb = static_cast<std::uint32_t>(next);
      eng_.at(eng_.now() + wire_,
              [this, nb, on_exit = std::move(on_exit)]() mutable {
                arrive(nb, std::move(on_exit));
              });
    }
    if (bal.waiting.empty()) {
      bal.busy = false;
    } else {
      Waiter waiter = std::move(bal.waiting.front());
      bal.waiting.pop_front();
      queue_wait_ += eng_.now() - waiter.since;
      start_service(b, std::move(waiter.on_exit));
    }
  }

  Engine& eng_;
  double wire_;
  ServiceDraw draw_;
  topo::Routing routing_;
  std::vector<Balancer> bals_;
  std::uint64_t stalls_ = 0;
  double queue_wait_ = 0.0;
};

}  // namespace cnet::sim::des
