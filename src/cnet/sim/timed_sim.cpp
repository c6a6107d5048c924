#include "cnet/sim/timed_sim.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "cnet/topology/routing.hpp"
#include "cnet/util/ensure.hpp"
#include "cnet/util/prng.hpp"

namespace cnet::sim {

namespace {

struct TokenState {
  double inject_time = 0.0;
  double queue_wait = 0.0;
};

// Event kinds: a token arriving at a balancer (or exiting), and a balancer
// finishing a service.
struct Event {
  double time = 0.0;
  std::uint64_t order = 0;  // tie-break for determinism
  enum class Kind : std::uint8_t { kArrival, kCompletion } kind;
  std::uint32_t token = 0;
  std::uint32_t place = 0;  // balancer for both kinds
  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return order > other.order;
  }
};

}  // namespace

TimedResult simulate_timed(const topo::Topology& net,
                           const TimedConfig& cfg) {
  CNET_REQUIRE(cfg.concurrency >= 1, "need at least one process");
  CNET_REQUIRE(cfg.total_tokens >= 1, "need at least one token");
  CNET_REQUIRE(cfg.service_time > 0.0, "service time must be positive");
  CNET_REQUIRE(cfg.wire_delay >= 0.0 && cfg.think_time >= 0.0,
               "delays must be nonnegative");

  util::Xoshiro256 rng(cfg.seed);
  auto service = [&]() {
    if (!cfg.exponential_service) return cfg.service_time;
    return -cfg.service_time * std::log1p(-rng.uniform01());
  };

  // An arrival's Event::place carries the routing encoding: a balancer
  // index, or ~output for a wire that leaves the network.
  const topo::Routing routing(net);
  const std::size_t nb = routing.num_balancers();
  std::vector<std::uint32_t> state(nb, 0);

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t order = 0;
  std::vector<std::deque<std::uint32_t>> queue(nb);
  std::vector<bool> busy(nb, false);
  std::vector<double> queue_entry_time(cfg.total_tokens, 0.0);
  std::vector<TokenState> tokens(cfg.total_tokens);

  TimedResult res;
  std::size_t injected = 0;
  std::size_t exited = 0;
  double latency_sum = 0.0, wait_sum = 0.0;

  auto push = [&](Event e) {
    e.order = order++;
    events.push(e);
  };

  std::function<void(std::uint32_t, std::int32_t, double)> arrive_fn =
      [&](std::uint32_t token, std::int32_t dest, double now) {
        if (dest < 0) {
          const double latency = now - tokens[token].inject_time;
          latency_sum += latency;
          wait_sum += tokens[token].queue_wait;
          res.max_latency = std::max(res.max_latency, latency);
          res.makespan = std::max(res.makespan, now);
          ++exited;
          // Closed loop: the owning process injects its next token.
          if (injected < cfg.total_tokens) {
            const auto next = static_cast<std::uint32_t>(injected++);
            const auto proc = next % cfg.concurrency;
            tokens[next].inject_time = now + cfg.think_time;
            const std::int32_t e = routing.entry[proc % net.width_in()];
            push(Event{now + cfg.think_time, 0, Event::Kind::kArrival, next,
                       static_cast<std::uint32_t>(e)});
          }
          return;
        }
        const auto b = static_cast<std::uint32_t>(dest);
        if (busy[b]) {
          queue[b].push_back(token);
          queue_entry_time[token] = now;
        } else {
          busy[b] = true;
          push(Event{now + service(), 0, Event::Kind::kCompletion, token, b});
        }
      };

  // Seed the first wave.
  const std::size_t first_wave =
      std::min(cfg.concurrency, cfg.total_tokens);
  for (std::uint32_t p = 0; p < first_wave; ++p) {
    const auto token = static_cast<std::uint32_t>(injected++);
    tokens[token].inject_time = 0.0;
    push(Event{0.0, 0, Event::Kind::kArrival, token,
               static_cast<std::uint32_t>(routing.entry[p % net.width_in()])});
  }

  while (exited < cfg.total_tokens) {
    CNET_ENSURE(!events.empty(), "event queue drained early");
    const Event ev = events.top();
    events.pop();
    if (ev.kind == Event::Kind::kArrival) {
      // `place` may encode a direct-to-output wire as ~output_index.
      arrive_fn(ev.token, static_cast<std::int32_t>(ev.place), ev.time);
    } else {
      const std::uint32_t b = ev.place;
      // The served token advances through the balancer.
      const std::uint32_t port = state[b];
      state[b] = (state[b] + 1) % routing.fanout[b];
      const std::int32_t next = routing.next(b, port);
      if (next < 0) {
        arrive_fn(ev.token, next, ev.time + cfg.wire_delay);
      } else {
        push(Event{ev.time + cfg.wire_delay, 0, Event::Kind::kArrival,
                   ev.token, static_cast<std::uint32_t>(next)});
      }
      // Start the next waiting token, if any.
      if (queue[b].empty()) {
        busy[b] = false;
      } else {
        const std::uint32_t waiting = queue[b].front();
        queue[b].pop_front();
        tokens[waiting].queue_wait += ev.time - queue_entry_time[waiting];
        push(Event{ev.time + service(), 0, Event::Kind::kCompletion,
                   waiting, b});
      }
    }
  }

  res.throughput = static_cast<double>(cfg.total_tokens) /
                   std::max(res.makespan, 1e-12);
  res.mean_latency =
      latency_sum / static_cast<double>(cfg.total_tokens);
  res.mean_queue_wait =
      wait_sum / static_cast<double>(cfg.total_tokens);
  return res;
}

}  // namespace cnet::sim
