#include "cnet/sim/timed_sim.hpp"

#include <algorithm>
#include <functional>

#include "cnet/sim/discrete_event.hpp"
#include "cnet/util/ensure.hpp"
#include "cnet/util/prng.hpp"

namespace cnet::sim {

TimedResult simulate_timed(const topo::Topology& net,
                           const TimedConfig& cfg) {
  CNET_REQUIRE(cfg.concurrency >= 1, "need at least one process");
  CNET_REQUIRE(cfg.total_tokens >= 1, "need at least one token");
  CNET_REQUIRE(cfg.service_time > 0.0, "service time must be positive");
  CNET_REQUIRE(cfg.wire_delay >= 0.0 && cfg.think_time >= 0.0,
               "delays must be nonnegative");

  util::Xoshiro256 rng(cfg.seed);
  des::Engine eng;
  des::BalancerServers servers(
      eng, net, cfg.wire_delay,
      des::ServiceDraw(cfg.service_time, cfg.exponential_service, rng));

  TimedResult res;
  double latency_sum = 0.0;
  std::size_t injected = 0;
  // Token i belongs to process i mod n and enters on that process's wire
  // at time `at`; its exit schedules the next token think_time later.
  std::function<void(double)> launch = [&](double at) {
    if (injected == cfg.total_tokens) return;
    const std::size_t process = injected++ % cfg.concurrency;
    eng.at(at, [&, process, at] {
      servers.inject(process, [&, at] {
        const double latency = eng.now() - at;
        latency_sum += latency;
        res.max_latency = std::max(res.max_latency, latency);
        res.makespan = eng.now();
        launch(eng.now() + cfg.think_time);
      });
    });
  };
  const std::size_t first_wave = std::min(cfg.concurrency, cfg.total_tokens);
  for (std::size_t p = 0; p < first_wave; ++p) launch(0.0);
  eng.run();

  const auto m = static_cast<double>(cfg.total_tokens);
  res.throughput = m / std::max(res.makespan, 1e-12);
  res.mean_latency = latency_sum / m;
  res.mean_queue_wait = servers.queue_wait() / m;
  return res;
}

}  // namespace cnet::sim
