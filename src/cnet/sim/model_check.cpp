#include "cnet/sim/model_check.hpp"

#include <algorithm>
#include <vector>

#include "cnet/sim/token_sim.hpp"
#include "cnet/util/ensure.hpp"

namespace cnet::sim {

namespace {

// Replays a prefix of choices, then takes the lowest-numbered ready
// balancer at every new step. Choice k at a step fires the k-th lowest
// balancer with a waiting token; the number of ready balancers is recorded
// per step so the search knows which choices remain.
class Replay final : public Scheduler {
 public:
  Replay(std::vector<std::uint32_t>& choice, std::vector<std::uint32_t>& ready)
      : choice_(choice), ready_(ready) {}

  std::uint32_t pick() override {
    sorted_ = view_->nonempty();
    std::sort(sorted_.begin(), sorted_.end());
    if (step_ == choice_.size()) {
      choice_.push_back(0);
      ready_.push_back(static_cast<std::uint32_t>(sorted_.size()));
    }
    return sorted_[choice_[step_++]];
  }

 private:
  std::vector<std::uint32_t>& choice_;
  std::vector<std::uint32_t>& ready_;
  std::vector<std::uint32_t> sorted_;
  std::size_t step_ = 0;
};

}  // namespace

ModelCheckResult explore_all_executions(const topo::Topology& net,
                                        const ModelCheckConfig& cfg) {
  SimConfig sim_cfg;
  sim_cfg.concurrency = cfg.concurrency;
  sim_cfg.total_tokens = cfg.total_tokens;
  sim_cfg.collect_per_balancer = false;
  sim_cfg.collect_token_records = true;

  ModelCheckResult result;
  result.min_total_stalls = ~0ULL;
  // Depth-first over schedules: each run replays `choice` and extends it
  // with lowest-first picks to a maximal execution; then the deepest step
  // with an untried choice advances and everything after it is dropped.
  std::vector<std::uint32_t> choice, ready;
  do {
    Replay sched(choice, ready);
    SimResult run = simulate(net, sim_cfg, sched);
    ++result.executions;
    CNET_REQUIRE(result.executions <= cfg.max_executions,
                 "execution-space cap exceeded — instance too large");
    // Exactness: values must be exactly 0..m-1.
    std::sort(run.counter_values.begin(), run.counter_values.end());
    for (std::size_t i = 0; i < run.counter_values.size(); ++i) {
      if (run.counter_values[i] != static_cast<seq::Value>(i)) {
        result.all_exact = false;
        break;
      }
    }
    result.max_total_stalls =
        std::max(result.max_total_stalls, run.total_stalls);
    result.min_total_stalls =
        std::min(result.min_total_stalls, run.total_stalls);
    if (!result.inversion_possible) {
      for (const auto& i : run.token_records) {
        for (const auto& j : run.token_records) {
          if (i.exit_step < j.enter_step && i.value > j.value) {
            result.inversion_possible = true;
          }
        }
      }
    }
    while (!choice.empty() && choice.back() + 1 == ready.back()) {
      choice.pop_back();
      ready.pop_back();
    }
    if (!choice.empty()) ++choice.back();
  } while (!choice.empty());
  return result;
}

}  // namespace cnet::sim
