#include "cnet/sim/model_check.hpp"

#include <algorithm>
#include <vector>

#include "cnet/seq/sequence.hpp"
#include "cnet/topology/routing.hpp"
#include "cnet/util/ensure.hpp"

namespace cnet::sim {

namespace {

struct TokenRec {
  std::uint32_t process = 0;
  std::uint64_t enter = 0;
  std::uint64_t exit = 0;
  seq::Value value = 0;
  bool done = false;
};

struct State {
  std::vector<std::vector<std::uint32_t>> queues;  // FIFO of token ids
  std::vector<std::uint32_t> bstate;
  std::vector<seq::Value> cells;
  std::vector<TokenRec> recs;
  std::size_t injected = 0;
  std::size_t exited = 0;
  std::uint64_t steps = 0;
  std::uint64_t stalls = 0;
};

class Explorer {
 public:
  Explorer(const topo::Topology& net, const ModelCheckConfig& cfg)
      : net_(net), cfg_(cfg), routing_(net) {}

  ModelCheckResult run() {
    CNET_REQUIRE(cfg_.concurrency >= 1, "need at least one process");
    CNET_REQUIRE(cfg_.total_tokens >= 1, "need at least one token");
    State s;
    s.queues.resize(net_.num_balancers());
    s.bstate.assign(net_.num_balancers(), 0);
    s.cells.resize(net_.width_out());
    for (std::size_t i = 0; i < s.cells.size(); ++i) {
      s.cells[i] = static_cast<seq::Value>(i);
    }
    s.recs.resize(cfg_.total_tokens);
    const std::size_t first_wave =
        std::min(cfg_.concurrency, cfg_.total_tokens);
    for (std::uint32_t p = 0; p < first_wave; ++p) inject(s, p);
    result_.min_total_stalls = ~0ULL;
    dfs(s);
    if (result_.executions == 0) result_.min_total_stalls = 0;
    return result_;
  }

 private:
  void inject(State& s, std::uint32_t process) {
    if (s.injected == cfg_.total_tokens) return;
    const auto token = static_cast<std::uint32_t>(s.injected++);
    s.recs[token] = TokenRec{process, s.steps, 0, 0, false};
    deliver(s, token, routing_.entry[process % net_.width_in()]);
  }

  void deliver(State& s, std::uint32_t token, std::int32_t dest) {
    if (dest < 0) {
      exit_token(s, token, static_cast<std::uint32_t>(~dest));
    } else {
      s.queues[static_cast<std::size_t>(dest)].push_back(token);
    }
  }

  void exit_token(State& s, std::uint32_t token, std::uint32_t out) {
    s.recs[token].exit = s.steps;
    s.recs[token].value = s.cells[out];
    s.recs[token].done = true;
    s.cells[out] += static_cast<seq::Value>(net_.width_out());
    ++s.exited;
    inject(s, s.recs[token].process);  // eager reinjection
  }

  void fire(State& s, std::uint32_t b) {
    s.stalls += s.queues[b].size() - 1;
    ++s.steps;
    const std::uint32_t token = s.queues[b].front();
    s.queues[b].erase(s.queues[b].begin());
    const std::uint32_t port = s.bstate[b];
    s.bstate[b] = (s.bstate[b] + 1) % routing_.fanout[b];
    deliver(s, token, routing_.next(b, port));
  }

  void finalize(const State& s) {
    ++result_.executions;
    CNET_REQUIRE(result_.executions <= cfg_.max_executions,
                 "execution-space cap exceeded — instance too large");
    // Exactness: values must be exactly 0..m-1.
    std::vector<seq::Value> values;
    values.reserve(s.recs.size());
    for (const auto& rec : s.recs) values.push_back(rec.value);
    std::sort(values.begin(), values.end());
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] != static_cast<seq::Value>(i)) {
        result_.all_exact = false;
        break;
      }
    }
    result_.max_total_stalls =
        std::max(result_.max_total_stalls, s.stalls);
    result_.min_total_stalls =
        std::min(result_.min_total_stalls, s.stalls);
    if (!result_.inversion_possible) {
      for (const auto& i : s.recs) {
        for (const auto& j : s.recs) {
          if (i.exit < j.enter && i.value > j.value) {
            result_.inversion_possible = true;
          }
        }
      }
    }
  }

  void dfs(const State& s) {
    if (s.exited == cfg_.total_tokens) {
      finalize(s);
      return;
    }
    for (std::uint32_t b = 0; b < s.queues.size(); ++b) {
      if (s.queues[b].empty()) continue;
      State next = s;  // small states; copy is simpler than undo
      fire(next, b);
      dfs(next);
    }
  }

  const topo::Topology& net_;
  const ModelCheckConfig cfg_;
  const topo::Routing routing_;
  ModelCheckResult result_;
};

}  // namespace

ModelCheckResult explore_all_executions(const topo::Topology& net,
                                        const ModelCheckConfig& cfg) {
  Explorer explorer(net, cfg);
  return explorer.run();
}

}  // namespace cnet::sim
