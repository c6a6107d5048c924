#include "cnet/sim/token_sim.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "cnet/topology/routing.hpp"
#include "cnet/util/ensure.hpp"

namespace cnet::sim {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

struct Token {
  std::uint32_t process = 0;
  std::uint32_t record = 0;  // index into token_records when enabled
};

class Engine final : public EngineView {
 public:
  Engine(const topo::Topology& net, const SimConfig& cfg)
      : net_(net), cfg_(cfg), routing_(net) {
    CNET_REQUIRE(cfg.concurrency >= 1, "need at least one process");
    CNET_REQUIRE(cfg.total_tokens >= 1, "need at least one token");
    const std::size_t nb = routing_.num_balancers();
    state_.assign(nb, 0);
    layer_.resize(nb);
    for (std::uint32_t b = 0; b < nb; ++b) {
      layer_[b] = static_cast<std::uint32_t>(
          net_.balancer_depth(topo::BalancerId{b}));
    }
    queues_.assign(nb, {});
    pos_in_nonempty_.assign(nb, kNone);
  }

  // --- EngineView ---
  std::size_t num_balancers() const override {
    return routing_.num_balancers();
  }
  std::uint32_t queue_size(std::uint32_t b) const override {
    return static_cast<std::uint32_t>(queues_[b].size());
  }
  std::uint32_t layer_of(std::uint32_t b) const override { return layer_[b]; }
  const std::vector<std::uint32_t>& nonempty() const override {
    return nonempty_;
  }

  SimResult run(Scheduler& sched) {
    sched.attach(*this);
    SimResult res;
    res.tokens = cfg_.total_tokens;
    if (cfg_.collect_per_balancer) {
      res.stalls_per_balancer.assign(routing_.num_balancers(), 0);
      res.stalls_per_layer.assign(net_.depth(), 0);
    }
    if (cfg_.collect_counter_values) {
      res.counter_values.reserve(cfg_.total_tokens);
    }
    if (cfg_.collect_token_records) {
      res.token_records.reserve(cfg_.total_tokens);
    }
    res.input_counts.assign(net_.width_in(), 0);
    res.output_counts.assign(net_.width_out(), 0);

    // Counter cells v_i = i, stepped by t on each exit (paper §1.1).
    std::vector<seq::Value> cell(net_.width_out());
    for (std::size_t i = 0; i < cell.size(); ++i) {
      cell[i] = static_cast<seq::Value>(i);
    }
    const auto t_out = static_cast<seq::Value>(net_.width_out());

    // Inject the first token of every process (each process has at most one
    // token in flight; injection is eager). A wire straight to an output
    // (e.g. width-1 networks) exits at once, and the process moves on.
    std::size_t injected = 0;
    std::size_t exited = 0;
    auto inject = [&](std::uint32_t process) {
      while (injected < cfg_.total_tokens) {
        ++injected;
        const std::size_t wire_pos = process % net_.width_in();
        ++res.input_counts[wire_pos];
        Token tok{process, 0};
        if (cfg_.collect_token_records) {
          tok.record = static_cast<std::uint32_t>(res.token_records.size());
          res.token_records.push_back(
              TokenRecord{process, step_count_, 0, 0});
        }
        const std::int32_t dest = routing_.entry[wire_pos];
        if (dest >= 0) {
          enqueue(static_cast<std::uint32_t>(dest), tok, sched, res);
          return;
        }
        exit_token(tok, static_cast<std::uint32_t>(~dest), res, cell, t_out,
                   exited);
      }
    };
    const std::size_t first_wave =
        std::min(cfg_.concurrency, cfg_.total_tokens);
    for (std::uint32_t p = 0; p < first_wave; ++p) inject(p);

    // Main loop: fire scheduler-chosen balancers until all tokens exited.
    while (exited < cfg_.total_tokens) {
      CNET_ENSURE(!nonempty_.empty(),
                  "no waiting tokens but simulation not finished");
      const std::uint32_t b = sched.pick();
      CNET_ENSURE(b < routing_.num_balancers() && !queues_[b].empty(),
                  "scheduler picked an empty balancer");
      ++step_count_;
      // One atomic transition: FIFO head passes, every other waiter stalls.
      const auto waiters =
          static_cast<std::uint64_t>(queues_[b].size()) - 1;
      res.total_stalls += waiters;
      if (cfg_.collect_per_balancer) {
        res.stalls_per_balancer[b] += waiters;
        res.stalls_per_layer[layer_[b] - 1] += waiters;
      }
      const Token tok = queues_[b].front();
      queues_[b].pop_front();
      if (queues_[b].empty()) remove_nonempty(b);
      const std::uint32_t port = state_[b];
      state_[b] = (state_[b] + 1) % routing_.fanout[b];
      const std::int32_t next = routing_.next(b, port);
      if (next < 0) {
        exit_token(tok, static_cast<std::uint32_t>(~next), res, cell, t_out,
                   exited);
        inject(tok.process);  // process immediately shepherds its next token
      } else {
        enqueue(static_cast<std::uint32_t>(next), tok, sched, res);
      }
    }
    res.stalls_per_token = static_cast<double>(res.total_stalls) /
                           static_cast<double>(res.tokens);
    return res;
  }

 private:
  void exit_token(Token tok, std::uint32_t out_pos, SimResult& res,
                  std::vector<seq::Value>& cell, seq::Value t_out,
                  std::size_t& exited) {
    if (cfg_.collect_counter_values) {
      res.counter_values.push_back(cell[out_pos]);
    }
    if (cfg_.collect_token_records) {
      res.token_records[tok.record].exit_step = step_count_;
      res.token_records[tok.record].value = cell[out_pos];
    }
    cell[out_pos] += t_out;
    ++res.output_counts[out_pos];
    ++exited;
  }

  void enqueue(std::uint32_t b, Token tok, Scheduler& sched, SimResult& res) {
    queues_[b].push_back(tok);
    if (queues_[b].size() == 1) add_nonempty(b);
    res.max_queue = std::max(res.max_queue, queues_[b].size());
    sched.on_enqueue(b);
  }

  void add_nonempty(std::uint32_t b) {
    pos_in_nonempty_[b] = static_cast<std::uint32_t>(nonempty_.size());
    nonempty_.push_back(b);
  }

  void remove_nonempty(std::uint32_t b) {
    const std::uint32_t pos = pos_in_nonempty_[b];
    const std::uint32_t last = nonempty_.back();
    nonempty_[pos] = last;
    pos_in_nonempty_[last] = pos;
    nonempty_.pop_back();
    pos_in_nonempty_[b] = kNone;
  }

  const topo::Topology& net_;
  const SimConfig cfg_;
  const topo::Routing routing_;
  std::vector<std::uint32_t> state_;  // next output port per balancer
  std::vector<std::uint32_t> layer_;  // depth per balancer
  std::vector<std::deque<Token>> queues_;
  std::vector<std::uint32_t> nonempty_;
  std::vector<std::uint32_t> pos_in_nonempty_;
  std::uint64_t step_count_ = 0;  // global balancer transitions so far
};

}  // namespace

SimResult simulate(const topo::Topology& net, const SimConfig& cfg,
                   Scheduler& scheduler) {
  Engine engine(net, cfg);
  return engine.run(scheduler);
}

}  // namespace cnet::sim
