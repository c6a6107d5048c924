// Discrete-event timed simulator: exact small cases, conservation laws,
// and the qualitative throughput behaviour the experimental study reports.
#include "cnet/sim/timed_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cnet/baselines/bitonic.hpp"
#include "cnet/baselines/difftree.hpp"
#include "cnet/baselines/periodic.hpp"
#include "cnet/core/counting.hpp"
#include "cnet/util/bitops.hpp"

namespace cnet::sim {
namespace {

topo::Topology single_balancer(std::size_t inputs, std::size_t outputs) {
  topo::Builder b;
  const auto in = b.add_network_inputs(inputs);
  b.set_outputs(b.add_balancer(in, outputs));
  return std::move(b).build();
}

TEST(TimedSim, RejectsBadConfig) {
  const auto net = single_balancer(2, 2);
  TimedConfig cfg;
  cfg.total_tokens = 0;
  EXPECT_THROW((void)simulate_timed(net, cfg), std::invalid_argument);
  cfg.total_tokens = 1;
  cfg.service_time = 0.0;
  EXPECT_THROW((void)simulate_timed(net, cfg), std::invalid_argument);
}

TEST(TimedSim, SingleTokenSingleBalancerExactTimes) {
  const auto net = single_balancer(2, 2);
  TimedConfig cfg;
  cfg.concurrency = 1;
  cfg.total_tokens = 1;
  cfg.service_time = 2.5;
  const auto res = simulate_timed(net, cfg);
  EXPECT_DOUBLE_EQ(res.makespan, 2.5);
  EXPECT_DOUBLE_EQ(res.mean_latency, 2.5);
  EXPECT_DOUBLE_EQ(res.max_latency, 2.5);
  EXPECT_DOUBLE_EQ(res.mean_queue_wait, 0.0);
}

TEST(TimedSim, SequentialTokensSerializeOnOneBalancer) {
  // One process, m tokens, service 1: makespan = m (think time 0).
  const auto net = single_balancer(2, 2);
  TimedConfig cfg;
  cfg.concurrency = 1;
  cfg.total_tokens = 10;
  const auto res = simulate_timed(net, cfg);
  EXPECT_DOUBLE_EQ(res.makespan, 10.0);
  EXPECT_DOUBLE_EQ(res.throughput, 1.0);
}

TEST(TimedSim, TwoProcessesQueueAtOneBalancer) {
  // Both tokens arrive at t=0; the second waits one service.
  const auto net = single_balancer(2, 2);
  TimedConfig cfg;
  cfg.concurrency = 2;
  cfg.total_tokens = 2;
  const auto res = simulate_timed(net, cfg);
  EXPECT_DOUBLE_EQ(res.makespan, 2.0);
  EXPECT_DOUBLE_EQ(res.max_latency, 2.0);
  EXPECT_DOUBLE_EQ(res.mean_queue_wait, 0.5);  // (0 + 1) / 2
}

TEST(TimedSim, PipelineOverlapsAcrossLayers) {
  // Two balancers in series (width 2). Two tokens from one wire pipeline:
  // makespan 3, not 4.
  topo::Builder b;
  const auto in = b.add_network_inputs(2);
  const auto [a0, a1] = b.add_balancer2(in[0], in[1]);
  const auto [c0, c1] = b.add_balancer2(a0, a1);
  const topo::WireId outs[2] = {c0, c1};
  b.set_outputs(outs);
  const auto net = std::move(b).build();
  TimedConfig cfg;
  cfg.concurrency = 2;
  cfg.total_tokens = 2;
  const auto res = simulate_timed(net, cfg);
  EXPECT_DOUBLE_EQ(res.makespan, 3.0);
}

TEST(TimedSim, WireDelayAddsUp) {
  const auto net = core::make_counting(4, 4);  // depth 3
  TimedConfig cfg;
  cfg.concurrency = 1;
  cfg.total_tokens = 1;
  cfg.wire_delay = 0.5;
  // Path: 3 services + 3 post-balancer wire hops (the final hop reaches the
  // output).
  const auto res = simulate_timed(net, cfg);
  EXPECT_DOUBLE_EQ(res.makespan, 3.0 + 3 * 0.5);
}

TEST(TimedSim, LatencyAtLeastDepthTimesService) {
  for (const std::size_t w : {4u, 8u, 16u}) {
    const auto net = baselines::make_bitonic(w);
    TimedConfig cfg;
    cfg.concurrency = 8;
    cfg.total_tokens = 200;
    const auto res = simulate_timed(net, cfg);
    EXPECT_GE(res.mean_latency,
              static_cast<double>(net.depth()) * cfg.service_time);
  }
}

TEST(TimedSim, ExponentialServiceMatchesMeanInExpectation) {
  // One process, no queueing: mean latency over many tokens must approach
  // depth * mean service time (LLN; generous tolerance).
  const auto net = core::make_counting(4, 4);  // depth 3
  TimedConfig cfg;
  cfg.concurrency = 1;
  cfg.total_tokens = 20000;
  cfg.exponential_service = true;
  cfg.seed = 11;
  const auto res = simulate_timed(net, cfg);
  EXPECT_NEAR(res.mean_latency, 3.0, 0.15);
  EXPECT_DOUBLE_EQ(res.mean_queue_wait, 0.0);
}

TEST(TimedSim, DeterministicForFixedSeed) {
  const auto net = core::make_counting(8, 16);
  TimedConfig cfg;
  cfg.concurrency = 12;
  cfg.total_tokens = 500;
  cfg.exponential_service = true;
  cfg.seed = 77;
  const auto r1 = simulate_timed(net, cfg);
  const auto r2 = simulate_timed(net, cfg);
  EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
  EXPECT_DOUBLE_EQ(r1.mean_latency, r2.mean_latency);
}

TEST(TimedSim, ThroughputGrowsWithConcurrencyThenSaturates) {
  const auto net = core::make_counting(8, 8);
  auto tp = [&](std::size_t n) {
    TimedConfig cfg;
    cfg.concurrency = n;
    cfg.total_tokens = 2000;
    return simulate_timed(net, cfg).throughput;
  };
  const double t1 = tp(1), t4 = tp(4), t32 = tp(32), t128 = tp(128);
  EXPECT_GT(t4, t1 * 1.5);  // scaling regime
  EXPECT_GT(t32, t4);
  EXPECT_LE(t128, t32 * 1.25);  // saturated regime: no big further gains
}

// The experimental-study shape: under heavy concurrency the wide-output
// C(w, w·lgw) sustains at least the throughput of the bitonic network of
// equal width and depth (queues in N_c are spread over t servers).
TEST(TimedSim, WideOutputBeatsBitonicUnderLoad) {
  const std::size_t w = 16;
  const std::size_t n = 256;
  TimedConfig cfg;
  cfg.concurrency = n;
  cfg.total_tokens = 4000;
  const double bitonic =
      simulate_timed(baselines::make_bitonic(w), cfg).throughput;
  const double wide =
      simulate_timed(core::make_counting(w, w * util::ilog2(w)), cfg)
          .throughput;
  EXPECT_GE(wide, bitonic * 0.95)
      << "wide=" << wide << " bitonic=" << bitonic;
}


// bench_tab_throughput_sim's exact table, plus a fixed-service, zero-wire
// set where many events land on the same instant: every TimedResult field
// pinned, so a change to event order, tie-breaking or the service draws
// shows up as a value diff. mean_queue_wait gets a 1e-12 relative
// tolerance because its sum may be accumulated in another order (per
// dequeue or per token) without changing the model.
void expect_timed(const TimedResult& got, const TimedResult& want) {
  EXPECT_DOUBLE_EQ(got.makespan, want.makespan);
  EXPECT_DOUBLE_EQ(got.throughput, want.throughput);
  EXPECT_DOUBLE_EQ(got.mean_latency, want.mean_latency);
  EXPECT_DOUBLE_EQ(got.max_latency, want.max_latency);
  EXPECT_NEAR(got.mean_queue_wait, want.mean_queue_wait,
              1e-12 * want.mean_queue_wait);
}

TEST(TimedSim, GoldenValuesThroughputSimConfigs) {
  std::vector<std::pair<std::string, topo::Topology>> nets;
  nets.emplace_back("central", single_balancer(1, 1));
  nets.emplace_back("difftree(16)", baselines::make_diffracting_tree(16));
  nets.emplace_back("bitonic(16)", baselines::make_bitonic(16));
  nets.emplace_back("periodic(16)", baselines::make_periodic(16));
  nets.emplace_back("C(16,16)", core::make_counting(16, 16));
  nets.emplace_back("C(16,64)", core::make_counting(16, 64));
  const std::size_t ns[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  // {makespan, throughput, mean_latency, max_latency, mean_queue_wait}
  // clang-format off
  const TimedResult golden[] = {
      {4920.0805183159773, 0.81299482500524234, 1.2300201295789943, 7.8683441846230835, 0},  // central n1
      {4183.1607597471293, 0.95621474519707406, 2.0915009873240988, 12.180087172356707, 0.86148085774507777},  // central n2
      {4120.3085912738024, 0.97080107263601612, 4.11958877980629, 16.055418221586024, 2.8895686502272828},  // central n4
      {4120.2805183163609, 0.97080768705391196, 8.2355563775618617, 21.770949608066076, 7.0055362479828416},  // central n8
      {4120.2805183163609, 0.97080768705391196, 16.452385500661006, 37.851430076614747, 15.222365371081997},  // central n16
      {4120.2805183163609, 0.97080768705391196, 32.842522946663678, 62.278847156848911, 31.612502817084682},  // central n32
      {4120.2805183163609, 0.97080768705391196, 65.444788546366368, 97.940499796541644, 64.214768416787393},  // central n64
      {4120.2805183163609, 0.97080768705391196, 129.89024313916755, 176.99235964764642, 128.66022300958844},  // central n128
      {6347.0968833107027, 0.96800160970526017, 258.7326241681024, 304.90082822995964, 257.49960058683445},  // central n256
      {19327.307571109155, 0.20696105679920362, 4.8318268927772889, 14.594467057379916, 0},  // difftree(16) n1
      {10105.177974675171, 0.39583667007394585, 5.0520854083263744, 15.40806159361864, 0.22025851555043216},  // difftree(16) n2
      {5847.1102736755947, 0.6840986081635041, 5.8438233429038648, 17.705892204926386, 1.0119964501285075},  // difftree(16) n4
      {4259.7459365454797, 0.93902313884096911, 8.5073307152867592, 23.135570583753861, 3.6755038225112906},  // difftree(16) n8
      {4168.2187929691563, 0.95964252326367716, 16.635604186289235, 40.090123264849126, 11.80377729351372},  // difftree(16) n16
      {4173.1462100316085, 0.95850943117799436, 33.242956767916596, 57.015055550911939, 28.411129875141128},  // difftree(16) n32
      {4173.1462100316085, 0.95850943117799436, 66.206830040511193, 91.507967310236381, 61.375003147735683},  // difftree(16) n64
      {4173.1462100316085, 0.95850943117799436, 131.21097743666425, 173.92805705265005, 126.37915054388873},  // difftree(16) n128
      {6330.0253588983014, 0.97061222533069313, 258.84484646655096, 313.96493821317472, 254.01531206443624},  // difftree(16) n256
      {48080.447250815923, 0.083193901652654029, 12.020111812703981, 34.712033491010516, 0},  // bitonic(16) n1
      {24474.167331079938, 0.16343763388919746, 12.234188523205713, 26.917203469143715, 0.21407671049132346},  // bitonic(16) n2
      {12579.292979916909, 0.31798289509482602, 12.572334050188172, 27.22333760723177, 0.5522222374765291},  // bitonic(16) n4
      {6459.8330039143166, 0.61921105353284089, 12.901599167107721, 28.220655985259327, 0.88148735439899506},  // bitonic(16) n8
      {3353.3290208936919, 1.1928444763627652, 13.378430876362984, 31.311890186774235, 1.358319063653598},  // bitonic(16) n16
      {1782.9215174487586, 2.2435087360007482, 14.165019787778062, 33.658013787692767, 2.1449079750678579},  // bitonic(16) n32
      {1063.9960029229906, 3.7594126190429966, 16.837034958730257, 40.068084953368498, 4.8169231460201818},  // bitonic(16) n64
      {768.09761994469011, 5.20767138985281, 24.10392802247511, 62.994616115365467, 12.083816209764995},  // bitonic(16) n128
      {980.05130577953037, 6.2690595520538359, 39.742522204568679, 91.531176898740071, 27.70504750559132},  // bitonic(16) n256
      {77047.573288908592, 0.051915976444852172, 19.261893322227149, 43.716246092066285, 0},  // periodic(16) n1
      {38827.915479512878, 0.10301866455103818, 19.413881084178428, 36.323823301023367, 0.15198776192785324},  // periodic(16) n2
      {19735.837906193818, 0.20267697875369436, 19.72944238473686, 37.593536038640281, 0.46754906248008138},  // periodic(16) n4
      {10080.56949008972, 0.39680297863453334, 20.138094748950426, 38.361148386727109, 0.87620142669924395},  // periodic(16) n8
      {5189.5346295316294, 0.77078202296551812, 20.698790196083387, 38.252321903753455, 1.436896873834195},  // periodic(16) n16
      {2682.9885947730063, 1.4908747684551447, 21.352082931829795, 41.154503346640467, 2.0901896095792365},  // periodic(16) n32
      {1471.7432998755924, 2.7178652692613738, 23.329472632066963, 46.045254237496238, 4.0675793098158755},  // periodic(16) n64
      {944.45952441017801, 4.235226493690166, 29.587737003826675, 65.444591809508211, 10.325843681575714},  // periodic(16) n128
      {1103.0445223871436, 5.5700380857732918, 44.702583439730979, 102.67404567844424, 25.447033739736728},  // periodic(16) n256
      {48080.447250815923, 0.083193901652654029, 12.020111812703981, 34.712033491010516, 0},  // C(16,16) n1
      {24205.369858530717, 0.1652525874786531, 12.102268086698475, 30.273555413658869, 0.082156273984142186},  // C(16,16) n2
      {12352.505778493785, 0.32382093736512657, 12.346324255856899, 26.291263540978434, 0.32621244314536935},  // C(16,16) n4
      {6355.3685037622909, 0.62938915306516918, 12.689204693484422, 29.104249789222649, 0.6690928807756551},  // C(16,16) n8
      {3267.5829632837826, 1.2241464241141009, 13.048511599749499, 27.667802576641861, 1.0283997870400745},  // C(16,16) n16
      {1738.3009430577176, 2.3010975262798246, 13.846881427682725, 30.67611712661791, 1.8267696149724979},  // C(16,16) n32
      {1050.2850478203356, 3.8084899030993822, 16.628995971493644, 37.731101795796974, 4.6088841587835656},  // C(16,16) n64
      {759.91512837718392, 5.2637457140011028, 23.806773280950601, 60.294986911687673, 11.78666146824056},  // C(16,16) n128
      {977.10844274234989, 6.287940755845141, 39.635213777329092, 94.616302737799245, 27.59773907835152},  // C(16,16) n256
      {48080.447250815923, 0.083193901652654029, 12.020111812703981, 34.712033491010516, 0},  // C(16,64) n1
      {24205.369858530717, 0.1652525874786531, 12.102268086698475, 30.273555413658869, 0.082156273984142186},  // C(16,64) n2
      {12368.360649313003, 0.32340583472735157, 12.362099301941809, 26.332945877925567, 0.34198748923026145},  // C(16,64) n4
      {6353.4832613862873, 0.6295759090623978, 12.694497329391231, 28.503370279757746, 0.67438551668247426},  // C(16,64) n8
      {3258.662537718264, 1.2274974636682769, 13.002934885527944, 27.97703783829138, 0.98282307281855996},  // C(16,64) n16
      {1694.9724464218846, 2.3599203682892118, 13.490912728478456, 32.019797497005129, 1.4708009157682396},  // C(16,64) n32
      {949.32849922668652, 4.2135046016825157, 14.984573051819947, 31.141732116332918, 2.9644612391098759},  // C(16,64) n64
      {664.72572859519039, 6.0175194488913029, 20.69771446446957, 46.868875879489472, 8.6776026517596385},  // C(16,64) n128
      {882.1609352321417, 6.9647155690284555, 35.664499892239981, 78.772585983771862, 23.62702519326244},  // C(16,64) n256
  };
  // clang-format on
  ASSERT_EQ(std::size(golden), nets.size() * std::size(ns));
  const TimedResult* want = golden;
  for (const auto& [name, net] : nets) {
    for (const std::size_t n : ns) {
      SCOPED_TRACE(name + " n" + std::to_string(n));
      TimedConfig cfg;
      cfg.concurrency = n;
      cfg.total_tokens = std::max<std::size_t>(4000, 24 * n);
      cfg.service_time = 1.0;
      cfg.wire_delay = 0.2;
      cfg.exponential_service = true;
      cfg.seed = 0xC0FFEE;
      expect_timed(simulate_timed(net, cfg), *want++);
    }
  }

  // Fixed unit service, no wire delay: lockstep tokens tie constantly.
  const std::pair<std::string, topo::Topology> tie_nets[] = {
      {"C(4,8)", core::make_counting(4, 8)},
      {"bitonic(4)", baselines::make_bitonic(4)},
  };
  // clang-format off
  const TimedResult tie_golden[] = {
      {192, 0.33333333333333331, 3, 3, 0},  // C(4,8) n1
      {97, 0.65979381443298968, 3.015625, 4, 0.015625},  // C(4,8) n2
      {66, 0.96969696969696972, 3.046875, 5, 0.046875},  // C(4,8) n3
      {55, 1.1636363636363636, 3.390625, 5, 0.390625},  // C(4,8) n4
      {47, 1.3617021276595744, 3.578125, 6, 0.578125},  // C(4,8) n5
      {42, 1.5238095238095237, 3.84375, 6, 0.84375},  // C(4,8) n6
      {39, 1.641025641025641, 4.125, 7, 1.125},  // C(4,8) n7
      {35, 1.8285714285714285, 4.1875, 7, 1.1875},  // C(4,8) n8
      {192, 0.33333333333333331, 3, 3, 0},  // bitonic(4) n1
      {97, 0.65979381443298968, 3.015625, 4, 0.015625},  // bitonic(4) n2
      {66, 0.96969696969696972, 3.046875, 4, 0.046875},  // bitonic(4) n3
      {55, 1.1636363636363636, 3.375, 5, 0.375},  // bitonic(4) n4
      {49, 1.3061224489795917, 3.6875, 5, 0.6875},  // bitonic(4) n5
      {45, 1.4222222222222223, 4.046875, 6, 1.046875},  // bitonic(4) n6
      {40, 1.6000000000000001, 4.171875, 6, 1.171875},  // bitonic(4) n7
      {35, 1.8285714285714285, 4.125, 7, 1.125},  // bitonic(4) n8
  };
  // clang-format on
  want = tie_golden;
  for (const auto& [name, net] : tie_nets) {
    for (std::size_t n = 1; n <= 8; ++n) {
      SCOPED_TRACE(name + " n" + std::to_string(n));
      TimedConfig cfg;
      cfg.concurrency = n;
      cfg.total_tokens = 64;
      expect_timed(simulate_timed(net, cfg), *want++);
    }
  }
}

}  // namespace
}  // namespace cnet::sim
