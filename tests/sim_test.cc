#include <gtest/gtest.h>

#include <type_traits>

#include "collective/engine.h"
#include "cost/cost_model.h"
#include "moe/traffic.h"
#include "sim/phase_runner.h"
#include "sim/training_sim.h"

namespace mixnet::sim {
namespace {

TrainingConfig base(topo::FabricKind kind, double gbps_ = 400.0) {
  TrainingConfig c;
  c.model = moe::mixtral_8x7b();
  c.fabric_kind = kind;
  c.nic_gbps = gbps_;
  c.par = moe::default_parallelism(c.model);
  c.par.n_microbatches = 4;
  c.par_overridden = true;
  return c;
}

// ----------------------------------------------------------- phase runner ----

TEST(PhaseRunner, SendDurationScalesWithBytes) {
  auto fabric = topo::Fabric::build(topo::FabricConfig::fat_tree(4));
  PhaseRunner pr(fabric);
  const TimeNs t1 = pr.send(0, 1, mib(10));
  const TimeNs t2 = pr.send(0, 1, mib(40));
  EXPECT_GT(t2, 3 * t1 / 2);
  EXPECT_LT(static_cast<double>(t2), 4.6 * static_cast<double>(t1));
}

TEST(PhaseRunner, DpAllReduceConcurrentRings) {
  auto fabric = topo::Fabric::build(topo::FabricConfig::fat_tree(8));
  PhaseRunner pr(fabric);
  // 2 replicas of 4 servers each.
  const TimeNs t = pr.dp_all_reduce(4, 2, mib(64));
  EXPECT_GT(t, 0);
  EXPECT_EQ(pr.dp_all_reduce(4, 1, mib(64)), 0);  // dp=1 is free
  // A single ring over one replica's servers grows with its payload.
  const std::vector<int> ring = {0, 1, 2, 3};
  const TimeNs small = pr.all_reduce(ring, mib(16));
  EXPECT_GT(small, 0);
  EXPECT_GT(pr.all_reduce(ring, mib(256)), small);
}

// ------------------------------------------------- copilot plan rescale ----

// A phase cannot change the fabric it runs on: the phase runner and the
// collective engine hold it by const reference (DESIGN.md §6).
static_assert(std::is_constructible_v<PhaseRunner, const topo::Fabric&>);
static_assert(std::is_constructible_v<collective::Engine, eventsim::Simulator&,
                                      const topo::Fabric&, net::Transport&,
                                      net::EcmpRouter&>);

TEST(PhaseRunner, PhasesLeaveTheFabricEpochUnchanged) {
  for (const net::NetBackend backend :
       {net::NetBackend::kAnalytic, net::NetBackend::kFlow,
        net::NetBackend::kPacket}) {
    auto fabric = topo::Fabric::build(topo::FabricConfig::mixnet(8));
    Matrix counts(8, 8, 0.0);
    counts(0, 1) = counts(1, 0) = 2;
    counts(2, 5) = counts(5, 2) = 1;
    ASSERT_GT(fabric.apply_circuits(0, counts), 0);
    const std::uint64_t epoch = fabric.epoch();

    PhaseRunner pr(fabric, {}, 16, backend);
    const std::vector<int> group = {0, 1, 2, 3, 4, 5, 6, 7};
    Matrix demand(8, 8, mib(1));
    for (std::size_t i = 0; i < 8; ++i) demand(i, i) = 0.0;
    EXPECT_GT(pr.ep_all_to_all(group, demand), 0) << to_string(backend);
    EXPECT_GT(pr.send(0, 1, mib(1)), 0) << to_string(backend);
    EXPECT_GT(pr.dp_all_reduce(4, 2, mib(1)), 0) << to_string(backend);
    EXPECT_EQ(fabric.epoch(), epoch) << to_string(backend);
  }
}

TEST(RescalePlanColumns, ColumnsScaledIndependently) {
  // 4 servers, one EP rank per server, 2 experts per rank.
  Matrix seen(4, 4, 0.0);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) seen(r, c) = 1.0 + static_cast<double>(r + 4 * c);
  const std::vector<int> rank_to_server = {0, 1, 2, 3};
  const std::vector<double> predicted = {0.30, 0.10, 0.05, 0.05,
                                         0.20, 0.10, 0.15, 0.05};
  const double total = seen.sum();
  const Matrix out = rescale_plan_columns(seen, predicted, rank_to_server, 2);
  // Column c's sum must equal pred_col(c) * pre-rescale total, exactly the
  // independent-column semantics (regression: the buggy version normalized
  // against a running sum, making later columns depend on earlier ones).
  const double pred_col[4] = {0.40, 0.10, 0.30, 0.20};
  for (std::size_t c = 0; c < 4; ++c)
    EXPECT_NEAR(out.col_sum(c), pred_col[c] * total, 1e-9 * total) << "col " << c;
  // Total preserved (predicted sums to 1).
  EXPECT_NEAR(out.sum(), total, 1e-9 * total);
}

TEST(RescalePlanColumns, ColumnOrderInvariant) {
  // Processing order must not matter: permuting the columns (and the
  // rank->server map accordingly) then rescaling gives the permuted result.
  Matrix seen(3, 3, 0.0);
  seen(0, 0) = 5.0; seen(1, 0) = 1.0; seen(2, 0) = 2.0;
  seen(0, 1) = 0.5; seen(1, 1) = 9.0; seen(2, 1) = 3.0;
  seen(0, 2) = 4.0; seen(1, 2) = 2.0; seen(2, 2) = 7.0;
  const std::vector<double> predicted = {0.6, 0.3, 0.1};
  const std::vector<int> ident = {0, 1, 2};
  const Matrix base = rescale_plan_columns(seen, predicted, ident, 1);

  const std::vector<int> perm = {2, 0, 1};  // column c of `seen` -> perm[c]
  Matrix shuffled(3, 3, 0.0);
  std::vector<int> perm_map(3);
  for (std::size_t c = 0; c < 3; ++c) {
    const auto pc = static_cast<std::size_t>(perm[c]);
    for (std::size_t r = 0; r < 3; ++r) shuffled(r, pc) = seen(r, c);
    perm_map[c] = perm[c];  // rank c's server moved with its column
  }
  const Matrix out = rescale_plan_columns(shuffled, predicted, perm_map, 1);
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t r = 0; r < 3; ++r)
      EXPECT_NEAR(out(r, static_cast<std::size_t>(perm[c])), base(r, c), 1e-12)
          << "r=" << r << " c=" << c;
}

// --------------------------------------------------------- training sim ----

TEST(TrainingSim, IterationCompletesOnAllFabrics) {
  for (auto kind : {topo::FabricKind::kFatTree, topo::FabricKind::kOverSubFatTree,
                    topo::FabricKind::kRailOptimized, topo::FabricKind::kTopoOpt,
                    topo::FabricKind::kMixNet}) {
    TrainingSimulator sim(base(kind));
    const auto r = sim.run_iteration();
    EXPECT_GT(r.total, 0) << topo::to_string(kind);
    EXPECT_GT(r.tokens, 0) << topo::to_string(kind);
    EXPECT_GT(r.tokens_per_sec(), 0) << topo::to_string(kind);
  }
}

TEST(TrainingSim, FidelityLadderOrdered) {
  // DESIGN.md §12: same truncated fig10-class workload on every backend
  // rung. Fat-tree (no OCS reconfiguration) so phase times compose purely.
  auto cfg = [](net::NetBackend b) {
    TrainingConfig c;
    c.model = moe::mixtral_8x7b();
    c.model.n_blocks = 2;
    c.fabric_kind = topo::FabricKind::kFatTree;
    c.nic_gbps = 100.0;
    c.nics_per_server = 4;
    c.par = moe::default_parallelism(c.model);
    c.par.ep = 8;
    c.par.tp = 4;
    c.par.pp = 1;
    c.par.dp = 1;
    c.par.micro_batch = 2;
    c.par.n_microbatches = 2;
    c.par_overridden = true;
    c.backend = b;
    return c;
  };
  const auto ra =
      TrainingSimulator(cfg(net::NetBackend::kAnalytic)).run_iteration();
  const auto rf = TrainingSimulator(cfg(net::NetBackend::kFlow)).run_iteration();
  const auto rp =
      TrainingSimulator(cfg(net::NetBackend::kPacket)).run_iteration();
  EXPECT_GT(ra.total, 0);
  EXPECT_GT(rf.total, 0);
  EXPECT_GT(rp.total, 0);
  // analytic is contention-free: a true lower bound on the fluid model.
  EXPECT_LE(ra.total, rf.total);
  EXPECT_LE(ra.ep_comm, rf.ep_comm);
  // packet vs flow agree on the iteration (the fidelity-ladder scenario
  // enforces the tight published tolerance; this is the coarse guard).
  EXPECT_NEAR(static_cast<double>(rp.total) / static_cast<double>(rf.total),
              1.0, 0.25);
}

TEST(TrainingSim, MixNetComparableToFatTree) {
  // Fig. 12: MixNet within a modest factor of the non-blocking fat-tree.
  TrainingSimulator ft(base(topo::FabricKind::kFatTree));
  TrainingSimulator mx(base(topo::FabricKind::kMixNet));
  const auto rf = ft.run_iteration();
  const auto rm = mx.run_iteration();
  EXPECT_LT(static_cast<double>(rm.total), 1.35 * static_cast<double>(rf.total));
}

TEST(TrainingSim, OverSubSlowerThanFatTreeAtLowBandwidth) {
  TrainingSimulator ft(base(topo::FabricKind::kFatTree, 100.0));
  TrainingSimulator os(base(topo::FabricKind::kOverSubFatTree, 100.0));
  EXPECT_GE(os.run_iteration().total, ft.run_iteration().total);
}

TEST(TrainingSim, ReconfigHiddenAtDefaultDelay) {
  // 25 ms fits inside the attention+gate window for Mixtral 8x7B (Fig. 3).
  auto cfg = base(topo::FabricKind::kMixNet);
  TrainingSimulator sim(cfg);
  const auto r = sim.run_iteration();
  EXPECT_EQ(r.reconfig_blocked, 0);
  EXPECT_GT(r.reconfigurations, 0);
}

TEST(TrainingSim, HugeReconfigDelayDegrades) {
  // Fig. 28: performance degrades once the delay exceeds the compute window.
  auto fast_cfg = base(topo::FabricKind::kMixNet);
  auto slow_cfg = base(topo::FabricKind::kMixNet);
  slow_cfg.reconfig_delay = sec_to_ns(1.0);
  TrainingSimulator fast(fast_cfg), slow(slow_cfg);
  const auto rf = fast.run_iteration();
  const auto rs = slow.run_iteration();
  EXPECT_GT(rs.reconfig_blocked, 0);
  EXPECT_GT(static_cast<double>(rs.total), 1.2 * static_cast<double>(rf.total));
}

TEST(TrainingSim, TinyReconfigDelayMarginalGain) {
  auto us_cfg = base(topo::FabricKind::kMixNet);
  us_cfg.reconfig_delay = us_to_ns(10);
  TrainingSimulator fast(us_cfg);
  TrainingSimulator def(base(topo::FabricKind::kMixNet));
  const auto rf = fast.run_iteration();
  const auto rd = def.run_iteration();
  // Both hidden -> nearly identical totals (Fig. 28 flat region).
  EXPECT_NEAR(static_cast<double>(rf.total) / static_cast<double>(rd.total), 1.0, 0.02);
}

TEST(TrainingSim, GreedyBeatsUniformCircuitsOnSkewedDemand) {
  // Algorithm 1 ablation: demand-aware circuits beat oblivious spreading
  // when the all-to-all matrix is skewed (the regime §3 measures). On
  // near-uniform demand the two tie -- bench_ablation quantifies both.
  const topo::FabricConfig fc =
      topo::FabricConfig::mixnet(8).with_region_servers(8).with_nic_gbps(100.0);

  Matrix demand(8, 8, mib(2));  // cold background
  for (std::size_t i = 0; i < 8; ++i) demand(i, i) = 0.0;
  demand(0, 1) = demand(1, 0) = mib(400);  // hot pairs
  demand(2, 5) = demand(5, 2) = mib(300);

  auto measure = [&](control::CircuitPolicy policy) {
    auto fabric = topo::Fabric::build(fc);
    control::ControllerConfig cc;
    cc.policy = policy;
    control::TopologyController ctrl(fabric, 0, cc);
    ctrl.prepare(demand, ms_to_ns(100));
    PhaseRunner pr(fabric);
    return pr.ep_all_to_all({0, 1, 2, 3, 4, 5, 6, 7}, demand);
  };
  const TimeNs greedy = measure(control::CircuitPolicy::kGreedy);
  const TimeNs uniform = measure(control::CircuitPolicy::kUniform);
  EXPECT_LT(static_cast<double>(greedy), 0.8 * static_cast<double>(uniform));
}

TEST(TrainingSim, HigherBandwidthNeverSlower) {
  auto c100 = base(topo::FabricKind::kMixNet, 100.0);
  auto c400 = base(topo::FabricKind::kMixNet, 400.0);
  TrainingSimulator s100(c100), s400(c400);
  EXPECT_GT(s100.run_iteration().total, s400.run_iteration().total);
}

TEST(TrainingSim, OpticalDegreeImproves) {
  // Fig. 27: at equal cost, trading electrical ports for OCS ports buys more
  // deliverable bandwidth, so iteration time falls with the optical degree.
  TimeNs prev = kTimeInf;
  TrainingConfig tmpl;
  tmpl.model = moe::mixtral_8x22b();
  tmpl.par = moe::default_parallelism(tmpl.model);
  tmpl.par.n_microbatches = 2;
  tmpl.par_overridden = true;
  tmpl.fabric_kind = topo::FabricKind::kMixNet;
  for (int alpha : {1, 4, 6}) {
    auto cfg = tmpl;
    cfg.eps_nics = cfg.nics_per_server - alpha;
    cfg.nic_gbps = cost::cost_equivalent_eps_gbps(alpha, cfg.nics_per_server, 100);
    cfg.ocs_nic_gbps = 100.0;
    TrainingSimulator sim(cfg);
    const TimeNs t = sim.run_iteration().total;
    EXPECT_LE(t, prev + ms_to_ns(50)) << "alpha " << alpha;
    prev = t;
  }
}

TEST(TrainingSim, TimelineMatchesFig3Shape) {
  TrainingSimulator sim(base(topo::FabricKind::kMixNet));
  sim.run_iteration();
  const auto& t = sim.layer_timeline();
  EXPECT_GT(t.expert, t.attention);       // experts dominate compute
  EXPECT_GT(t.attention, t.gate);         // gate is cheap
  EXPECT_GT(t.a2a1, 0);
  EXPECT_GT(ns_to_ms(t.expert), 100.0);   // §3 anchor
}

TEST(TrainingSim, FailuresAddModestOverhead) {
  // Fig. 14 shapes: one NIC < two NIC; one GPU < one server; all bounded.
  const auto baseline = TrainingSimulator(base(topo::FabricKind::kMixNet))
                            .run_iteration().total;
  auto with_failure = [&](control::FailureScenario::Kind kind) {
    auto cfg = base(topo::FabricKind::kMixNet);
    cfg.failure = {kind, 0};
    TrainingSimulator sim(cfg);
    return sim.run_iteration().total;
  };
  const auto one_nic = with_failure(control::FailureScenario::Kind::kOneNic);
  const auto two_nic = with_failure(control::FailureScenario::Kind::kTwoNic);
  const auto one_gpu = with_failure(control::FailureScenario::Kind::kOneGpu);
  const auto server = with_failure(control::FailureScenario::Kind::kServerDown);
  // Every failure costs something; a full-server replacement costs the most
  // (Fig. 14). One- vs two-NIC ordering is not asserted: in our model the
  // dual-NIC optical detour reaches the peer's *full* EPS and can slightly
  // beat a degraded single NIC (documented in EXPERIMENTS.md).
  auto ge = [](TimeNs a, TimeNs b) {
    return static_cast<double>(a) >= 0.998 * static_cast<double>(b);
  };
  EXPECT_TRUE(ge(one_nic, baseline));
  EXPECT_TRUE(ge(two_nic, baseline));
  EXPECT_TRUE(ge(one_gpu, baseline));
  EXPECT_TRUE(ge(server, one_gpu));
  EXPECT_TRUE(ge(server, two_nic));
  // All within ~45% (paper: 0.3%-12.8%; our EPS-fallback model is more
  // pessimistic, see EXPERIMENTS.md fig14, and the exact margin moves a few
  // points whenever the gate draw sequence is re-baselined).
  for (TimeNs t : {one_nic, two_nic, one_gpu, server})
    EXPECT_LT(static_cast<double>(t), 1.45 * static_cast<double>(baseline));
}

TEST(TrainingSim, DpReplicasAddAllReduce) {
  auto cfg = base(topo::FabricKind::kFatTree);
  cfg.par.dp = 2;
  TrainingSimulator sim(cfg);
  const auto r = sim.run_iteration();
  EXPECT_GT(r.dp_comm, 0);
  EXPECT_DOUBLE_EQ(r.tokens,
                   cfg.par.tokens_per_microbatch() * cfg.par.n_microbatches * 2);
}

TEST(TrainingSim, CopilotModeCloseToOracle) {
  // §B.1: predictive reconfiguration should cost little vs oracle demand.
  auto oracle_cfg = base(topo::FabricKind::kMixNet);
  auto copilot_cfg = base(topo::FabricKind::kMixNet);
  copilot_cfg.use_copilot = true;
  TrainingSimulator oracle(oracle_cfg), copilot(copilot_cfg);
  TimeNs to = 0, tc = 0;
  for (int i = 0; i < 3; ++i) {
    to += oracle.run_iteration().total;
    tc += copilot.run_iteration().total;
  }
  EXPECT_LT(static_cast<double>(tc), 1.15 * static_cast<double>(to));
  EXPECT_GE(static_cast<double>(tc), 0.95 * static_cast<double>(to));
}

TEST(TrainingSim, MultiIterationVariability) {
  TrainingSimulator sim(base(topo::FabricKind::kMixNet));
  const auto rs = sim.run(3);
  ASSERT_EQ(rs.size(), 3u);
  for (const auto& r : rs) EXPECT_GT(r.total, 0);
}

TEST(TrainingSim, Nvl72OpticalIoFaster) {
  // §8 / Fig. 16 shape: splitting GPU I/O between NVLink and a regional OCS
  // beats pushing all cross-domain EP traffic through scale-out Ethernet.
  TrainingConfig nvl;
  nvl.model = moe::deepseek_v3();
  nvl.par = moe::default_parallelism(nvl.model);
  nvl.par.n_microbatches = 2;
  nvl.par.micro_batch = 60;  // scaled down for test runtime
  nvl.par_overridden = true;
  nvl.fabric_kind = topo::FabricKind::kNvl72;
  nvl.gpus_per_server = 64;
  nvl.nics_per_server = 64;
  nvl.nic_gbps = 800.0;
  nvl.nvlink_gbps_per_gpu = 7200.0;

  TrainingConfig mix = nvl;
  mix.fabric_kind = topo::FabricKind::kMixNetOpticalIO;
  // Equal total GPU I/O (§8): 800G Ethernet stays; the remaining 7.2 Tbps
  // per GPU is split between NVLink (3.6T) and regional OCS (3.6T over 32
  // ports per domain => 7.2T per port).
  mix.nics_per_server = 96;
  mix.eps_nics = 64;
  mix.nvlink_gbps_per_gpu = 3600.0;
  mix.ocs_nic_gbps = 3600.0 * 64.0 / 32.0;

  TrainingSimulator s_nvl(nvl), s_mix(mix);
  const auto r_nvl = s_nvl.run_iteration();
  const auto r_mix = s_mix.run_iteration();
  EXPECT_LT(r_mix.total, r_nvl.total);
}

}  // namespace
}  // namespace mixnet::sim
