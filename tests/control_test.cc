#include <gtest/gtest.h>

#include "control/controller.h"
#include "control/failures.h"
#include "control/monitor.h"
#include "topo/fabric.h"

namespace mixnet::control {
namespace {

topo::Fabric make_mixnet(int servers = 8, int region = 4) {
  return topo::Fabric::build(topo::FabricConfig::mixnet(servers)
                                 .with_nic_gbps(100.0)
                                 .with_region_servers(region));
}

Matrix hot_pair_demand(std::size_t n, std::size_t a, std::size_t b, double v) {
  Matrix d(n, n, 1.0);
  for (std::size_t i = 0; i < n; ++i) d(i, i) = 0.0;
  d(a, b) = v;
  d(b, a) = v;
  return d;
}

// -------------------------------------------------------------- monitor ----

TEST(Monitor, RecordsLastAndSmoothed) {
  TrafficMonitor mon(0.5);
  Matrix a(2, 2, 10.0), b(2, 2, 20.0);
  mon.record(0, 0, a);
  mon.record(0, 0, b);
  EXPECT_DOUBLE_EQ((*mon.smoothed(0, 0))(0, 0), 15.0);
  EXPECT_EQ(mon.smoothed(1, 0), nullptr);
}

// ----------------------------------------------------------- controller ----

TEST(Controller, AllocatesCircuitsForDemand) {
  auto fabric = make_mixnet();
  ControllerConfig cc;
  TopologyController ctrl(fabric, 0, cc);
  const auto out = ctrl.prepare(hot_pair_demand(4, 0, 1, 500.0), ms_to_ns(100));
  EXPECT_TRUE(out.reconfigured);
  EXPECT_GT(out.circuits, 0);
  EXPECT_EQ(out.blocked, 0);  // 25 ms hidden under a 100 ms window
  EXPECT_NE(fabric.circuit_link(0, 0, 1), net::kInvalidLink);
}

TEST(Controller, BlocksWhenWindowTooSmall) {
  auto fabric = make_mixnet();
  ControllerConfig cc;
  cc.reconfig_delay = ms_to_ns(25);
  TopologyController ctrl(fabric, 0, cc);
  const auto out = ctrl.prepare(hot_pair_demand(4, 0, 1, 500.0), ms_to_ns(10));
  EXPECT_EQ(out.blocked, ms_to_ns(15));
  EXPECT_EQ(ctrl.total_blocked(), ms_to_ns(15));
}

TEST(Controller, SkipsIdenticalTopology) {
  auto fabric = make_mixnet();
  TopologyController ctrl(fabric, 0, {});
  const Matrix d = hot_pair_demand(4, 0, 1, 500.0);
  const auto first = ctrl.prepare(d, 0);
  EXPECT_TRUE(first.reconfigured);
  EXPECT_GT(first.blocked, 0);
  const auto second = ctrl.prepare(d, 0);
  EXPECT_FALSE(second.reconfigured);
  EXPECT_EQ(second.blocked, 0);
  EXPECT_EQ(ctrl.reconfig_count(), 1);
}

TEST(Controller, ReconfiguresWhenDemandShifts) {
  auto fabric = make_mixnet();
  TopologyController ctrl(fabric, 0, {});
  ctrl.prepare(hot_pair_demand(4, 0, 1, 500.0), ms_to_ns(100));
  ctrl.prepare(hot_pair_demand(4, 2, 3, 500.0), ms_to_ns(100));
  EXPECT_EQ(ctrl.reconfig_count(), 2);
  // Hot circuits must have moved to (2,3).
  const Matrix counts = fabric.circuit_counts(0);
  EXPECT_GT(counts(2, 3), counts(0, 1));
}

TEST(Controller, UniformPolicyIgnoresDemand) {
  auto fabric = make_mixnet();
  ControllerConfig cc;
  cc.policy = CircuitPolicy::kUniform;
  TopologyController ctrl(fabric, 0, cc);
  ctrl.prepare(hot_pair_demand(4, 0, 1, 5000.0), ms_to_ns(100));
  const Matrix counts = fabric.circuit_counts(0);
  EXPECT_DOUBLE_EQ(counts(0, 1), counts(2, 3));  // no preference for hot pair
}

TEST(Controller, ExclusionTearsDownCircuits) {
  auto fabric = make_mixnet();
  TopologyController ctrl(fabric, 0, {});
  ctrl.prepare(hot_pair_demand(4, 0, 1, 500.0), ms_to_ns(100));
  ASSERT_NE(fabric.circuit_link(0, 0, 1), net::kInvalidLink);
  ctrl.exclude({true, false, false, false});
  EXPECT_EQ(fabric.circuit_link(0, 0, 1), net::kInvalidLink);
  // Future allocations avoid the excluded server.
  ctrl.prepare(hot_pair_demand(4, 0, 1, 900.0), ms_to_ns(100));
  EXPECT_EQ(fabric.circuit_link(0, 0, 1), net::kInvalidLink);
}

// -------------------------------------------------------------- failures ----

TEST(Failures, OneNicHalvesEpsLinks) {
  auto fabric = make_mixnet();
  FailureManager fm(fabric);
  auto up_links = [&](int server) {
    int n = 0;
    for (net::LinkId l : fabric.network().node(fabric.server_node(server)).out_links)
      if (fabric.network().is_up(l)) ++n;
    return n;
  };
  const int before = up_links(0);
  fm.apply({FailureScenario::Kind::kOneNic, 0});
  EXPECT_EQ(up_links(0), before - 1);
  EXPECT_TRUE(fm.relays().empty());
}

TEST(Failures, TwoNicInstallsRelay) {
  auto fabric = make_mixnet();
  FailureManager fm(fabric);
  fm.apply({FailureScenario::Kind::kTwoNic, 0});
  ASSERT_EQ(fm.relays().size(), 1u);
  EXPECT_EQ(fm.relays()[0].server, 0);
  EXPECT_EQ(fm.relays()[0].peer, -1);
  EXPECT_EQ(fm.relays()[0].relay, 1);  // next region member
}

TEST(Failures, GpuFailureFlagsTpPenalty) {
  auto fabric = make_mixnet();
  FailureManager fm(fabric);
  fm.apply({FailureScenario::Kind::kOneGpu, 3});
  EXPECT_TRUE(fm.tp_over_scale_out());
  EXPECT_EQ(fm.affected_server(), 3);
}

TEST(Failures, ServerDownExcluded) {
  auto fabric = make_mixnet();
  FailureManager fm(fabric);
  fm.apply({FailureScenario::Kind::kServerDown, 2});
  EXPECT_TRUE(fm.excluded_servers()[2]);
  EXPECT_FALSE(fm.excluded_servers()[0]);
}

TEST(Failures, NoneIsNoOp) {
  auto fabric = make_mixnet();
  const auto version = fabric.network().version();
  FailureManager fm(fabric);
  fm.apply({FailureScenario::Kind::kNone, 0});
  EXPECT_EQ(fabric.network().version(), version);
  EXPECT_EQ(fm.affected_server(), -1);
}

}  // namespace
}  // namespace mixnet::control
