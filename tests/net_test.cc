#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "eventsim/simulator.h"
#include "net/flowsim.h"
#include "net/network.h"
#include "net/routing.h"
#include "oracle/packetsim.h"

namespace mixnet::net {
namespace {

// Flow paths are constructed (`path = std::vector<LinkId>{...}`), never
// list-assigned (`path = {...}`): the initializer-list assign trips GCC 12's
// -Wnonnull false positive at -O3 (memmove from the list's backing array).

// ---------------------------------------------------------------- graph ----

TEST(Network, AddNodesAndLinks) {
  Network net;
  NodeId a = net.add_node(NodeKind::kServer);
  NodeId b = net.add_node(NodeKind::kSwitch);
  LinkId l = net.add_link(a, b, gbps(100), us_to_ns(1));
  EXPECT_EQ(net.node_count(), 2u);
  EXPECT_EQ(net.link_count(), 1u);
  EXPECT_EQ(net.link(l).src, a);
  EXPECT_EQ(net.link(l).dst, b);
  EXPECT_EQ(net.node(a).out_links.size(), 1u);
  EXPECT_EQ(net.node(b).in_links.size(), 1u);
}

TEST(Network, DuplexCreatesBothDirections) {
  Network net;
  NodeId a = net.add_node(NodeKind::kServer);
  NodeId b = net.add_node(NodeKind::kServer);
  auto [ab, ba] = net.add_duplex(a, b, gbps(100), 0);
  EXPECT_EQ(net.link(ab).src, a);
  EXPECT_EQ(net.link(ba).src, b);
  EXPECT_EQ(net.find_link(a, b), ab);
  EXPECT_EQ(net.find_link(b, a), ba);
}

TEST(Network, VersionBumpsOnMutation) {
  Network net;
  NodeId a = net.add_node(NodeKind::kServer);
  NodeId b = net.add_node(NodeKind::kServer);
  LinkId l = net.add_link(a, b, gbps(100), 0);
  const auto v0 = net.version();
  net.set_capacity(l, gbps(200));
  EXPECT_GT(net.version(), v0);
  const auto v1 = net.version();
  net.set_up(l, false);
  EXPECT_GT(net.version(), v1);
  const auto v2 = net.version();
  net.set_up(l, false);  // no-op
  EXPECT_EQ(net.version(), v2);
}

TEST(Network, FindLinkSkipsDownLinks) {
  Network net;
  NodeId a = net.add_node(NodeKind::kServer);
  NodeId b = net.add_node(NodeKind::kServer);
  LinkId l = net.add_link(a, b, gbps(100), 0);
  net.set_up(l, false);
  EXPECT_EQ(net.find_link(a, b), kInvalidLink);
}

// -------------------------------------------------------------- routing ----

/// Two servers under one ToR, two ToRs under a core.
struct LeafSpine {
  Network net;
  NodeId s0, s1, s2, s3, t0, t1, core;
  LeafSpine() {
    s0 = net.add_node(NodeKind::kServer);
    s1 = net.add_node(NodeKind::kServer);
    s2 = net.add_node(NodeKind::kServer);
    s3 = net.add_node(NodeKind::kServer);
    t0 = net.add_node(NodeKind::kSwitch);
    t1 = net.add_node(NodeKind::kSwitch);
    core = net.add_node(NodeKind::kSwitch);
    for (NodeId s : {s0, s1}) net.add_duplex(s, t0, gbps(100), us_to_ns(1));
    for (NodeId s : {s2, s3}) net.add_duplex(s, t1, gbps(100), us_to_ns(1));
    net.add_duplex(t0, core, gbps(200), us_to_ns(1));
    net.add_duplex(t1, core, gbps(200), us_to_ns(1));
  }
};

TEST(Routing, IntraRackTwoHops) {
  LeafSpine f;
  EcmpRouter r(f.net);
  auto path = r.route(f.s0, f.s1, 1);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(f.net.link(path[0]).dst, f.t0);
  EXPECT_EQ(f.net.link(path[1]).dst, f.s1);
}

TEST(Routing, CrossRackFourHops) {
  LeafSpine f;
  EcmpRouter r(f.net);
  EXPECT_EQ(r.route(f.s0, f.s3, 1).size(), 4u);
  EXPECT_EQ(r.route(f.s0, f.s1, 1).size(), 2u);
  EXPECT_TRUE(r.route(f.s0, f.s0, 1).empty());
}

TEST(Routing, UnreachableReturnsEmpty) {
  Network net;
  NodeId a = net.add_node(NodeKind::kServer);
  NodeId b = net.add_node(NodeKind::kServer);
  EcmpRouter r(net);
  EXPECT_TRUE(r.route(a, b, 1).empty());
}

TEST(Routing, EcmpSpreadsAcrossParallelLinks) {
  Network net;
  NodeId a = net.add_node(NodeKind::kServer);
  NodeId t = net.add_node(NodeKind::kSwitch);
  NodeId b = net.add_node(NodeKind::kServer);
  std::vector<LinkId> up;
  for (int i = 0; i < 4; ++i) up.push_back(net.add_duplex(a, t, gbps(100), 0).first);
  net.add_duplex(t, b, gbps(400), 0);
  EcmpRouter r(net);
  std::vector<int> hits(net.link_count(), 0);
  for (std::uint64_t h = 0; h < 400; ++h) {
    auto path = r.route(a, b, mix_hash(h));
    ASSERT_FALSE(path.empty());
    ++hits[static_cast<std::size_t>(path[0])];
  }
  for (LinkId l : up) EXPECT_GT(hits[static_cast<std::size_t>(l)], 50);
}

TEST(Routing, AvoidsDownLinks) {
  LeafSpine f;
  EcmpRouter r(f.net);
  // Kill t0-core; s0 can still reach s1 but not s3.
  LinkId up = f.net.find_link(f.t0, f.core);
  f.net.set_up(up, false);
  LinkId down = f.net.find_link(f.core, f.t0);
  f.net.set_up(down, false);
  EXPECT_FALSE(r.route(f.s0, f.s1, 1).empty());
  EXPECT_TRUE(r.route(f.s0, f.s3, 1).empty());
}

TEST(Routing, ServersDoNotForwardTransit) {
  // a -- b -- c chain of servers (direct links): a cannot reach c through b
  // unless server transit is explicitly allowed (TopoOpt mode).
  Network net;
  NodeId a = net.add_node(NodeKind::kServer);
  NodeId b = net.add_node(NodeKind::kServer);
  NodeId c = net.add_node(NodeKind::kServer);
  net.add_duplex(a, b, gbps(100), 0);
  net.add_duplex(b, c, gbps(100), 0);
  EcmpRouter strict(net);
  EXPECT_TRUE(strict.route(a, c, 1).empty());
  EXPECT_FALSE(strict.route(a, b, 1).empty());
  EcmpRouter transit(net, /*allow_server_transit=*/true);
  EXPECT_EQ(transit.route(a, c, 1).size(), 2u);
}

TEST(Routing, CacheInvalidatesOnTopologyChange) {
  LeafSpine f;
  EcmpRouter r(f.net);
  EXPECT_EQ(r.route(f.s0, f.s3, 1).size(), 4u);
  // Add a direct circuit; the route should shrink after invalidation.
  f.net.add_duplex(f.s0, f.s3, gbps(100), 0);
  EXPECT_EQ(r.route(f.s0, f.s3, 1).size(), 1u);
}

// -------------------------------------------------------------- flowsim ----

struct Dumbbell {
  Network net;
  NodeId a, b, x, y;  // a,b senders; x receiver side
  LinkId bottleneck;
  eventsim::Simulator sim;
  Dumbbell(Bps cap = gbps(80)) {
    a = net.add_node(NodeKind::kServer);
    b = net.add_node(NodeKind::kServer);
    x = net.add_node(NodeKind::kSwitch);
    y = net.add_node(NodeKind::kServer);
    net.add_link(a, x, gbps(100), 0);
    net.add_link(b, x, gbps(100), 0);
    bottleneck = net.add_link(x, y, cap, 0);
  }
};

TEST(FlowSim, SingleFlowFct) {
  Dumbbell d;
  FlowSim fs(d.sim, d.net);
  TimeNs done = -1;
  FlowSpec spec;
  spec.src = d.a;
  spec.dst = d.y;
  spec.size = mib(100);
  spec.path = std::vector<LinkId>{d.net.find_link(d.a, d.x), d.bottleneck};
  spec.on_complete = [&](FlowId, TimeNs t) { done = t; };
  fs.start_flow(std::move(spec));
  d.sim.run();
  // 100 MiB at 80 Gbps = 10 GB/s -> ~10.49 ms.
  EXPECT_NEAR(ns_to_ms(done), mib(100) / gbps(80) * 1e3, 0.05);
  EXPECT_EQ(fs.completed_flow_count(), 1u);
}

TEST(FlowSim, TwoFlowsShareBottleneckFairly) {
  Dumbbell d;
  FlowSim fs(d.sim, d.net);
  TimeNs t1 = -1, t2 = -1;
  auto mk = [&](NodeId src, TimeNs* out) {
    FlowSpec s;
    s.src = src;
    s.dst = d.y;
    s.size = mib(50);
    s.path = std::vector<LinkId>{d.net.find_link(src, d.x), d.bottleneck};
    s.on_complete = [out](FlowId, TimeNs t) { *out = t; };
    fs.start_flow(std::move(s));
  };
  mk(d.a, &t1);
  mk(d.b, &t2);
  d.sim.run();
  // Equal flows, equal shares: both finish together at 2x single-flow time.
  const double expect_ms = mib(50) / (gbps(80) / 2.0) * 1e3;
  EXPECT_NEAR(ns_to_ms(t1), expect_ms, 0.1);
  EXPECT_NEAR(ns_to_ms(t2), expect_ms, 0.1);
}

TEST(FlowSim, ShortFlowFinishesThenLongSpeedsUp) {
  Dumbbell d;
  FlowSim fs(d.sim, d.net);
  TimeNs t_short = -1, t_long = -1;
  FlowSpec s1;
  s1.src = d.a;
  s1.dst = d.y;
  s1.size = mib(10);
  s1.path = std::vector<LinkId>{d.net.find_link(d.a, d.x), d.bottleneck};
  s1.on_complete = [&](FlowId, TimeNs t) { t_short = t; };
  fs.start_flow(std::move(s1));
  FlowSpec s2;
  s2.src = d.b;
  s2.dst = d.y;
  s2.size = mib(30);
  s2.path = std::vector<LinkId>{d.net.find_link(d.b, d.x), d.bottleneck};
  s2.on_complete = [&](FlowId, TimeNs t) { t_long = t; };
  fs.start_flow(std::move(s2));
  d.sim.run();
  // Short: 10 MiB at 40 Gbps. Long: 10 MiB at 40 Gbps + 20 MiB at 80 Gbps.
  const double bw = gbps(80) / 2.0;
  EXPECT_NEAR(ns_to_sec(t_short), mib(10) / bw, 1e-4);
  EXPECT_NEAR(ns_to_sec(t_long), mib(10) / bw + mib(20) / gbps(80), 2e-4);
}

TEST(FlowSim, MaxMinNotBottleneckedFlowGetsMore) {
  // Flow A crosses the 80G bottleneck; flow B uses only its own 100G link.
  Dumbbell d;
  NodeId z = d.net.add_node(NodeKind::kServer);
  LinkId bz = d.net.add_link(d.b, z, gbps(100), 0);
  FlowSim fs(d.sim, d.net);
  FlowSpec s1;
  s1.src = d.a;
  s1.dst = d.y;
  s1.size = mib(1000);
  s1.path = std::vector<LinkId>{d.net.find_link(d.a, d.x), d.bottleneck};
  fs.start_flow(std::move(s1));
  FlowSpec s2;
  s2.src = d.b;
  s2.dst = z;
  s2.size = mib(1000);
  s2.path = std::vector<LinkId>{bz};
  FlowId f2 = fs.start_flow(std::move(s2));
  EXPECT_NEAR(fs.flow_rate(f2), gbps(100), 1.0);
  d.sim.run();
}

TEST(FlowSim, LinkDownBeforePhaseStallsOnlyItsFlows) {
  // The fabric is frozen for a phase: a flow crossing a link that was down
  // when the phase started rates 0 and never completes, and it takes no
  // share of the links it would have shared.
  Dumbbell d;
  const LinkId ax = d.net.find_link(d.a, d.x);
  const LinkId bx = d.net.find_link(d.b, d.x);
  d.net.set_up(ax, false);
  FlowSim fs(d.sim, d.net);
  bool stalled_done = false;
  TimeNs done = -1;
  FlowSpec s1;
  s1.src = d.a;
  s1.dst = d.y;
  s1.size = mib(80);
  s1.path = std::vector<LinkId>{ax, d.bottleneck};
  s1.on_complete = [&](FlowId, TimeNs) { stalled_done = true; };
  const FlowId stalled = fs.start_flow(std::move(s1));
  FlowSpec s2;
  s2.src = d.b;
  s2.dst = d.y;
  s2.size = mib(80);
  s2.path = std::vector<LinkId>{bx, d.bottleneck};
  s2.on_complete = [&](FlowId, TimeNs t) { done = t; };
  const FlowId live = fs.start_flow(std::move(s2));
  EXPECT_EQ(fs.flow_rate(stalled), 0.0);
  EXPECT_NEAR(fs.flow_rate(live), gbps(80), 1.0);
  d.sim.run();
  EXPECT_FALSE(stalled_done);
  EXPECT_NEAR(ns_to_ms(done), mib(80) / gbps(80) * 1e3, 0.05);
  EXPECT_EQ(fs.completed_flow_count(), 1u);
  EXPECT_EQ(fs.active_flow_count(), 1u);
}

TEST(FlowSim, IntraNodeFlowCompletesAfterDelay) {
  Network net;
  NodeId a = net.add_node(NodeKind::kServer);
  eventsim::Simulator sim;
  FlowSim fs(sim, net);
  TimeNs done = -1;
  FlowSpec s;
  s.src = a;
  s.dst = a;
  s.size = mib(1);
  s.extra_delay = us_to_ns(50);
  s.on_complete = [&](FlowId, TimeNs t) { done = t; };
  fs.start_flow(std::move(s));
  sim.run();
  EXPECT_NEAR(static_cast<double>(done), static_cast<double>(us_to_ns(50)), 1000.0);
}

TEST(FlowSim, PropagationDelayAddsToCompletion) {
  Network net;
  NodeId a = net.add_node(NodeKind::kServer);
  NodeId b = net.add_node(NodeKind::kServer);
  LinkId l = net.add_link(a, b, gbps(80), ms_to_ns(3));
  eventsim::Simulator sim;
  FlowSim fs(sim, net);
  TimeNs done = -1;
  FlowSpec s;
  s.src = a;
  s.dst = b;
  s.size = mib(80);
  s.path = std::vector<LinkId>{l};
  s.on_complete = [&](FlowId, TimeNs t) { done = t; };
  fs.start_flow(std::move(s));
  sim.run();
  EXPECT_NEAR(ns_to_ms(done), mib(80) / gbps(80) * 1e3 + 3.0, 0.05);
}

TEST(FlowSim, StatsCreditedAtArrivalNotAtDrain) {
  // 80 MiB at 80 Gbps drains the source at ~8.4 ms; with 3 ms of propagation
  // the last byte *arrives* at ~11.4 ms. A monitor probing in between must
  // not yet see the flow as completed (regression: stats used to be credited
  // at drain time).
  Network net;
  NodeId a = net.add_node(NodeKind::kServer);
  NodeId b = net.add_node(NodeKind::kServer);
  LinkId l = net.add_link(a, b, gbps(80), ms_to_ns(3));
  eventsim::Simulator sim;
  FlowSim fs(sim, net);
  FlowSpec s;
  s.src = a;
  s.dst = b;
  s.size = mib(80);
  s.path = std::vector<LinkId>{l};
  fs.start_flow(std::move(s));
  std::uint64_t completed_mid = 99;
  Bytes bytes_mid = -1.0;
  sim.schedule_at(ms_to_ns(10), [&] {
    completed_mid = fs.completed_flow_count();
    bytes_mid = fs.bytes_delivered();
  });
  sim.run();
  EXPECT_EQ(completed_mid, 0u);
  EXPECT_DOUBLE_EQ(bytes_mid, 0.0);
  EXPECT_EQ(fs.completed_flow_count(), 1u);
  EXPECT_DOUBLE_EQ(fs.bytes_delivered(), mib(80));
}

TEST(FlowSim, IntraNodeStatsCreditedAtCompletion) {
  // Regression: intra-node flows used to bump the counters at *start* time.
  Network net;
  NodeId a = net.add_node(NodeKind::kServer);
  eventsim::Simulator sim;
  FlowSim fs(sim, net);
  FlowSpec s;
  s.src = a;
  s.dst = a;
  s.size = mib(2);
  s.extra_delay = us_to_ns(50);
  fs.start_flow(std::move(s));
  EXPECT_EQ(fs.completed_flow_count(), 0u);
  EXPECT_DOUBLE_EQ(fs.bytes_delivered(), 0.0);
  sim.run();
  EXPECT_EQ(fs.completed_flow_count(), 1u);
  EXPECT_DOUBLE_EQ(fs.bytes_delivered(), mib(2));
}

TEST(FlowSim, EpsilonRateDoesNotOverflowCompletionTime) {
  // A flow whose fair share is epsilon-small projects a completion past
  // kTimeInf; the projection must clamp instead of overflowing TimeNs.
  Network net;
  NodeId a = net.add_node(NodeKind::kServer);
  NodeId b = net.add_node(NodeKind::kServer);
  LinkId l = net.add_link(a, b, /*capacity=*/1e-12, 0);
  eventsim::Simulator sim;
  FlowSim fs(sim, net);
  bool fired = false;
  FlowSpec s;
  s.src = a;
  s.dst = b;
  s.size = gib(1);
  s.path = std::vector<LinkId>{l};
  s.on_complete = [&](FlowId, TimeNs) { fired = true; };
  FlowId id = fs.start_flow(std::move(s));
  sim.run();  // drains without a (mis-scheduled) completion event
  EXPECT_FALSE(fired);
  EXPECT_EQ(fs.active_flow_count(), 1u);
  EXPECT_GT(fs.flow_rate(id), 0.0);
}

class FlowCountFairness : public ::testing::TestWithParam<int> {};

TEST_P(FlowCountFairness, NFlowsDivideBottleneckEvenly) {
  const int n = GetParam();
  Network net;
  eventsim::Simulator sim;
  NodeId sw = net.add_node(NodeKind::kSwitch);
  NodeId sink = net.add_node(NodeKind::kServer);
  LinkId out = net.add_link(sw, sink, gbps(100), 0);
  std::vector<NodeId> srcs;
  std::vector<LinkId> ins;
  for (int i = 0; i < n; ++i) {
    srcs.push_back(net.add_node(NodeKind::kServer));
    ins.push_back(net.add_link(srcs.back(), sw, gbps(100), 0));
  }
  FlowSim fs(sim, net);  // the fabric is complete before the phase starts
  std::vector<TimeNs> done(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    FlowSpec s;
    s.src = srcs[static_cast<std::size_t>(i)];
    s.dst = sink;
    s.size = mib(10);
    s.path = std::vector<LinkId>{ins[static_cast<std::size_t>(i)], out};
    s.on_complete = [&done, i](FlowId, TimeNs t) {
      done[static_cast<std::size_t>(i)] = t;
    };
    fs.start_flow(std::move(s));
  }
  sim.run();
  const double expect = mib(10) * n / gbps(100);
  for (TimeNs t : done) EXPECT_NEAR(ns_to_sec(t), expect, expect * 0.01);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FlowCountFairness, ::testing::Values(2, 3, 5, 8, 16));

// ----------------------------------------------- fluid vs packet-level ----

TEST(PacketVsFluid, SingleBulkFlowMatches) {
  for (double size_mib : {1.0, 4.0, 16.0}) {
    Network net;
    NodeId a = net.add_node(NodeKind::kServer);
    NodeId sw = net.add_node(NodeKind::kSwitch);
    NodeId b = net.add_node(NodeKind::kServer);
    LinkId l1 = net.add_link(a, sw, gbps(100), us_to_ns(1));
    LinkId l2 = net.add_link(sw, b, gbps(100), us_to_ns(1));

    eventsim::Simulator sim_f;
    FlowSim fs(sim_f, net);
    TimeNs fluid = -1;
    FlowSpec s;
    s.src = a;
    s.dst = b;
    s.size = mib(size_mib);
    s.path = std::vector<LinkId>{l1, l2};
    s.on_complete = [&](FlowId, TimeNs t) { fluid = t; };
    fs.start_flow(std::move(s));
    sim_f.run();

    eventsim::Simulator sim_p;
    PacketSim ps(sim_p, net);
    TimeNs packet = -1;
    PacketFlowSpec p;
    p.src = a;
    p.dst = b;
    p.size = mib(size_mib);
    p.path = std::vector<LinkId>{l1, l2};
    p.on_complete = [&](TimeNs t) { packet = t; };
    ps.start_flow(std::move(p));
    sim_p.run();

    EXPECT_NEAR(static_cast<double>(packet) / static_cast<double>(fluid), 1.0, 0.05)
        << "size " << size_mib << " MiB";
  }
}

TEST(PacketVsFluid, TwoCompetingFlowsMatch) {
  Network net;
  NodeId a = net.add_node(NodeKind::kServer);
  NodeId b = net.add_node(NodeKind::kServer);
  NodeId sw = net.add_node(NodeKind::kSwitch);
  NodeId y = net.add_node(NodeKind::kServer);
  LinkId la = net.add_link(a, sw, gbps(100), us_to_ns(1));
  LinkId lb = net.add_link(b, sw, gbps(100), us_to_ns(1));
  LinkId lo = net.add_link(sw, y, gbps(100), us_to_ns(1));

  eventsim::Simulator sim_f;
  FlowSim fs(sim_f, net);
  TimeNs fluid_last = 0;
  for (NodeId src : {a, b}) {
    FlowSpec s;
    s.src = src;
    s.dst = y;
    s.size = mib(8);
    s.path = std::vector<LinkId>{src == a ? la : lb, lo};
    s.on_complete = [&](FlowId, TimeNs t) { fluid_last = std::max(fluid_last, t); };
    fs.start_flow(std::move(s));
  }
  sim_f.run();

  eventsim::Simulator sim_p;
  PacketSim ps(sim_p, net);
  TimeNs packet_last = 0;
  for (NodeId src : {a, b}) {
    PacketFlowSpec p;
    p.src = src;
    p.dst = y;
    p.size = mib(8);
    p.path = std::vector<LinkId>{src == a ? la : lb, lo};
    p.on_complete = [&](TimeNs t) { packet_last = std::max(packet_last, t); };
    ps.start_flow(std::move(p));
  }
  sim_p.run();

  EXPECT_NEAR(static_cast<double>(packet_last) / static_cast<double>(fluid_last), 1.0,
              0.05);
}

TEST(PacketVsFluid, HigherBandwidthsAndDeeperPathsMatch) {
  // The original cross-validation cases were both 2-hop at 100 Gbps; sweep
  // the link rate and path depth so the agreement is not an artifact of one
  // operating point.
  for (double rate_gbps : {100.0, 400.0, 800.0}) {
    for (int hops : {2, 4, 6}) {
      Network net;
      std::vector<LinkId> path;
      NodeId prev = net.add_node(NodeKind::kServer);
      for (int h = 0; h < hops; ++h) {
        NodeId next = net.add_node(h + 1 == hops ? NodeKind::kServer
                                                 : NodeKind::kSwitch);
        path.push_back(net.add_link(prev, next, gbps(rate_gbps), us_to_ns(1)));
        prev = next;
      }

      eventsim::Simulator sim_f;
      FlowSim fs(sim_f, net);
      TimeNs fluid = -1;
      FlowSpec s;
      s.src = net.link(path.front()).src;
      s.dst = net.link(path.back()).dst;
      s.size = mib(8);
      s.path = path;
      s.on_complete = [&](FlowId, TimeNs t) { fluid = t; };
      fs.start_flow(std::move(s));
      sim_f.run();

      eventsim::Simulator sim_p;
      // The default window (8 MTUs in flight) caps throughput below the
      // link rate once the bandwidth-delay product exceeds it; give the
      // high-rate/deep-path cases a BDP-sized window so the comparison
      // measures model agreement, not window starvation.
      PacketSim ps(sim_p, net, 4096.0, /*window_packets=*/512);
      TimeNs packet = -1;
      PacketFlowSpec p;
      p.src = net.link(path.front()).src;
      p.dst = net.link(path.back()).dst;
      p.size = mib(8);
      p.path = path;
      p.on_complete = [&](TimeNs t) { packet = t; };
      ps.start_flow(std::move(p));
      sim_p.run();

      EXPECT_NEAR(static_cast<double>(packet) / static_cast<double>(fluid),
                  1.0, 0.05)
          << rate_gbps << " Gbps, " << hops << " hops";
    }
  }
}

// ---------------------------------------------------- analytic transport ----

TEST(AnalyticTransport, LowerBoundsFluidUnderContention) {
  // Two flows share a bottleneck: the fluid model halves their rates, the
  // contention-free analytic model does not — it must finish first.
  Network net;
  NodeId a = net.add_node(NodeKind::kServer);
  NodeId b = net.add_node(NodeKind::kServer);
  NodeId sw = net.add_node(NodeKind::kSwitch);
  NodeId y = net.add_node(NodeKind::kServer);
  LinkId la = net.add_link(a, sw, gbps(100), us_to_ns(1));
  LinkId lb = net.add_link(b, sw, gbps(100), us_to_ns(1));
  LinkId lo = net.add_link(sw, y, gbps(100), us_to_ns(1));

  TimeNs analytic_last = 0;
  TimeNs fluid_last = 0;
  {
    eventsim::Simulator sim;
    AnalyticTransport at(sim, net);
    for (LinkId first : {la, lb}) {
      FlowSpec s;
      s.src = net.link(first).src;
      s.dst = y;
      s.size = mib(8);
      s.path = std::vector<LinkId>{first, lo};
      s.on_complete = [&](FlowId, TimeNs t) {
        analytic_last = std::max(analytic_last, t);
      };
      at.start_flow(std::move(s));
    }
    sim.run();
  }
  {
    eventsim::Simulator sim;
    FlowSim fs(sim, net);
    for (LinkId first : {la, lb}) {
      FlowSpec s;
      s.src = net.link(first).src;
      s.dst = y;
      s.size = mib(8);
      s.path = std::vector<LinkId>{first, lo};
      s.on_complete = [&](FlowId, TimeNs t) {
        fluid_last = std::max(fluid_last, t);
      };
      fs.start_flow(std::move(s));
    }
    sim.run();
  }
  EXPECT_GT(analytic_last, 0);
  EXPECT_LT(analytic_last, fluid_last);
  // With no contention (single flow) the two models agree exactly: path
  // bottleneck == fair share.
  TimeNs analytic_single = -1;
  TimeNs fluid_single = -1;
  {
    eventsim::Simulator sim;
    AnalyticTransport at(sim, net);
    FlowSpec s;
    s.src = a;
    s.dst = y;
    s.size = mib(8);
    s.path = std::vector<LinkId>{la, lo};
    s.on_complete = [&](FlowId, TimeNs t) { analytic_single = t; };
    at.start_flow(std::move(s));
    sim.run();
  }
  {
    eventsim::Simulator sim;
    FlowSim fs(sim, net);
    FlowSpec s;
    s.src = a;
    s.dst = y;
    s.size = mib(8);
    s.path = std::vector<LinkId>{la, lo};
    s.on_complete = [&](FlowId, TimeNs t) { fluid_single = t; };
    fs.start_flow(std::move(s));
    sim.run();
  }
  // Agree up to FlowSim's 1 ns completion rounding.
  EXPECT_NEAR(static_cast<double>(analytic_single),
              static_cast<double>(fluid_single), 1.0);
}

TEST(AnalyticTransport, DownLinkYieldsInfiniteCompletion) {
  Network net;
  NodeId a = net.add_node(NodeKind::kServer);
  NodeId b = net.add_node(NodeKind::kServer);
  LinkId l = net.add_link(a, b, gbps(100), us_to_ns(1));
  net.set_up(l, false);

  eventsim::Simulator sim;
  AnalyticTransport at(sim, net);
  TimeNs done = -1;
  FlowSpec s;
  s.src = a;
  s.dst = b;
  s.size = mib(1);
  s.path = std::vector<LinkId>{l};
  s.on_complete = [&](FlowId, TimeNs t) { done = t; };
  at.start_flow(std::move(s));
  sim.run();
  EXPECT_EQ(done, kTimeInf);
}

TEST(NetBackend, ParseAndToStringRoundTrip) {
  for (NetBackend b : {NetBackend::kAnalytic, NetBackend::kFlow,
                       NetBackend::kPacket}) {
    NetBackend parsed{};
    EXPECT_TRUE(parse_net_backend(to_string(b), &parsed));
    EXPECT_EQ(parsed, b);
  }
  NetBackend parsed{};
  EXPECT_FALSE(parse_net_backend("fluid", &parsed));
  EXPECT_FALSE(parse_net_backend("", &parsed));
}

}  // namespace
}  // namespace mixnet::net
