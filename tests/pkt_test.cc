// Packet engine (src/pkt): slab invariants, exact differential equivalence
// against the net::PacketSim golden oracle, content-key tie-breaking, and
// the PacketTransport adapter's eventsim integration (DESIGN.md §12).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "eventsim/simulator.h"
#include "net/network.h"
#include "net/transport.h"
#include "oracle/packetsim.h"
#include "pkt/engine.h"
#include "pkt/slab.h"
#include "pkt/transport.h"

namespace mixnet::pkt {
namespace {

// Flow paths are copy-constructed (`path = std::vector<net::LinkId>(p)`),
// never copy-assigned (`path = p`): the assign into an empty vector trips
// GCC 12's -Wnonnull false positive at -O3 (memmove to a null begin()).

// ------------------------------------------------------------------ slab ----

TEST(Slab, ReusesReleasedSlotsWithoutGrowing) {
  Slab<int> s;
  const std::int32_t a = s.alloc();
  const std::int32_t b = s.alloc();
  const std::int32_t c = s.alloc();
  EXPECT_EQ(s.capacity(), 3u);
  EXPECT_EQ(s.live(), 3u);
  s.release(b);
  EXPECT_EQ(s.live(), 2u);
  // Steady state: a release immediately feeds the next alloc; the pool's
  // high-water mark never moves.
  EXPECT_EQ(s.alloc(), b);
  EXPECT_EQ(s.capacity(), 3u);
  EXPECT_EQ(s.live(), 3u);
  s.release(a);
  s.release(b);
  s.release(c);
  EXPECT_EQ(s.live(), 0u);
  EXPECT_EQ(s.capacity(), 3u);
}

// ---------------------------------------------- engine vs PacketSim diff ----

struct TestFlow {
  Bytes size = 0.0;
  std::vector<net::LinkId> path;
};

// Golden oracle: per-flow completion times from net::PacketSim.
std::vector<TimeNs> oracle_times(const net::Network& net,
                                 const std::vector<TestFlow>& flows) {
  eventsim::Simulator sim;
  net::PacketSim ps(sim, net);
  std::vector<TimeNs> done(flows.size(), -1);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    net::PacketFlowSpec s;
    s.src = net.link(flows[i].path.front()).src;
    s.dst = net.link(flows[i].path.back()).dst;
    s.size = flows[i].size;
    s.path = std::vector<net::LinkId>(flows[i].path);
    s.on_complete = [&done, i](TimeNs t) { done[i] = t; };
    ps.start_flow(std::move(s));
  }
  sim.run();
  return done;
}

// Drive the engine standalone (no eventsim): drain batch by batch.
std::vector<TimeNs> engine_times(const net::Network& net,
                                 const std::vector<TestFlow>& flows) {
  Engine eng(net);
  std::vector<TimeNs> done(flows.size(), -1);
  for (const TestFlow& f : flows) eng.add_flow(f.size, f.path, 0);
  for (;;) {
    const std::vector<Completion>& comps = eng.advance(kTimeInf);
    if (comps.empty()) break;
    for (const Completion& c : comps)
      done[static_cast<std::size_t>(c.flow)] = c.at;
  }
  return done;
}

// 4-hop line with non-commensurate capacities/delays, so no two distinct
// event chains collide on the same instant by arithmetic accident.
net::Network line_net(std::vector<net::LinkId>* path) {
  net::Network net;
  std::vector<net::NodeId> nodes;
  for (int i = 0; i < 5; ++i)
    nodes.push_back(net.add_node(
        (i == 0 || i == 4) ? net::NodeKind::kServer : net::NodeKind::kSwitch));
  const double caps_gbps[4] = {97.0, 23.0, 41.0, 13.0};
  const double delays_us[4] = {1.3, 0.7, 2.9, 0.1};
  for (int i = 0; i < 4; ++i)
    path->push_back(net.add_link(nodes[i], nodes[i + 1], gbps(caps_gbps[i]),
                                 us_to_ns(delays_us[i])));
  return net;
}

// Dumbbell with skewed access capacities feeding one shared bottleneck.
net::Network dumbbell_net(std::vector<TestFlow>* flows) {
  net::Network net;
  const net::NodeId a = net.add_node(net::NodeKind::kServer);
  const net::NodeId b = net.add_node(net::NodeKind::kServer);
  const net::NodeId sw = net.add_node(net::NodeKind::kSwitch);
  const net::NodeId y = net.add_node(net::NodeKind::kServer);
  const net::LinkId la = net.add_link(a, sw, gbps(179.0), us_to_ns(0.9));
  const net::LinkId lb = net.add_link(b, sw, gbps(31.0), us_to_ns(2.3));
  const net::LinkId lo = net.add_link(sw, y, gbps(53.0), us_to_ns(1.1));
  flows->push_back({mib(3), {la, lo}});
  flows->push_back({mib(1), {lb, lo}});
  return net;
}

// 16-flow incast: distinct leaf capacities/delays/sizes per source.
net::Network incast_net(std::vector<TestFlow>* flows, int n_sources = 16) {
  net::Network net;
  const net::NodeId sw = net.add_node(net::NodeKind::kSwitch);
  const net::NodeId sink = net.add_node(net::NodeKind::kServer);
  const net::LinkId shared = net.add_link(sw, sink, gbps(401.0), us_to_ns(1.7));
  for (int i = 0; i < n_sources; ++i) {
    const net::NodeId src = net.add_node(net::NodeKind::kServer);
    const net::LinkId leaf = net.add_link(
        src, sw, gbps(29.0 + 7.0 * i), us_to_ns(0.3 + 0.37 * i));
    flows->push_back({mib(0.5 + 0.25 * i), {leaf, shared}});
  }
  return net;
}

TEST(EngineVsPacketSim, MultiHopLineExactMatch) {
  std::vector<net::LinkId> path;
  const net::Network net = line_net(&path);
  const std::vector<TestFlow> flows = {
      {mib(2), path}, {mib(0.5), path}, {mib(1.25), path}};
  EXPECT_EQ(engine_times(net, flows), oracle_times(net, flows));
}

TEST(EngineVsPacketSim, SkewedDumbbellExactMatch) {
  std::vector<TestFlow> flows;
  const net::Network net = dumbbell_net(&flows);
  EXPECT_EQ(engine_times(net, flows), oracle_times(net, flows));
}

TEST(EngineVsPacketSim, ManyFlowIncastBoundedDivergence) {
  // On the shared bottleneck, ns-quantized arrival times tie frequently;
  // the oracle breaks ties by event insertion order, the engine by content
  // key. Both are valid FIFO schedules, so per-flow completions may differ
  // only by a handful of 4096-byte serialization quanta on the shared link
  // -- never drift proportionally to the flow size.
  std::vector<TestFlow> flows;
  const net::Network net = incast_net(&flows);
  const std::vector<TimeNs> engine = engine_times(net, flows);
  const std::vector<TimeNs> oracle = oracle_times(net, flows);
  const double quantum = 4096.0 * 8.0 / (401.0 * 1e9) * 1e9;  // ~82 ns
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(engine[i]),
                static_cast<double>(oracle[i]), 16.0 * quantum)
        << "flow " << i;
  }
}

TEST(Engine, TiedCompletionsFollowContentKeyOrder) {
  // Tied arrivals resolve by content key (flow id, per-flow sequence), never
  // by bucket-chain or heap order: every advance() batch lists its flows in
  // ascending id order, and the full (flow, time) completion sequence is a
  // function of the traffic alone, so two fresh engines agree exactly.
  auto sequence = [](const net::Network& net,
                     const std::vector<TestFlow>& flows) {
    Engine eng(net);
    for (const TestFlow& f : flows) eng.add_flow(f.size, f.path, 0);
    std::vector<std::pair<PktFlowId, TimeNs>> seq;
    for (;;) {
      const std::vector<Completion>& comps = eng.advance(kTimeInf);
      if (comps.empty()) break;
      for (std::size_t i = 1; i < comps.size(); ++i)
        EXPECT_LT(comps[i - 1].flow, comps[i].flow) << "at " << comps[i].at;
      for (const Completion& c : comps) seq.emplace_back(c.flow, c.at);
    }
    return seq;
  };
  std::vector<TestFlow> incast;
  const net::Network incast_network = incast_net(&incast);
  const auto first = sequence(incast_network, incast);
  EXPECT_EQ(first.size(), incast.size());
  EXPECT_EQ(sequence(incast_network, incast), first);

  // The incast's completions never tie; identical flows on disjoint,
  // identical links all finish in one batch.
  net::Network twins_network;
  std::vector<TestFlow> twins;
  for (int i = 0; i < 4; ++i) {
    const net::NodeId a = twins_network.add_node(net::NodeKind::kServer);
    const net::NodeId b = twins_network.add_node(net::NodeKind::kServer);
    twins.push_back(
        {mib(1), {twins_network.add_link(a, b, gbps(100.0), us_to_ns(1.0))}});
  }
  const auto tied = sequence(twins_network, twins);
  ASSERT_EQ(tied.size(), twins.size());
  EXPECT_EQ(tied.front().second, tied.back().second);
}

TEST(Engine, PacketAccountingAndMtuChopping) {
  // One flow of 3 full MTUs plus a 100-byte tail over 2 hops.
  net::Network net;
  const net::NodeId a = net.add_node(net::NodeKind::kServer);
  const net::NodeId sw = net.add_node(net::NodeKind::kSwitch);
  const net::NodeId b = net.add_node(net::NodeKind::kServer);
  const net::LinkId l1 = net.add_link(a, sw, gbps(100.0), us_to_ns(1.0));
  const net::LinkId l2 = net.add_link(sw, b, gbps(100.0), us_to_ns(1.0));

  Engine eng(net);
  eng.add_flow(3 * 4096.0 + 100.0, {l1, l2}, 0);
  while (!eng.advance(kTimeInf).empty()) {
  }
  EXPECT_EQ(eng.packets_delivered(), 4u);   // 3 MTU packets + the tail
  EXPECT_EQ(eng.packets_forwarded(), 8u);   // each crosses both hops
  EXPECT_EQ(eng.slab_live(), 0u);           // every descriptor returned
}

TEST(Engine, SlabStaysBoundedByWindows) {
  // Zero per-packet allocation in steady state: the descriptor pool's
  // high-water mark is at most one window per flow, regardless of flow size.
  std::vector<TestFlow> flows;
  const net::Network net = incast_net(&flows);
  PacketConfig cfg;
  Engine eng(net, cfg);
  for (const TestFlow& f : flows) eng.add_flow(f.size, f.path, 0);
  while (!eng.advance(kTimeInf).empty()) {
  }
  EXPECT_LE(eng.slab_capacity(),
            flows.size() * static_cast<std::size_t>(cfg.window_packets));
  EXPECT_EQ(eng.slab_live(), 0u);
  EXPECT_GT(eng.packets_delivered(), 1000u);  // far more packets than slots
}

// --------------------------------------------------- transport adapter ----

TEST(PacketTransport, MatchesStandaloneEngineExactly) {
  // The adapter must add zero drift: completions through the eventsim pump
  // are bit-identical to draining the engine directly.
  std::vector<TestFlow> flows;
  const net::Network net = incast_net(&flows);
  const std::vector<TimeNs> direct = engine_times(net, flows);

  eventsim::Simulator sim;
  PacketTransport pt(sim, net);
  std::vector<TimeNs> done(flows.size(), -1);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    net::FlowSpec s;
    s.src = net.link(flows[i].path.front()).src;
    s.dst = net.link(flows[i].path.back()).dst;
    s.size = flows[i].size;
    s.path = std::vector<net::LinkId>(flows[i].path);
    s.on_complete = [&done, i](net::FlowId, TimeNs t) { done[i] = t; };
    pt.start_flow(std::move(s));
  }
  sim.run();
  EXPECT_EQ(done, direct);
  EXPECT_EQ(sim.now(), *std::max_element(direct.begin(), direct.end()));
}

TEST(PacketTransport, StaggeredStartsMatchOracle) {
  // A second flow injected mid-simulation exercises the pump's horizon
  // re-arming (foreign events bound the speculative drain).
  std::vector<net::LinkId> path;
  const net::Network net = line_net(&path);
  constexpr TimeNs kLateStart = 777'777;

  eventsim::Simulator sim_o;
  net::PacketSim ps(sim_o, net);
  std::vector<TimeNs> oracle(2, -1);
  {
    net::PacketFlowSpec s;
    s.src = net.link(path.front()).src;
    s.dst = net.link(path.back()).dst;
    s.size = mib(2);
    s.path = std::vector<net::LinkId>(path);
    s.on_complete = [&oracle](TimeNs t) { oracle[0] = t; };
    ps.start_flow(std::move(s));
    sim_o.schedule_at(kLateStart, [&] {
      net::PacketFlowSpec late;
      late.src = net.link(path.front()).src;
      late.dst = net.link(path.back()).dst;
      late.size = mib(1);
      late.path = std::vector<net::LinkId>(path);
      late.on_complete = [&oracle](TimeNs t) { oracle[1] = t; };
      ps.start_flow(std::move(late));
    });
    sim_o.run();
  }

  eventsim::Simulator sim;
  PacketTransport pt(sim, net);
  std::vector<TimeNs> done(2, -1);
  {
    net::FlowSpec s;
    s.src = net.link(path.front()).src;
    s.dst = net.link(path.back()).dst;
    s.size = mib(2);
    s.path = std::vector<net::LinkId>(path);
    s.on_complete = [&done](net::FlowId, TimeNs t) { done[0] = t; };
    pt.start_flow(std::move(s));
    sim.schedule_at(kLateStart, [&] {
      net::FlowSpec late;
      late.src = net.link(path.front()).src;
      late.dst = net.link(path.back()).dst;
      late.size = mib(1);
      late.path = std::vector<net::LinkId>(path);
      late.on_complete = [&done](net::FlowId, TimeNs t) { done[1] = t; };
      pt.start_flow(std::move(late));
    });
    sim.run();
  }
  EXPECT_EQ(done, oracle);
}

TEST(PacketTransport, EmptyPathCompletesAfterExtraDelay) {
  net::Network net;
  eventsim::Simulator sim;
  PacketTransport pt(sim, net);
  net::FlowSpec s;
  s.size = mib(1);
  s.extra_delay = us_to_ns(5.0);
  TimeNs done = -1;
  s.on_complete = [&](net::FlowId, TimeNs t) { done = t; };
  pt.start_flow(std::move(s));
  sim.run();
  EXPECT_EQ(done, us_to_ns(5.0));
}

TEST(PacketTransport, ExtraDelayShiftsCompletion) {
  std::vector<TestFlow> flows;
  const net::Network net = dumbbell_net(&flows);
  const std::vector<TimeNs> oracle = oracle_times(net, flows);
  const TimeNs extra = us_to_ns(11.3);

  eventsim::Simulator sim;
  PacketTransport pt(sim, net);
  std::vector<TimeNs> done(flows.size(), -1);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    net::FlowSpec s;
    s.src = net.link(flows[i].path.front()).src;
    s.dst = net.link(flows[i].path.back()).dst;
    s.size = flows[i].size;
    s.path = std::vector<net::LinkId>(flows[i].path);
    s.extra_delay = extra;
    s.on_complete = [&done, i](net::FlowId, TimeNs t) { done[i] = t; };
    pt.start_flow(std::move(s));
  }
  sim.run();
  for (std::size_t i = 0; i < flows.size(); ++i)
    EXPECT_EQ(done[i], oracle[i] + extra) << "flow " << i;
}

TEST(MakeTransport, LadderRungsAreOrdered) {
  // analytic is contention-free, so with two flows sharing a bottleneck it
  // must finish no later than the fluid and packet models.
  std::vector<TestFlow> flows;
  const net::Network net = dumbbell_net(&flows);
  TimeNs last[3] = {0, 0, 0};
  const net::NetBackend ladder[3] = {net::NetBackend::kAnalytic,
                                     net::NetBackend::kFlow,
                                     net::NetBackend::kPacket};
  for (int b = 0; b < 3; ++b) {
    eventsim::Simulator sim;
    const std::unique_ptr<net::Transport> t =
        make_transport(ladder[b], sim, net);
    ASSERT_NE(t, nullptr);
    for (const TestFlow& f : flows) {
      net::FlowSpec s;
      s.src = net.link(f.path.front()).src;
      s.dst = net.link(f.path.back()).dst;
      s.size = f.size;
      s.path = std::vector<net::LinkId>(f.path);
      s.on_complete = [&last, b](net::FlowId, TimeNs at) {
        if (at > last[b]) last[b] = at;
      };
      t->start_flow(std::move(s));
    }
    sim.run();
    EXPECT_GT(last[b], 0) << to_string(ladder[b]);
  }
  EXPECT_LE(last[0], last[1]);  // analytic <= flow
  EXPECT_LE(last[0], last[2]);  // analytic <= packet
  // packet vs flow agree within the ladder's stated tolerance.
  EXPECT_NEAR(static_cast<double>(last[2]) / static_cast<double>(last[1]),
              1.0, 0.05);
}

}  // namespace
}  // namespace mixnet::pkt
