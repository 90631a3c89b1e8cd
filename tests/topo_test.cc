#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>

#include "common/matrix.h"
#include "net/routing.h"
#include "topo/fabric.h"

namespace mixnet::topo {
namespace {

FabricConfig base_config(FabricKind kind, int n_servers = 8) {
  FabricConfig c;
  c.kind = kind;
  c.n_servers = n_servers;
  c.nic_gbps = 100.0;
  if (kind == FabricKind::kOverSubFatTree) c.oversub = 3.0;
  return c;
}

TEST(Fabric, FatTreeConnectsAllServerPairs) {
  Fabric f = Fabric::build(base_config(FabricKind::kFatTree, 16));
  net::EcmpRouter r(f.network());
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) {
      if (i == j) continue;
      EXPECT_FALSE(r.route(f.server_node(i), f.server_node(j), 7).empty())
          << i << "->" << j;
    }
  }
}

TEST(Fabric, FatTreeHasPerNicParallelLinks) {
  Fabric f = Fabric::build(base_config(FabricKind::kFatTree, 4));
  // Each server should have nics_per_server out-links to its ToR.
  const auto& n = f.network().node(f.server_node(0));
  EXPECT_EQ(n.out_links.size(), 8u);
}

TEST(Fabric, RailOptimizedSameRankOneSwitchApart) {
  Fabric f = Fabric::build(base_config(FabricKind::kRailOptimized, 16));
  net::EcmpRouter r(f.network());
  // Same pod: 2 hops through a rail switch.
  EXPECT_EQ(r.route(f.server_node(0), f.server_node(1), 7).size(), 2u);
}

TEST(Fabric, OverSubUplinkIsSlimmer) {
  Fabric f1 = Fabric::build(base_config(FabricKind::kFatTree, 8));
  // Sum the ToR<->core uplink capacities: the only switch-to-switch links
  // of a leaf-spine fabric.
  auto uplink_cap = [](const Fabric& f) {
    const net::Network& n = f.network();
    Bps total = 0;
    for (const auto& l : n.links()) {
      if (n.node(l.src).kind == net::NodeKind::kSwitch &&
          n.node(l.dst).kind == net::NodeKind::kSwitch)
        total += l.capacity;
    }
    return total;
  };
  // The configured ratio is the built ratio.
  for (const double ratio : {1.5, 3.0}) {
    const Fabric fo = Fabric::build(
        base_config(FabricKind::kOverSubFatTree, 8).with_oversub(ratio));
    EXPECT_NEAR(uplink_cap(f1) / uplink_cap(fo), ratio, 1e-6);
  }
}

TEST(Fabric, MixNetSplitsNics) {
  FabricConfig c = base_config(FabricKind::kMixNet, 8);
  c.eps_nics = 2;
  c.optical_degree = 6;
  c.region_servers = 4;
  Fabric f = Fabric::build(c);
  EXPECT_EQ(f.n_regions(), 2);
  EXPECT_EQ(f.optical_degree(), 6);
  EXPECT_TRUE(f.has_circuits());
  EXPECT_TRUE(f.has_eps());
  // EPS side: 2 NIC links to ToR.
  EXPECT_EQ(f.network().node(f.server_node(0)).out_links.size(), 2u);
}

TEST(Fabric, MixNetRejectsBadNicSplit) {
  FabricConfig c = base_config(FabricKind::kMixNet, 8);
  c.eps_nics = 3;
  c.optical_degree = 6;  // 3 + 6 != 8
  EXPECT_THROW(Fabric::build(c), std::invalid_argument);
}

TEST(Fabric, RegionAssignmentContiguous) {
  FabricConfig c = base_config(FabricKind::kMixNet, 16);
  c.region_servers = 4;
  Fabric f = Fabric::build(c);
  EXPECT_EQ(f.n_regions(), 4);
  EXPECT_EQ(f.region_of(0), 0);
  EXPECT_EQ(f.region_of(3), 0);
  EXPECT_EQ(f.region_of(4), 1);
  EXPECT_EQ(f.region_servers(1), (std::vector<int>{4, 5, 6, 7}));
}

TEST(Fabric, ApplyCircuitsCreatesDuplexLinks) {
  FabricConfig c = base_config(FabricKind::kMixNet, 8);
  c.region_servers = 4;
  Fabric f = Fabric::build(c);
  Matrix counts(4, 4, 0.0);
  counts(0, 1) = counts(1, 0) = 2;
  counts(2, 3) = counts(3, 2) = 1;
  f.apply_circuits(0, counts);
  const net::LinkId l01 = f.circuit_link(0, 0, 1);
  ASSERT_NE(l01, net::kInvalidLink);
  EXPECT_DOUBLE_EQ(f.network().link(l01).capacity, 2 * gbps(100));
  EXPECT_NE(f.circuit_link(0, 1, 0), net::kInvalidLink);
  EXPECT_EQ(f.circuit_link(0, 0, 2), net::kInvalidLink);
  EXPECT_EQ(f.circuit_link(0, 0, 0), net::kInvalidLink);
}

TEST(Fabric, ReapplyCircuitsTearsDownStale) {
  FabricConfig c = base_config(FabricKind::kMixNet, 8);
  c.region_servers = 4;
  Fabric f = Fabric::build(c);
  Matrix a(4, 4, 0.0);
  a(0, 1) = a(1, 0) = 3;
  f.apply_circuits(0, a);
  Matrix b(4, 4, 0.0);
  b(0, 2) = b(2, 0) = 1;
  f.apply_circuits(0, b);
  EXPECT_EQ(f.circuit_link(0, 0, 1), net::kInvalidLink);
  EXPECT_NE(f.circuit_link(0, 0, 2), net::kInvalidLink);
  Matrix now = f.circuit_counts(0);
  EXPECT_DOUBLE_EQ(now(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(now(0, 2), 1.0);
}

TEST(Fabric, CircuitDegreeEnforced) {
  FabricConfig c = base_config(FabricKind::kMixNet, 8);
  c.region_servers = 4;
  Fabric f = Fabric::build(c);
  Matrix counts(4, 4, 0.0);
  counts(0, 1) = counts(1, 0) = 4;
  counts(0, 2) = counts(2, 0) = 3;  // row 0 sums to 7 > alpha 6
  EXPECT_THROW(f.apply_circuits(0, counts), std::invalid_argument);
}

TEST(Fabric, TopoOptHasNoEps) {
  Fabric f = Fabric::build(base_config(FabricKind::kTopoOpt, 8));
  EXPECT_FALSE(f.has_eps());
  EXPECT_TRUE(f.has_circuits());
  EXPECT_EQ(f.optical_degree(), 8);
  EXPECT_EQ(f.n_regions(), 1);
  EXPECT_EQ(f.n_switch_nodes(), 0);
}

TEST(Fabric, OpticalIoUsesOcsRate) {
  FabricConfig c = base_config(FabricKind::kMixNetOpticalIO, 4);
  c.eps_nics = 2;
  c.optical_degree = 6;
  c.region_servers = 2;
  c.ocs_nic_gbps = 3600.0;
  Fabric f = Fabric::build(c);
  Matrix counts(2, 2, 0.0);
  counts(0, 1) = counts(1, 0) = 1;
  f.apply_circuits(0, counts);
  EXPECT_DOUBLE_EQ(f.network().link(f.circuit_link(0, 0, 1)).capacity, gbps(3600));
}

class FabricConnectivity : public ::testing::TestWithParam<FabricKind> {};

TEST_P(FabricConnectivity, AllPairsReachableOnEpsFabrics) {
  FabricConfig c = base_config(GetParam(), 12);
  c.region_servers = 4;
  if (GetParam() == FabricKind::kMixNet) {
    c.eps_nics = 2;
    c.optical_degree = 6;
  }
  Fabric f = Fabric::build(c);
  net::EcmpRouter r(f.network());
  for (int i = 0; i < f.n_servers(); ++i) {
    for (int j = 0; j < f.n_servers(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(r.route(f.server_node(i), f.server_node(j), 7).empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EpsKinds, FabricConnectivity,
                         ::testing::Values(FabricKind::kFatTree,
                                           FabricKind::kOverSubFatTree,
                                           FabricKind::kRailOptimized,
                                           FabricKind::kMixNet));

// --- Preset factories + validate() (the redesigned FabricConfig API). --------

TEST(FabricConfig, PresetFactoriesMatchFieldByFieldConstruction) {
  const FabricConfig a = FabricConfig::mixnet(8).with_nic_gbps(100.0);
  FabricConfig b = base_config(FabricKind::kMixNet, 8);
  b.eps_nics = 2;
  b.optical_degree = 6;
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.n_servers, b.n_servers);
  EXPECT_EQ(a.eps_nics, b.eps_nics);
  EXPECT_EQ(a.optical_degree, b.optical_degree);
  EXPECT_DOUBLE_EQ(a.nic_gbps, b.nic_gbps);
  EXPECT_DOUBLE_EQ(FabricConfig::nvl72(4).nvlink_gbps_per_gpu, 7200.0);
  EXPECT_DOUBLE_EQ(FabricConfig::oversub_fat_tree(4).oversub, 3.0);
  // preset() dispatches to the same factories.
  EXPECT_EQ(FabricConfig::preset(FabricKind::kTopoOpt, 6).kind,
            FabricKind::kTopoOpt);
  EXPECT_EQ(FabricConfig::preset(FabricKind::kTopoOpt, 6).n_servers, 6);
}

TEST(FabricConfig, ValidateReturnsStructuredErrors) {
  EXPECT_TRUE(FabricConfig::fat_tree(8).validate().empty());
  const auto errs = FabricConfig::mixnet(8)
                        .with_eps_split(3, 6)  // 3 + 6 != 8
                        .with_nic_gbps(-1.0)
                        .validate();
  ASSERT_GE(errs.size(), 2u);  // one error per violated field, not a throw
  bool saw_split = false, saw_gbps = false;
  for (const auto& e : errs) {
    if (e.find("eps_nics") != std::string::npos ||
        e.find("optical_degree") != std::string::npos)
      saw_split = true;
    if (e.find("nic_gbps") != std::string::npos) saw_gbps = true;
  }
  EXPECT_TRUE(saw_split);
  EXPECT_TRUE(saw_gbps);
}

TEST(FabricConfig, OverSubFatTreeRequiresRatioAboveOne) {
  // A 1:1 "over-subscribed" fat-tree is a fat-tree: reject it rather than
  // build a ratio other than the one describe() and the cache key report.
  for (const double ratio : {1.0, 0.5}) {
    const FabricConfig c = FabricConfig::oversub_fat_tree(8, ratio);
    const auto errs = c.validate();
    ASSERT_FALSE(errs.empty()) << ratio;
    for (const auto& e : errs) EXPECT_EQ(e.rfind("oversub:", 0), 0u) << e;
    EXPECT_THROW(Fabric::build(c), std::invalid_argument);
  }
  EXPECT_TRUE(FabricConfig::oversub_fat_tree(8, 1.5).validate().empty());
}

TEST(FabricConfig, AnalyticCoreRequiresLeafSpine) {
  EXPECT_FALSE(FabricConfig::topoopt(8)
                   .with_core_model(CoreModel::kAnalytic)
                   .validate()
                   .empty());
  EXPECT_THROW(Fabric::build(FabricConfig::rail_optimized(8).with_core_model(
                   CoreModel::kAnalytic)),
               std::invalid_argument);
  EXPECT_TRUE(FabricConfig::fat_tree(8)
                  .with_core_model(CoreModel::kAnalytic)
                  .validate()
                  .empty());
}

// --- Analytic core model (DESIGN.md §13). ------------------------------------

TEST(AnalyticCore, CollapsedFatTreeDropsCoreFromGraph) {
  const Fabric e = Fabric::build(base_config(FabricKind::kFatTree, 8));
  const Fabric a = Fabric::build(
      base_config(FabricKind::kFatTree, 8).with_core_model(CoreModel::kAnalytic));
  // 8 servers x 8 NICs x 2 directions; no uplinks, no core node.
  EXPECT_EQ(a.network().link_count(), 8u * 8u * 2u);
  EXPECT_GT(e.network().link_count(), a.network().link_count());
  EXPECT_EQ(e.network().node_count(), a.network().node_count() + 1);
  // Every remaining link is a server<->ToR NIC link: none ends at a node
  // other than a server or a ToR.
  const net::Network& n = a.network();
  for (const auto& l : n.links())
    EXPECT_TRUE(n.node(l.src).kind == net::NodeKind::kServer ||
                n.node(l.dst).kind == net::NodeKind::kServer);
}

TEST(AnalyticCore, OversubscribedCoreKeepsUplinksButRoutesO1) {
  // At oversub > 1 the uplink can be a real bottleneck, so it stays in the
  // graph and route() produces the 4-link leaf-spine path.
  const Fabric f = Fabric::build(base_config(FabricKind::kOverSubFatTree, 8)
                                     .with_oversub(3.0)
                                     .with_core_model(CoreModel::kAnalytic));
  const auto r = f.route(0, 7, 12345u);
  ASSERT_EQ(r.path.size(), 4u);
  EXPECT_EQ(r.extra_delay, 0);
  for (net::LinkId l : r.path) EXPECT_TRUE(f.network().link(l).up);
}

TEST(AnalyticCore, RouteShapesAndDelayCompensation) {
  const FabricConfig cfg =
      base_config(FabricKind::kFatTree, 8).with_core_model(CoreModel::kAnalytic);
  const Fabric f = Fabric::build(cfg);
  // Intra-rack (servers_per_rack = 2): two NIC links, no compensation.
  const auto intra = f.route(0, 1, 99u);
  ASSERT_EQ(intra.path.size(), 2u);
  EXPECT_EQ(intra.extra_delay, 0);
  // Inter-rack: two NIC links plus the two collapsed core hops as delay.
  const auto inter = f.route(0, 5, 99u);
  ASSERT_EQ(inter.path.size(), 2u);
  EXPECT_EQ(inter.extra_delay, 2 * cfg.link_delay);
  EXPECT_EQ(f.network().link(inter.path.front()).src, f.server_node(0));
  EXPECT_EQ(f.network().link(inter.path.back()).dst, f.server_node(5));
}

TEST(AnalyticCore, EcmpSpreadsAndPinsAcrossNics) {
  const Fabric f = Fabric::build(
      base_config(FabricKind::kFatTree, 8).with_core_model(CoreModel::kAnalytic));
  std::set<net::LinkId> first_links;
  for (std::uint64_t h = 0; h < 64; ++h)
    first_links.insert(f.route(0, 5, net::mix_hash(h + 1)).path.front());
  EXPECT_EQ(first_links.size(), 8u);  // all 8 NICs see traffic
  // Pinning is deterministic and wraps modulo the NIC count.
  for (int pin = 0; pin < 16; ++pin) {
    EXPECT_EQ(f.route(0, 5, 7u, pin).path.front(),
              f.route(0, 5, 991u, pin % 8).path.front());
  }
}

TEST(AnalyticCore, CircuitPreferredOverEpsLikeExplicitRouting) {
  FabricConfig c = base_config(FabricKind::kMixNet, 8)
                       .with_region_servers(8)
                       .with_core_model(CoreModel::kAnalytic);
  Fabric f = Fabric::build(c);
  Matrix counts(8, 8, 0.0);
  counts(0, 1) = counts(1, 0) = 1;
  f.apply_circuits(0, counts);
  const auto direct = f.route(0, 1, 5u);
  ASSERT_EQ(direct.path.size(), 1u);  // single-hop circuit wins
  EXPECT_EQ(direct.path.front(), f.circuit_link(0, 0, 1));
  // No circuit for this pair: falls back to the 2-NIC-link EPS path.
  EXPECT_EQ(f.route(0, 2, 5u).path.size(), 2u);
}

TEST(AnalyticCore, DescribeEmitsCanonicalJson) {
  const Fabric f = Fabric::build(
      base_config(FabricKind::kFatTree, 8).with_core_model(CoreModel::kAnalytic));
  const std::string j = f.describe();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"core_collapsed\":true"), std::string::npos);
  EXPECT_NE(j.find("\"core_model\":\"analytic\""), std::string::npos);
  EXPECT_NE(j.find("\"n_servers\":8"), std::string::npos);
  // Keys are sorted (canonical field order), so the digest-stable text is
  // reproducible across field-registration order changes.
  const Fabric e = Fabric::build(base_config(FabricKind::kFatTree, 8));
  EXPECT_NE(e.describe(), j);
  EXPECT_NE(e.describe().find("\"core_collapsed\":false"), std::string::npos);
}

// --- Fabric::route against the BFS oracle. ---------------------------------
//
// On every switched kind, route() must return exactly the links
// net::EcmpRouter picks on the same graph (servers do not forward): same
// links, same order, for hashed and pinned flows, before and after circuits
// are installed and links fail.

// Region 0's circuits: each server to its buddy (i ^ 1) twice and to i +/- 2
// once, at most 4 per server (alpha is 6).
Matrix region0_circuits(const Fabric& f) {
  const std::size_t m = f.region_servers(0).size();
  Matrix counts(m, m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    if ((i ^ 1) < m) counts(i, i ^ 1) = 2;
    if (i + 2 < m) counts(i, i + 2) = counts(i + 2, i) = 1;
  }
  return counts;
}

// Downs one NIC up-link of server 1, one NIC down-link of server 2, every
// EPS link of server 3, the first switch-to-core link (a ToR or rail
// uplink) when the core is in the graph, and one direction of region 0's
// first circuit.
void fail_some_links(Fabric& f) {
  net::Network& n = f.network();
  const auto switch_links = [&n](net::NodeId server, bool outgoing) {
    std::vector<net::LinkId> out;
    const auto& node = n.node(server);
    for (net::LinkId l : outgoing ? node.out_links : node.in_links) {
      const net::Link& link = n.link(l);
      if (n.node(outgoing ? link.dst : link.src).kind == net::NodeKind::kSwitch)
        out.push_back(l);
    }
    return out;
  };
  n.set_up(switch_links(f.server_node(1), true).front(), false);
  n.set_up(switch_links(f.server_node(2), false).at(1), false);
  for (const bool outgoing : {true, false})
    for (net::LinkId l : switch_links(f.server_node(3), outgoing)) n.set_up(l, false);
  for (net::LinkId l = 0; l < static_cast<net::LinkId>(n.link_count()); ++l) {
    const net::Link& link = n.link(l);
    if (n.node(link.src).kind == net::NodeKind::kSwitch &&
        n.node(link.dst).kind == net::NodeKind::kSwitch) {
      n.set_up(l, false);
      break;
    }
  }
  if (f.has_circuits()) n.set_up(f.circuit_link(0, 0, 1), false);
}

// Compares every pair (i, j) with i on a `stride_src` grid and j on a
// `stride_dst` grid; returns the number of routes compared.
int expect_route_matches_bfs(const Fabric& f, int stride_src, int stride_dst,
                             const std::string& what) {
  net::EcmpRouter bfs(f.network());
  int compared = 0;
  for (int i = 0; i < f.n_servers(); i += stride_src) {
    for (int j = 0; j < f.n_servers(); j += stride_dst) {
      if (i == j) continue;
      for (const std::uint64_t hash : {1ULL, 0x9E3779B97F4A7C15ULL, 0xDEADBEEFULL}) {
        for (const int pin : {-1, i + j + static_cast<int>(hash % 5)}) {
          const Route got = f.route(i, j, hash, pin);
          const auto want =
              bfs.route(f.server_node(i), f.server_node(j), hash, pin);
          ++compared;
          if (got.path != want || got.extra_delay != 0) {
            ADD_FAILURE() << what << ": " << i << "->" << j << " hash " << hash
                          << " pin " << pin << ": route() has "
                          << got.path.size() << " links, BFS " << want.size();
            return compared;
          }
        }
      }
    }
  }
  return compared;
}

// Plain, with region-0 circuits (circuit fabrics), then with failed links.
void expect_route_matches_bfs_under_churn(const FabricConfig& cfg, int stride_src,
                                          int stride_dst) {
  Fabric f = Fabric::build(cfg);
  ASSERT_FALSE(f.hosts_forward());
  const std::string what = std::string(to_string(cfg.kind)) + " x" +
                           std::to_string(cfg.n_servers) + " " +
                           to_string(cfg.core_model);
  EXPECT_GT(expect_route_matches_bfs(f, stride_src, stride_dst, what), 0);
  if (f.has_circuits()) {
    f.apply_circuits(0, region0_circuits(f));
    expect_route_matches_bfs(f, stride_src, stride_dst, what + " +circuits");
  }
  fail_some_links(f);
  expect_route_matches_bfs(f, stride_src, stride_dst, what + " +failures");
}

class FabricRouteOracle : public ::testing::TestWithParam<FabricKind> {};

TEST_P(FabricRouteOracle, EveryPairMatchesBfsLinkForLink) {
  for (const int n : {8, 24, 64}) {
    const FabricConfig cfg = FabricConfig::preset(GetParam(), n);
    expect_route_matches_bfs_under_churn(cfg, 1, 1);
    // The analytic core keeps the explicit graph above 1:1.
    if (cfg.kind == FabricKind::kOverSubFatTree)
      expect_route_matches_bfs_under_churn(
          FabricConfig(cfg).with_core_model(CoreModel::kAnalytic), 1, 1);
  }
}

std::string kind_test_name(const ::testing::TestParamInfo<FabricKind>& info) {
  std::string name;
  for (const char c : std::string(to_string(info.param)))
    if (std::isalnum(static_cast<unsigned char>(c))) name += c;
  return name;
}

INSTANTIATE_TEST_SUITE_P(LeafSpineKinds, FabricRouteOracle,
                         ::testing::Values(FabricKind::kFatTree,
                                           FabricKind::kOverSubFatTree,
                                           FabricKind::kMixNet, FabricKind::kNvl72,
                                           FabricKind::kMixNetOpticalIO),
                         kind_test_name);

// 64 rail-optimized servers are two 32-server pods: cross-pod paths too.
INSTANTIATE_TEST_SUITE_P(RailKind, FabricRouteOracle,
                         ::testing::Values(FabricKind::kRailOptimized),
                         kind_test_name);

TEST(FabricRoute, SampledPairsMatchBfsAt4096Gpus) {
  for (const FabricKind kind : {FabricKind::kMixNet, FabricKind::kOverSubFatTree})
    expect_route_matches_bfs_under_churn(FabricConfig::preset(kind, 512), 7, 5);
}

// 4096 servers in 128 pods; 142 destinations stay under the BFS oracle's
// 512-tree LRU, so each tree is built once per pass.
TEST(FabricRoute, RailSampledPairsMatchBfsAt32768Gpus) {
  expect_route_matches_bfs_under_churn(FabricConfig::rail_optimized(4096), 41, 29);
}

// Server 0 keeps only its rail-0 up-link and server 1 (same pod) only its
// rail-1 down-link: no rail joins them, so the path climbs to the core and
// comes back down rail 1 of the same pod, as BFS finds it.
TEST(FabricRoute, RailDisjointRailsCrossTheCore) {
  Fabric f = Fabric::build(FabricConfig::rail_optimized(8));
  net::Network& n = f.network();
  const auto& src = n.node(f.server_node(0)).out_links;
  const auto& dst = n.node(f.server_node(1)).in_links;
  ASSERT_EQ(src.size(), 8u);
  ASSERT_EQ(dst.size(), 8u);
  for (std::size_t k = 1; k < src.size(); ++k) n.set_up(src[k], false);
  for (std::size_t k = 0; k < dst.size(); ++k)
    if (k != 1) n.set_up(dst[k], false);
  for (const int pin : {-1, 0, 5}) {
    const Route got = f.route(0, 1, 3, pin);
    ASSERT_EQ(got.path.size(), 4u) << "pin " << pin;
    EXPECT_EQ(got.path.front(), src[0]);
    EXPECT_EQ(got.path.back(), dst[1]);
  }
  expect_route_matches_bfs(f, 1, 1, "rail x8 disjoint rails");
}

TEST(FabricRoute, HostsForwardIsDecidedByKind) {
  for (const FabricKind kind :
       {FabricKind::kFatTree, FabricKind::kOverSubFatTree, FabricKind::kRailOptimized,
        FabricKind::kMixNet, FabricKind::kNvl72, FabricKind::kMixNetOpticalIO})
    EXPECT_FALSE(Fabric::build(FabricConfig::preset(kind, 8)).hosts_forward())
        << to_string(kind);
  EXPECT_TRUE(Fabric::build(FabricConfig::topoopt(4)).hosts_forward());
}

}  // namespace
}  // namespace mixnet::topo
