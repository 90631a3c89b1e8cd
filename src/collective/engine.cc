#include "collective/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mixnet::collective {

using net::FlowSpec;

/// Joins N concurrent sub-transfers and fires the callback when the last
/// one lands. `seal()` is called once all sub-transfers are registered so a
/// zero-flow op still completes.
struct Engine::Barrier {
  eventsim::Simulator* sim = nullptr;
  int pending = 0;
  bool sealed = false;
  TimeNs last = 0;
  Callback done;

  void arm() { ++pending; }
  void arrive(TimeNs t) {
    last = std::max(last, t);
    --pending;
    maybe_fire();
  }
  void seal() {
    sealed = true;
    maybe_fire();
  }
  void maybe_fire() {
    if (sealed && pending == 0 && done) {
      auto cb = std::move(done);
      done = nullptr;
      cb(std::max(last, sim->now()));
    }
  }
};

Engine::Engine(eventsim::Simulator& sim, const topo::Fabric& fabric,
               net::Transport& flows, net::EcmpRouter& router, EngineConfig cfg)
    : sim_(sim), fabric_(fabric), flows_(flows), router_(router), cfg_(cfg) {}

TimeNs Engine::nvswitch_time(Bytes bytes_through_one_gpu) const {
  const Bps bw = fabric_.config().nvlink_bw();
  return transmission_time(bytes_through_one_gpu, bw);
}

int Engine::relay_for(int a, int b) const {
  for (const auto& [x, y, r] : relays_) {
    if (y < 0) {  // wildcard: any packet-switched flow touching x detours
      if (x == a || x == b) return r;
    } else if ((x == a && y == b) || (x == b && y == a)) {
      return r;
    }
  }
  return -1;
}

void Engine::set_relay(int server_a, int server_b, int relay) {
  relays_.emplace_back(server_a, server_b, relay);
}

void Engine::start_pair_flows(int src_server, int dst_server, Bytes bytes,
                              int stripes, const std::shared_ptr<Barrier>& barrier,
                              bool allow_relay) {
  if (bytes <= 0.0) return;
  if (src_server == dst_server) {
    barrier->arm();
    const TimeNs d = nvswitch_time(bytes / fabric_.config().gpus_per_server);
    sim_.schedule_after(d, [barrier] { barrier->arrive(barrier->sim->now()); });
    return;
  }
  const int relay = allow_relay ? relay_for(src_server, dst_server) : -1;
  if (relay >= 0 && relay != src_server && relay != dst_server) {
    // Two-segment detour through a healthy peer (§5.4): the second segment
    // starts when the first lands. Segments must not re-enter relay logic.
    barrier->arm();
    auto self = this;
    auto second = [self, relay, dst_server, bytes, stripes, barrier](TimeNs) {
      auto inner = std::make_shared<Barrier>();
      inner->sim = &self->sim_;
      inner->done = [barrier](TimeNs t2) { barrier->arrive(t2); };
      self->start_pair_flows(relay, dst_server, bytes, stripes, inner,
                             /*allow_relay=*/false);
      inner->seal();
    };
    auto inner1 = std::make_shared<Barrier>();
    inner1->sim = &sim_;
    inner1->done = second;
    start_pair_flows(src_server, relay, bytes, stripes, inner1,
                     /*allow_relay=*/false);
    inner1->seal();
    return;
  }

  const net::NodeId a = fabric_.server_node(src_server);
  const net::NodeId b = fabric_.server_node(dst_server);
  const int n_stripes = std::max(stripes, 1);
  int launched = 0;
  for (int s = 0; s < n_stripes; ++s) {
    // Channel pinning: stripes of a pair land on distinct NICs, and distinct
    // destinations rotate the starting NIC, like NCCL's channel assignment.
    // The pin is never negative, so every ECMP hop takes it and no flow hash
    // is ever read: pass 0.
    const int pin = s + dst_server + src_server;
    // Switched-fabric paths are computed; TopoOpt's hosts forward, so its
    // paths come from BFS over the circuit graph.
    topo::Route route = fabric_.hosts_forward()
                            ? topo::Route{router_.route(a, b, 0, pin), 0}
                            : fabric_.route(src_server, dst_server, 0, pin);
    if (route.path.empty()) break;  // unreachable via packet fabric
    barrier->arm();
    // Switched paths pay the packet-fabric goodput tax; a single-hop
    // dedicated circuit does not (see EngineConfig).
    const double eff =
        route.path.size() > 1 ? cfg_.switched_path_efficiency : 1.0;
    FlowSpec fs;
    fs.src = a;
    fs.dst = b;
    fs.size = bytes / n_stripes / eff;
    fs.path = std::move(route.path);
    fs.extra_delay = route.extra_delay;  // collapsed-core hops
    fs.on_complete = [barrier](net::FlowId, TimeNs t) { barrier->arrive(t); };
    flows_.start_flow(std::move(fs));
    ++launched;
  }
  if (launched > 0) return;

  // No route joins the pair (both routers take a direct up circuit first, so
  // none is up either): charge a single-NIC serialized transfer so the
  // simulation makes progress and the time is accounted for.
  barrier->arm();
  const TimeNs d = transmission_time(bytes, fabric_.config().nic_bw());
  sim_.schedule_after(d, [barrier] { barrier->arrive(barrier->sim->now()); });
}

void Engine::send(int src_server, int dst_server, Bytes bytes, Callback done) {
  auto barrier = std::make_shared<Barrier>();
  barrier->sim = &sim_;
  barrier->done = std::move(done);
  const Bytes wire = bytes / cfg_.ring_efficiency;
  sim_.schedule_after(cfg_.launch_overhead, [this, src_server, dst_server, wire,
                                             barrier] {
    start_pair_flows(src_server, dst_server, wire, cfg_.eps_stripes, barrier);
    barrier->seal();
  });
}

void Engine::all_reduce_ring(const std::vector<int>& servers, Bytes bytes,
                             Callback done) {
  const auto n = servers.size();
  auto barrier = std::make_shared<Barrier>();
  barrier->sim = &sim_;
  barrier->done = std::move(done);
  if (n <= 1) {
    sim_.schedule_after(cfg_.launch_overhead,
                        [barrier] { barrier->seal(); });
    return;
  }
  // Sustained-flow folding: each ring edge carries 2(N-1)/N * bytes total
  // over the lifetime of the all-reduce.
  const Bytes edge_bytes = 2.0 * static_cast<double>(n - 1) / static_cast<double>(n) *
                           bytes / cfg_.ring_efficiency;
  sim_.schedule_after(cfg_.launch_overhead, [this, servers, edge_bytes, barrier] {
    for (std::size_t k = 0; k < servers.size(); ++k) {
      const int src = servers[k];
      const int dst = servers[(k + 1) % servers.size()];
      start_pair_flows(src, dst, edge_bytes, cfg_.allreduce_rings, barrier);
    }
    barrier->seal();
  });
}

void Engine::hierarchical_all_reduce(const std::vector<int>& servers,
                                     Bytes bytes_per_gpu, Callback done) {
  // Stage 1: intra-host reduction to the gateway GPU (NVSwitch).
  const TimeNs reduce_t = nvswitch_time(bytes_per_gpu / cfg_.ring_efficiency);
  auto self = this;
  auto cb = std::move(done);
  sim_.schedule_after(cfg_.launch_overhead + reduce_t, [self, servers, bytes_per_gpu,
                                                        cb] {
    // Stage 2: inter-host ring among gateways.
    self->all_reduce_ring(servers, bytes_per_gpu, [self, bytes_per_gpu, cb](TimeNs) {
      // Stage 3: intra-host broadcast.
      const TimeNs bcast_t =
          self->nvswitch_time(bytes_per_gpu / self->cfg_.ring_efficiency);
      self->sim_.schedule_after(bcast_t, [self, cb] { cb(self->sim_.now()); });
    });
  });
}

void Engine::all_to_all_direct(const std::vector<int>& servers, const Matrix& raw,
                               Callback done) {
  assert(raw.rows() == servers.size() && raw.cols() == servers.size());
  Matrix bytes = raw;
  for (auto& v : bytes.data()) v /= cfg_.a2a_efficiency;
  auto barrier = std::make_shared<Barrier>();
  barrier->sim = &sim_;
  barrier->done = std::move(done);
  sim_.schedule_after(cfg_.launch_overhead, [this, servers, bytes, barrier] {
    for (std::size_t i = 0; i < servers.size(); ++i) {
      for (std::size_t j = 0; j < servers.size(); ++j) {
        if (bytes(i, j) <= 0.0) continue;
        start_pair_flows(servers[i], servers[j], bytes(i, j), cfg_.eps_stripes,
                         barrier);
      }
    }
    barrier->seal();
  });
}

void Engine::all_to_all_mixnet(int region, const Matrix& raw, Callback done) {
  const auto& members = fabric_.region_servers(region);
  const auto n = members.size();
  assert(raw.rows() == n && raw.cols() == n);
  Matrix bytes = raw;
  for (auto& v : bytes.data()) v /= cfg_.a2a_efficiency;
  const int gpus = fabric_.config().gpus_per_server;
  // With co-packaged optical I/O (§8) every GPU owns an OCS port, so there
  // are no delegation hops: steps 2 and 5 vanish.
  const bool delegated =
      fabric_.config().kind != topo::FabricKind::kMixNetOpticalIO;

  // Step 2 cost: gather to delegates. Peers are assigned to delegate GPUs
  // round-robin; the slowest delegate ingress bounds the step.
  TimeNs gather_t = 0;
  if (delegated) {
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<Bytes> delegate_bytes(static_cast<std::size_t>(gpus), 0.0);
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        delegate_bytes[j % static_cast<std::size_t>(gpus)] += bytes(i, j);
      }
      for (Bytes b : delegate_bytes) gather_t = std::max(gather_t, nvswitch_time(b));
    }
  }

  // Step 4 cost: intra-host all-to-all among local experts (diagonal).
  TimeNs local_t = 0;
  for (std::size_t i = 0; i < n; ++i)
    local_t = std::max(local_t, nvswitch_time(bytes(i, i) / gpus));

  // Step 5 cost: scatter from delegates (mirror of gather on the RX side).
  TimeNs scatter_t = 0;
  if (delegated) {
    for (std::size_t j = 0; j < n; ++j) {
      std::vector<Bytes> delegate_bytes(static_cast<std::size_t>(gpus), 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        if (i == j) continue;
        delegate_bytes[i % static_cast<std::size_t>(gpus)] += bytes(i, j);
      }
      for (Bytes b : delegate_bytes) scatter_t = std::max(scatter_t, nvswitch_time(b));
    }
  }

  // Steps 2-5 are chunk-pipelined in practice (the runtime overlaps the
  // NVSwitch gather/scatter with the wire transfer), so the op completes at
  // the *max* of the stage durations plus a one-chunk ramp, not their sum.
  const TimeNs ramp = std::max<TimeNs>((gather_t + scatter_t) / 8, 0);
  const TimeNs floor_t = cfg_.launch_overhead +
                         std::max({gather_t, local_t, scatter_t}) + ramp;
  auto barrier = std::make_shared<Barrier>();  // joins step 3 and step 4
  barrier->sim = &sim_;
  auto cb = std::move(done);
  auto self = this;
  barrier->done = [self, floor_t, cb](TimeNs t) {
    const TimeNs done_at = std::max(t, floor_t);
    self->sim_.schedule_after(std::max<TimeNs>(done_at - self->sim_.now(), 0),
                              [self, cb] { cb(self->sim_.now()); });
  };

  sim_.schedule_after(
      cfg_.launch_overhead,
      [this, region, members, bytes, local_t, barrier, n] {
        // Step 3: inter-host transfer, OCS circuits preferred, EPS fallback.
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            if (i == j || bytes(i, j) <= 0.0) continue;
            // Optical circuits are unaffected by EPS NIC failures, so relays
            // never apply to them.
            const net::LinkId circuit =
                fabric_.circuit_link(region, static_cast<int>(i), static_cast<int>(j));
            if (circuit != net::kInvalidLink) {
              barrier->arm();
              FlowSpec fs;
              fs.src = fabric_.server_node(members[i]);
              fs.dst = fabric_.server_node(members[j]);
              fs.size = bytes(i, j);
              // assign(1, ...) rather than = {...}: the initializer-list
              // overload trips GCC 12's -Wnonnull false positive at -O3
              // (memmove from the list's backing array).
              fs.path.assign(1, circuit);
              auto b = barrier;
              fs.on_complete = [b](net::FlowId, TimeNs t) { b->arrive(t); };
              flows_.start_flow(std::move(fs));
            } else {
              start_pair_flows(members[i], members[j], bytes(i, j),
                               cfg_.eps_stripes, barrier);
            }
          }
        }
        // Step 4 overlaps with step 3.
        if (local_t > 0) {
          barrier->arm();
          sim_.schedule_after(local_t,
                              [barrier] { barrier->arrive(barrier->sim->now()); });
        }
        barrier->seal();
      });
}

void Engine::ep_all_to_all(const std::vector<int>& group_servers, const Matrix& bytes,
                           Callback done) {
  switch (fabric_.config().kind) {
    case topo::FabricKind::kMixNet:
    case topo::FabricKind::kMixNetOpticalIO: {
      const int region = fabric_.region_of(group_servers.front());
      assert(fabric_.region_servers(region) == group_servers &&
             "EP group must coincide with an OCS region on MixNet fabrics");
      all_to_all_mixnet(region, bytes, std::move(done));
      return;
    }
    default:
      all_to_all_direct(group_servers, bytes, std::move(done));
      return;
  }
}

}  // namespace mixnet::collective
