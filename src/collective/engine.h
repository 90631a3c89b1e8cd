// Custom collective communication runtime (§5.3).
//
// Lowers the collective operations used by distributed MoE training onto a
// simulated fabric:
//
//   * ring / multi-ring all-reduce           (DP gradient sync on EPS)
//   * hierarchical all-reduce                (intra-host reduce -> gateway
//                                             ring -> intra-host broadcast)
//   * point-to-point send                    (PP activations)
//   * direct all-to-all                      (EP on EPS or TopoOpt fabrics)
//   * 5-step topology-aware EP all-to-all    (EP on MixNet, Fig. 8):
//       (1) delegation lookup: circuit-connected peers are served by the
//           delegate GPU that owns the optical NIC; others fall back to EPS;
//       (2) intra-host gather to delegates over NVSwitch;
//       (3) inter-host transfer on OCS circuits + EPS NICs;
//       (4) intra-host all-to-all among local experts (overlapped with 3);
//       (5) scatter from delegates to destination GPUs.
//
// Intra-host (NVSwitch) movement never contends with scale-out links, so
// steps 2/4/5 are costed analytically from per-GPU NVLink bandwidth; the
// inter-host step is lowered to flows in the max-min fair flow simulator.
//
// Ring all-reduces are lowered with the standard sustained-flow folding:
// a ring moves 2(N-1)/N * bytes across every ring edge, so one flow of that
// size per edge, all concurrent, has the same completion time as the 2(N-1)
// stepwise schedule under fair sharing (validated in tests).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "eventsim/simulator.h"
#include "net/routing.h"
#include "net/transport.h"
#include "topo/fabric.h"

namespace mixnet::collective {

struct EngineConfig {
  /// Fixed software launch overhead added to every collective.
  TimeNs launch_overhead = us_to_ns(20.0);
  /// Number of parallel flows (rings / NIC stripes) per server pair on EPS.
  int eps_stripes = 4;
  /// Number of rings for multi-ring all-reduce.
  int allreduce_rings = 2;
  /// Software goodput factors: the fraction of line rate a collective
  /// actually achieves end to end. Defaults are 1.0 (pure network model,
  /// what the unit tests validate against closed forms); the training
  /// simulator calibrates them to the paper's production profile (Fig. 3:
  /// EP all-to-all occupies 33-55% of a Mixtral iteration on a 400 Gbps
  /// fabric, i.e. ~2% of line rate once token permutation, launch overheads
  /// and stragglers are folded in; bulk ring all-reduce reaches ~60%).
  /// Applied uniformly to every fabric, so relative comparisons are fair.
  double a2a_efficiency = 1.0;
  double ring_efficiency = 1.0;
  /// Goodput factor for *switched* (multi-hop) paths relative to a dedicated
  /// single-hop circuit: packet fabrics lose throughput to incast, queueing
  /// and congestion-control backoff that a layer-1 circuit does not see.
  /// The fluid max-min model cannot produce this by itself, so the training
  /// simulator applies the htsim-calibrated default of ~0.8; unit tests keep
  /// 1.0 to validate against closed forms.
  double switched_path_efficiency = 1.0;
};

class Engine {
 public:
  using Callback = std::function<void(TimeNs)>;

  /// `flows` may be any rung of the fidelity ladder (analytic / fluid /
  /// packet); the engine only starts flows and consumes completions.
  Engine(eventsim::Simulator& sim, const topo::Fabric& fabric,
         net::Transport& flows, net::EcmpRouter& router, EngineConfig cfg = {});

  /// Point-to-point transfer between two servers (PP activations).
  void send(int src_server, int dst_server, Bytes bytes, Callback done);

  /// Multi-ring all-reduce among `servers`, each contributing `bytes`.
  void all_reduce_ring(const std::vector<int>& servers, Bytes bytes, Callback done);

  /// Hierarchical all-reduce (§5.3 DP): per-server intra-host reduction,
  /// gateway ring across servers, intra-host broadcast.
  void hierarchical_all_reduce(const std::vector<int>& servers, Bytes bytes_per_gpu,
                               Callback done);

  /// Direct all-to-all: `bytes`(i,j) from servers[i] to servers[j]. Diagonal
  /// entries move over NVSwitch. Used on EPS fabrics and TopoOpt.
  void all_to_all_direct(const std::vector<int>& servers, const Matrix& bytes,
                         Callback done);

  /// 5-step topology-aware all-to-all within a MixNet region; `bytes` is
  /// indexed by region-local server position.
  void all_to_all_mixnet(int region, const Matrix& bytes, Callback done);

  /// Dispatch to the right all-to-all for the fabric kind: the 5-step
  /// delegated transfer on MixNet fabrics (the group must coincide with an
  /// OCS region), direct flows elsewhere.
  void ep_all_to_all(const std::vector<int>& group_servers, const Matrix& bytes,
                     Callback done);

  /// Extra relay hops installed by the failure manager: packet-switched
  /// traffic between a pair is detoured through `relay` (used when all EPS
  /// NICs of a server fail and the OCS provides the fallback path, §5.4).
  /// Pass server_b = -1 to detour every flow touching server_a.
  void set_relay(int server_a, int server_b, int relay);

 private:
  struct Barrier;  // completion joiner for multi-flow ops

  void start_pair_flows(int src_server, int dst_server, Bytes bytes, int stripes,
                        const std::shared_ptr<Barrier>& barrier,
                        bool allow_relay = true);
  TimeNs nvswitch_time(Bytes bytes_through_one_gpu) const;
  int relay_for(int a, int b) const;

  eventsim::Simulator& sim_;
  const topo::Fabric& fabric_;
  net::Transport& flows_;
  net::EcmpRouter& router_;
  EngineConfig cfg_;
  std::vector<std::tuple<int, int, int>> relays_;
};

}  // namespace mixnet::collective
