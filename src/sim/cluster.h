// Cluster: the one bring-up of the simulated MixNet stack (DESIGN.md §6) —
// placement, fabric, collective runtime (PhaseRunner) and regional topology
// controllers, all built from one TrainingConfig. TrainingSimulator and
// ServeSimulator each hold one Cluster and add only their own policy and
// gate: a shared moe::GateTrace for training, a GateSimulator of its own for
// serving, both configured by gate_config().
#pragma once

#include <memory>
#include <vector>

#include "common/matrix.h"
#include "control/controller.h"
#include "moe/gate.h"
#include "moe/placement.h"
#include "sim/phase_runner.h"
#include "topo/fabric.h"

namespace mixnet::sim {

struct TrainingConfig;

/// The gate a Cluster built from `cfg` drives: cfg.gate with the model's
/// expert and block counts, the EP degree, the per-rank token slots and
/// cfg.seed filled in (parallelism resolved as Cluster resolves it). A gate
/// trace's key is moe::gate_trace_key(gate_config(cfg), warmup_iterations).
moe::GateConfig gate_config(const TrainingConfig& cfg);

/// MoE blocks per pipeline stage (at least 1): the gate layers one training
/// iteration reads.
int layers_per_stage(const TrainingConfig& cfg);

class Cluster {
 public:
  /// Completes `cfg` in place (the model's default parallelism unless
  /// par_overridden; MixNet's optical degree = NICs not on the EPS), then
  /// builds the placement, fabric and phase runner from it. Throws
  /// std::invalid_argument on a configuration the fabric or the phase runner
  /// rejects (e.g. an analytic core under the packet backend).
  explicit Cluster(TrainingConfig& cfg);

  /// MixNet-family fabric: regions own OCS circuits a controller re-targets.
  bool is_mixnet() const { return mixnet_; }
  const moe::Placement& placement() const { return *placement_; }
  topo::Fabric& fabric() { return *fabric_; }
  PhaseRunner& runner() { return *runner_; }

  /// Representative EP group (dp 0, pp 0): its servers, each EP rank's
  /// group-local server, and its region (0 on non-MixNet fabrics).
  const std::vector<int>& group_servers() const { return group_servers_; }
  const std::vector<int>& rank_to_local_server() const {
    return rank_to_local_server_;
  }
  int rep_region() const { return rep_region_; }
  /// MoE blocks per pipeline stage (at least 1).
  int layers_per_stage() const { return layers_per_stage_; }
  /// `rank_bytes` (EP rank x EP rank) of the representative group summed
  /// into its group-local server matrix.
  Matrix group_server_matrix(const Matrix& rank_bytes) const;

  /// A topology controller for `region` configured from TrainingConfig
  /// (reconfiguration delay, circuit policy, Algorithm 1 variant).
  std::unique_ptr<control::TopologyController> make_controller(int region);

 private:
  bool mixnet_ = false;
  std::unique_ptr<moe::Placement> placement_;
  std::unique_ptr<topo::Fabric> fabric_;
  std::unique_ptr<PhaseRunner> runner_;
  control::ControllerConfig controller_cfg_;
  std::vector<int> group_servers_;
  std::vector<int> rank_to_local_server_;
  int rep_region_ = 0;
  int layers_per_stage_ = 1;
};

}  // namespace mixnet::sim
