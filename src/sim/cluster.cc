#include "sim/cluster.h"

#include <algorithm>

#include "moe/traffic.h"
#include "sim/training_sim.h"

namespace mixnet::sim {

Cluster::Cluster(TrainingConfig& cfg)
    : mixnet_(cfg.fabric_kind == topo::FabricKind::kMixNet ||
              cfg.fabric_kind == topo::FabricKind::kMixNetOpticalIO) {
  if (!cfg.par_overridden) cfg.par = moe::default_parallelism(cfg.model);
  placement_ = std::make_unique<moe::Placement>(cfg.par, cfg.gpus_per_server);

  topo::FabricConfig fc =
      topo::FabricConfig::preset(cfg.fabric_kind, placement_->total_servers())
          .with_gpus_per_server(cfg.gpus_per_server)
          .with_nics_per_server(cfg.nics_per_server)
          .with_nic_gbps(cfg.nic_gbps)
          .with_oversub(cfg.oversub)
          .with_eps_split(cfg.eps_nics, cfg.optical_degree)
          .with_region_servers(placement_->region_servers())
          .with_nvlink_gbps_per_gpu(cfg.nvlink_gbps_per_gpu)
          .with_ocs_nic_gbps(cfg.ocs_nic_gbps)
          .with_core_model(cfg.core_model);
  if (mixnet_) {
    fc.with_eps_split(cfg.eps_nics, cfg.nics_per_server - cfg.eps_nics);
    cfg.optical_degree = fc.optical_degree;
  }
  // TopoOpt keeps its single global region (set inside Fabric::build).
  fabric_ = std::make_unique<topo::Fabric>(topo::Fabric::build(fc));

  moe::GateConfig gc = cfg.gate;
  gc.n_experts = cfg.model.n_experts;
  gc.n_layers = cfg.model.n_blocks;
  gc.ep_ranks = cfg.par.ep;
  gc.tokens_per_rank =
      cfg.par.tokens_per_microbatch() * cfg.model.top_k / cfg.par.ep;
  gc.seed = cfg.seed;
  gate_ = std::make_unique<moe::GateSimulator>(gc);

  collective::EngineConfig ecfg;
  ecfg.a2a_efficiency = cfg.a2a_efficiency;
  ecfg.ring_efficiency = cfg.ring_efficiency;
  ecfg.switched_path_efficiency = cfg.switched_path_efficiency;
  runner_ = std::make_unique<PhaseRunner>(*fabric_, ecfg, /*cache_capacity=*/1024,
                                          cfg.backend, cfg.pkt);

  controller_cfg_.reconfig_delay = cfg.reconfig_delay;
  controller_cfg_.policy = cfg.policy;
  controller_cfg_.algo.work_conserving = !cfg.strict_paper_greedy;

  group_servers_ = placement_->ep_group_servers(0, 0);
  rank_to_local_server_ = placement_->ep_rank_to_local_server(0, 0);
  if (mixnet_) rep_region_ = fabric_->region_of(group_servers_.front());
  layers_per_stage_ = std::max(cfg.model.n_blocks / cfg.par.pp, 1);
}

Matrix Cluster::group_server_matrix(const Matrix& rank_bytes) const {
  return moe::aggregate_to_servers(rank_bytes, rank_to_local_server_,
                                   static_cast<int>(group_servers_.size()));
}

std::unique_ptr<control::TopologyController> Cluster::make_controller(int region) {
  return std::make_unique<control::TopologyController>(*fabric_, region,
                                                       controller_cfg_);
}

}  // namespace mixnet::sim
