// GPU placement: mapping between parallelism coordinates and physical GPUs.
//
// Megatron-style rank ordering with TP innermost (so a TP group shares a
// server's NVSwitch), then EP, then PP, then DP outermost:
//
//   global_gpu = ((dp * PP + pp) * EP + ep) * TP + tp
//
// With this ordering an EP group (ep x tp GPUs) occupies a contiguous span of
// servers -- the "region" served by one reconfigurable OCS domain (§4.2).
#pragma once

#include <vector>

#include "moe/models.h"

namespace mixnet::moe {

struct GpuCoord {
  int dp = 0;
  int pp = 0;
  int ep = 0;
  int tp = 0;
};

class Placement {
 public:
  Placement(const ParallelismSpec& par, int gpus_per_server);

  const ParallelismSpec& parallelism() const { return par_; }
  int gpus_per_server() const { return gpus_per_server_; }
  int total_gpus() const { return par_.total_gpus(); }
  int total_servers() const;

  int gpu_of(const GpuCoord& c) const;
  GpuCoord coord_of(int gpu) const;
  int server_of_gpu(int gpu) const { return gpu / gpus_per_server_; }

  /// Servers hosting one EP group (fixed dp, pp): the OCS region (§4.2).
  /// GPUs of the group may share servers; the list is deduplicated, ordered.
  std::vector<int> ep_group_servers(int dp, int pp) const;

  /// Servers per EP group (region size for FabricConfig::region_servers).
  int region_servers() const;

  /// Map EP rank -> region-local server index for a group, given
  /// `experts_per_rank` GPUs aggregated per rank. Multiple EP ranks may map
  /// to the same server (TP groups sharing a server).
  std::vector<int> ep_rank_to_local_server(int dp, int pp) const;

 private:
  ParallelismSpec par_;
  int gpus_per_server_;
};

}  // namespace mixnet::moe
