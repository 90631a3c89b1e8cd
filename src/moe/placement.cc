#include "moe/placement.h"

#include <algorithm>
#include <cassert>

namespace mixnet::moe {

Placement::Placement(const ParallelismSpec& par, int gpus_per_server)
    : par_(par), gpus_per_server_(gpus_per_server) {
  assert(gpus_per_server_ > 0);
}

int Placement::total_servers() const {
  return (total_gpus() + gpus_per_server_ - 1) / gpus_per_server_;
}

int Placement::gpu_of(const GpuCoord& c) const {
  assert(c.dp < par_.dp && c.pp < par_.pp && c.ep < par_.ep && c.tp < par_.tp);
  return ((c.dp * par_.pp + c.pp) * par_.ep + c.ep) * par_.tp + c.tp;
}

GpuCoord Placement::coord_of(int gpu) const {
  GpuCoord c;
  c.tp = gpu % par_.tp;
  gpu /= par_.tp;
  c.ep = gpu % par_.ep;
  gpu /= par_.ep;
  c.pp = gpu % par_.pp;
  gpu /= par_.pp;
  c.dp = gpu;
  return c;
}

std::vector<int> Placement::ep_group_servers(int dp, int pp) const {
  std::vector<int> servers;
  for (int ep = 0; ep < par_.ep; ++ep) {
    for (int tp = 0; tp < par_.tp; ++tp) {
      const int s = server_of_gpu(gpu_of({dp, pp, ep, tp}));
      if (servers.empty() || servers.back() != s) servers.push_back(s);
    }
  }
  servers.erase(std::unique(servers.begin(), servers.end()), servers.end());
  return servers;
}

int Placement::region_servers() const {
  const int group_gpus = par_.ep * par_.tp;
  return std::max(1, (group_gpus + gpus_per_server_ - 1) / gpus_per_server_);
}

std::vector<int> Placement::ep_rank_to_local_server(int dp, int pp) const {
  const std::vector<int> servers = ep_group_servers(dp, pp);
  std::vector<int> out(static_cast<std::size_t>(par_.ep), 0);
  for (int ep = 0; ep < par_.ep; ++ep) {
    const int s = server_of_gpu(gpu_of({dp, pp, ep, 0}));
    const auto it = std::find(servers.begin(), servers.end(), s);
    assert(it != servers.end());
    out[static_cast<std::size_t>(ep)] = static_cast<int>(it - servers.begin());
  }
  return out;
}

}  // namespace mixnet::moe
