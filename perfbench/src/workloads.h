// The benchmark's named workloads. Each is a batch of sweep points, run one
// after another, whose every config derives from the workload seed; the
// program only ever sees the generated points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.h"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<mixnet::exp::SweepPoint> (*points)(std::uint64_t seed);
};

/// Every workload, in the order README.md lists them.
const std::vector<Workload>& workloads();

/// nullptr when `name` names no workload.
const Workload* find_workload(const std::string& name);

}  // namespace perfbench
