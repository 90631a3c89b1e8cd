// All-to-all traffic monitor (§5.1).
//
// Tracks an EWMA-smoothed inter-server demand matrix per (region, layer).
// Copilot-driven MixNet training rescales it toward the predicted expert
// loads to plan each layer's circuits (§B.1); TopoOpt's one-shot circuits
// are planned from the gate directly, not from here. The paper notes
// Megatron-LM already collects these counts for on-demand all-to-all, so
// monitoring adds no overhead -- here it is simply fed by the gate simulator.
#pragma once

#include <map>
#include <utility>

#include "common/matrix.h"

namespace mixnet::control {

class TrafficMonitor {
 public:
  explicit TrafficMonitor(double ewma_weight = 0.5) : w_(ewma_weight) {}

  /// Record an observed inter-server demand matrix for a layer's all-to-all.
  void record(int region, int layer, const Matrix& demand);

  /// EWMA-smoothed demand, or nullptr if none.
  const Matrix* smoothed(int region, int layer) const;

 private:
  double w_;
  std::map<std::pair<int, int>, Matrix> ewma_;
};

}  // namespace mixnet::control
