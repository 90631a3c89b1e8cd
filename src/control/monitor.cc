#include "control/monitor.h"

namespace mixnet::control {

void TrafficMonitor::record(int region, int layer, const Matrix& demand) {
  Matrix& e = ewma_[{region, layer}];
  if (e.empty()) {
    e = demand;
    return;
  }
  for (std::size_t i = 0; i < demand.rows(); ++i)
    for (std::size_t j = 0; j < demand.cols(); ++j)
      e(i, j) = (1.0 - w_) * e(i, j) + w_ * demand(i, j);
}

const Matrix* TrafficMonitor::smoothed(int region, int layer) const {
  auto it = ewma_.find({region, layer});
  return it == ewma_.end() ? nullptr : &it->second;
}

}  // namespace mixnet::control
