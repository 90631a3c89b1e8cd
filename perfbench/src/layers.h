// Traced run: one pass of a workload through the layers' public calls,
// timed from outside the program, plus a replay of each layer's calls that
// splits the time by layer (README.md "Per-layer metrics").
#pragma once

#include <map>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "spans.h"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct TracedRun {
  /// Outputs of the traced calls, shaped exactly as exp::run_point shapes
  /// them, so their digest must equal the untraced run's.
  std::vector<mixnet::exp::PointResult> results;
  Metrics layers;
};

/// Run `points` once, each point as spans `exp.point` > `sim.setup`,
/// `sim.iteration` (or `serve.setup`, `serve.run`), followed by an
/// `exp.replay` span that replays the point's calls into moe, predict, topo,
/// net, pkt and control. `base_wall_s` is the untraced exp::run_sweep wall
/// time of the same points, the base of the overhead and sweep-overhead
/// figures.
TracedRun run_traced(const std::vector<mixnet::exp::SweepPoint>& points,
                     SpanRecorder& rec, double base_wall_s);

}  // namespace perfbench
