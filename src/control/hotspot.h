// Sliding-window hotspot detector (DESIGN.md §11).
//
// Watches a per-entity load vector (per-EP-rank expert load in the serving
// subsystem, but any counter vector works) over a sliding window of
// observations and reports when the windowed maximum exceeds the fair share
// by a configurable ratio. A cooldown suppresses re-triggering while the
// downstream actuator (Copilot-driven expert re-placement) takes effect, so
// one sustained hotspot produces one re-placement, not one per step.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

namespace mixnet::control {

struct HotspotConfig {
  int window = 8;           ///< observations averaged per decision
  double threshold = 1.35;  ///< windowed max/fair load ratio that trips
  int cooldown = 32;        ///< observations suppressed after a trigger
};

class HotspotDetector {
 public:
  explicit HotspotDetector(HotspotConfig cfg);

  /// Record one observation. Returns true when the window is full, the
  /// windowed imbalance is at or above the threshold, and no cooldown is
  /// pending — i.e. when the caller should act.
  bool record(const std::vector<double>& loads);

  /// Windowed max/fair load ratio of the latest full window (0 until the
  /// window fills, 1 means perfectly balanced).
  double imbalance() const { return imbalance_; }

  int triggers() const { return triggers_; }

 private:
  HotspotConfig cfg_;
  std::deque<std::vector<double>> window_;
  std::vector<double> mean_;
  double imbalance_ = 0.0;
  int cooldown_left_ = 0;
  int triggers_ = 0;
};

}  // namespace mixnet::control
