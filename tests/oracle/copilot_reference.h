// Reference Copilot solver: the oracle for predict::Copilot's fast solve
// (DESIGN.md §2).
//
// Test support, not part of any src/ layer. The solver as first written:
// the gradient P Sxx - Syx computed element by element (r, c, then k) into a
// fresh matrix every step, and each column projected onto the simplex
// through a copy and a full sort. Copilot::solve must produce the same
// transition matrix bit for bit.
#pragma once

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "predict/copilot.h"

namespace mixnet::predict {

class CopilotReference {
 public:
  explicit CopilotReference(const CopilotConfig& cfg);

  /// Same window and re-solve cadence as Copilot::observe.
  void observe(const std::vector<double>& x, const std::vector<double>& y);

  const Matrix& transition() const { return p_; }

 private:
  void solve();

  CopilotConfig cfg_;
  Matrix p_;
  std::deque<std::pair<std::vector<double>, std::vector<double>>> window_;
  std::size_t seen_ = 0;
};

}  // namespace mixnet::predict
