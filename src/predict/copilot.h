// MixNet-Copilot (§B.1): traffic demand prediction for the forward pass's
// first all-to-all.
//
// For each layer boundary, Copilot estimates the conditional probability
// matrix P (column-stochastic, P[j][i] = Pr[token gated to expert j at layer
// l | gated to expert i at layer l-1]) by minimizing the windowed weighted
// squared error of Eq. 1:
//
//     min_P  sum_k w_k * || Y_k - P X_k ||^2      s.t. P >= 0, 1^T P = 1^T
//
// The paper solves this with scipy's SLSQP; we use projected gradient
// descent with per-column simplex projection (Duchi et al.), which solves
// the identical constrained least-squares problem (DESIGN.md §2). The
// gradient streams rows of P and skips its zero entries, and each column's
// projection re-sorts from the previous step's order; both are exact, so
// the result matches the plain element-wise, full-sort solver
// (tests/oracle/copilot_reference.h) bit for bit. The step size is
// 0.5 / (max diag(Sxx) * n).
//
// Prediction: given the previous layer's realized load X, the next layer's
// load is P X. Accuracy is reported as top-K overlap with the realized load
// (Fig. 19), against "random" and "unchanged" baselines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"

namespace mixnet::predict {

struct CopilotConfig {
  int n_experts = 8;
  int window = 16;          ///< k in Eq. 1: recent iterations kept
  double decay = 0.85;      ///< w_i = decay^(age)
  int gd_steps = 60;        ///< projected-gradient iterations per solve
  int resolve_every = 4;    ///< recompute P every this many observations
};

/// Project the n entries v[0], v[stride], ..., v[(n - 1) * stride] onto the
/// probability simplex {x >= 0, sum x = 1}, in place (Duchi et al.).
/// `order` is a permutation of [0, n): the starting guess for the
/// descending sort, and on return the entries' descending order, so passing
/// it back for a nearby input makes the re-sort almost linear. `sorted` is
/// n doubles of scratch. Both are caller-owned: a projection allocates
/// nothing.
void project_to_simplex(double* v, std::size_t n, std::size_t stride,
                        std::uint32_t* order, double* sorted);

class Copilot {
 public:
  explicit Copilot(const CopilotConfig& cfg);

  /// Record one observation: normalized expert loads of two adjacent layers
  /// in the same iteration (X = previous layer, Y = current layer).
  void observe(const std::vector<double>& x, const std::vector<double>& y);

  /// Predicted load distribution of the next layer given the previous
  /// layer's realized load.
  std::vector<double> predict(const std::vector<double>& x) const;

  /// Current estimate of the transition matrix.
  const Matrix& transition() const { return p_; }

  std::size_t observations() const { return seen_; }

 private:
  void solve();

  CopilotConfig cfg_;
  Matrix p_;
  /// Column c's row order from its last projection, at [c * n, (c + 1) * n).
  std::vector<std::uint32_t> order_;
  std::deque<std::pair<std::vector<double>, std::vector<double>>> window_;
  std::size_t seen_ = 0;
};

/// Top-K accuracy: |topK(predicted) ∩ topK(actual)| / K.
double top_k_accuracy(const std::vector<double>& predicted,
                      const std::vector<double>& actual, int k);

/// Random-prediction baseline for Fig. 19.
std::vector<double> random_prediction(std::size_t n, Rng& rng);

}  // namespace mixnet::predict
