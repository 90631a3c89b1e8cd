#include "oracle/copilot_reference.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace mixnet::predict {
namespace {

// Duchi et al. 2008: O(n log n) Euclidean projection onto the simplex.
std::vector<double> project_copy_sorted(std::vector<double> v) {
  const std::size_t n = v.size();
  std::vector<double> u = v;
  std::sort(u.begin(), u.end(), std::greater<>());
  double css = 0.0, theta = 0.0;
  std::size_t rho = 0;
  double cum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cum += u[i];
    const double t = (cum - 1.0) / static_cast<double>(i + 1);
    if (u[i] - t > 0.0) {
      rho = i + 1;
      css = cum;
    }
  }
  if (rho == 0) {  // degenerate input; return uniform
    std::fill(v.begin(), v.end(), 1.0 / static_cast<double>(n));
    return v;
  }
  theta = (css - 1.0) / static_cast<double>(rho);
  for (auto& x : v) x = std::max(x - theta, 0.0);
  return v;
}

}  // namespace

CopilotReference::CopilotReference(const CopilotConfig& cfg)
    : cfg_(cfg), p_(Matrix::identity(static_cast<std::size_t>(cfg.n_experts))) {}

void CopilotReference::observe(const std::vector<double>& x,
                               const std::vector<double>& y) {
  assert(x.size() == static_cast<std::size_t>(cfg_.n_experts));
  assert(y.size() == static_cast<std::size_t>(cfg_.n_experts));
  window_.emplace_back(x, y);
  while (window_.size() > static_cast<std::size_t>(cfg_.window)) window_.pop_front();
  ++seen_;
  if (seen_ % static_cast<std::size_t>(std::max(cfg_.resolve_every, 1)) == 0) solve();
}

void CopilotReference::solve() {
  const auto n = static_cast<std::size_t>(cfg_.n_experts);
  if (window_.empty()) return;

  Matrix sxx(n, n, 0.0), syx(n, n, 0.0);
  double w = 1.0;
  for (auto it = window_.rbegin(); it != window_.rend(); ++it) {
    const auto& [x, y] = *it;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        sxx(a, b) += w * x[a] * x[b];
        syx(a, b) += w * y[a] * x[b];
      }
    }
    w *= cfg_.decay;
  }

  double max_diag = 1e-12;
  for (std::size_t a = 0; a < n; ++a) max_diag = std::max(max_diag, sxx(a, a));
  const double lr = 0.5 / (max_diag * static_cast<double>(n));

  Matrix p = p_;
  std::vector<double> col(n);
  for (int step = 0; step < cfg_.gd_steps; ++step) {
    Matrix grad(n, n, 0.0);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) {
        double acc = 0.0;
        for (std::size_t k = 0; k < n; ++k) acc += p(r, k) * sxx(k, c);
        grad(r, c) = acc - syx(r, c);
      }
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) p(r, c) -= lr * grad(r, c);
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t r = 0; r < n; ++r) col[r] = p(r, c);
      col = project_copy_sorted(std::move(col));
      for (std::size_t r = 0; r < n; ++r) p(r, c) = col[r];
    }
  }
  p_ = std::move(p);
}

}  // namespace mixnet::predict
