#include "predict/copilot.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numeric>

namespace mixnet::predict {

void project_to_simplex(double* v, std::size_t n, std::size_t stride,
                        std::uint32_t* order, double* sorted) {
  // Duchi et al. 2008, sorting by insertion from the warm order: a nearby
  // input leaves it almost sorted, so the sort is close to linear. Any
  // descending sort yields the same value sequence (DESIGN.md §2).
  for (std::size_t i = 0; i < n; ++i) sorted[i] = v[order[i] * stride];
  for (std::size_t i = 1; i < n; ++i) {
    const double key = sorted[i];
    const std::uint32_t row = order[i];
    std::size_t j = i;
    for (; j > 0 && sorted[j - 1] < key; --j) {
      sorted[j] = sorted[j - 1];
      order[j] = order[j - 1];
    }
    sorted[j] = key;
    order[j] = row;
  }
  double css = 0.0;
  std::size_t rho = 0;
  double cum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    cum += sorted[i];
    const double t = (cum - 1.0) / static_cast<double>(i + 1);
    if (sorted[i] - t > 0.0) {
      rho = i + 1;
      css = cum;
    }
  }
  if (rho == 0) {  // degenerate input; return uniform
    for (std::size_t i = 0; i < n; ++i) v[i * stride] = 1.0 / static_cast<double>(n);
    return;
  }
  const double theta = (css - 1.0) / static_cast<double>(rho);
  for (std::size_t i = 0; i < n; ++i) v[i * stride] = std::max(v[i * stride] - theta, 0.0);
}

Copilot::Copilot(const CopilotConfig& cfg) : cfg_(cfg) {
  const auto n = static_cast<std::size_t>(cfg_.n_experts);
  // Start from the identity: "unchanged" is the natural prior (§B.1 default).
  p_ = Matrix::identity(n);
  order_.resize(n * n);
  for (std::size_t i = 0; i < n * n; ++i) order_[i] = static_cast<std::uint32_t>(i % n);
}

void Copilot::observe(const std::vector<double>& x, const std::vector<double>& y) {
  assert(x.size() == static_cast<std::size_t>(cfg_.n_experts));
  assert(y.size() == static_cast<std::size_t>(cfg_.n_experts));
  window_.emplace_back(x, y);
  while (window_.size() > static_cast<std::size_t>(cfg_.window)) window_.pop_front();
  ++seen_;
  if (seen_ % static_cast<std::size_t>(std::max(cfg_.resolve_every, 1)) == 0) solve();
}

void Copilot::solve() {
  const auto n = static_cast<std::size_t>(cfg_.n_experts);
  if (window_.empty()) return;

  // Weighted normal-equation pieces: grad = 2 (P * Sxx - Syx).
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

  Matrix& p = p_;
  std::vector<double> grad(n), sorted(n);
  for (int step = 0; step < cfg_.gd_steps; ++step) {
    // grad = P Sxx - Syx (dropping the constant factor 2 into lr), one row at
    // a time: row r of grad reads only row r of P, so P updates in place.
    // Each grad[c] sums its terms in ascending k from +0.0; a zero P entry
    // adds an exact ±0.0 term, so skipping it changes no bit (DESIGN.md §2).
    for (std::size_t r = 0; r < n; ++r) {
      double* prow = &p(r, 0);
      std::fill(grad.begin(), grad.end(), 0.0);
      for (std::size_t k = 0; k < n; ++k) {
        const double pk = prow[k];
        if (pk == 0.0) continue;
        const double* srow = &sxx(k, 0);
        for (std::size_t c = 0; c < n; ++c) grad[c] += pk * srow[c];
      }
      const double* yrow = &syx(r, 0);
      for (std::size_t c = 0; c < n; ++c) prow[c] -= lr * (grad[c] - yrow[c]);
    }
    // Project every column onto the simplex (columns sum to 1, entries >= 0).
    for (std::size_t c = 0; c < n; ++c)
      project_to_simplex(&p(0, c), n, n, &order_[c * n], sorted.data());
  }
}

std::vector<double> Copilot::predict(const std::vector<double>& x) const {
  auto y = p_.mul(x);
  double s = std::accumulate(y.begin(), y.end(), 0.0);
  if (s > 0.0)
    for (auto& v : y) v /= s;
  return y;
}

double top_k_accuracy(const std::vector<double>& predicted,
                      const std::vector<double>& actual, int k) {
  assert(predicted.size() == actual.size());
  const auto n = predicted.size();
  const auto kk = static_cast<std::size_t>(std::min<int>(k, static_cast<int>(n)));
  auto top_idx = [&](const std::vector<double>& v) {
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0);
    std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(kk), idx.end(),
                      [&](std::size_t a, std::size_t b) { return v[a] > v[b]; });
    idx.resize(kk);
    return idx;
  };
  const auto tp = top_idx(predicted);
  const auto ta = top_idx(actual);
  std::size_t hits = 0;
  for (auto i : tp)
    if (std::find(ta.begin(), ta.end(), i) != ta.end()) ++hits;
  return static_cast<double>(hits) / static_cast<double>(kk);
}

std::vector<double> random_prediction(std::size_t n, Rng& rng) {
  return rng.dirichlet(n, 1.0);
}

}  // namespace mixnet::predict
