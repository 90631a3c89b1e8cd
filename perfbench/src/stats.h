// Order statistics for per-run samples. quartiles() follows Python's
// statistics.quantiles(data, n=4) (the default "exclusive" method), which
// spread.py uses between runs, so in-run and between-run figures agree.
#pragma once

#include <algorithm>
#include <array>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("median of no samples");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// {Q1, Q2, Q3}; needs at least two samples.
inline std::array<double, 3> quartiles(std::vector<double> xs) {
  const long ld = static_cast<long>(xs.size());
  if (ld < 2) throw std::invalid_argument("quartiles need two samples");
  std::sort(xs.begin(), xs.end());
  constexpr long n = 4;
  const long m = ld + 1;
  std::array<double, 3> q{};
  for (long i = 1; i < n; ++i) {
    const long j = std::clamp(i * m / n, 1L, ld - 1);
    const long delta = i * m - j * n;
    q[static_cast<std::size_t>(i - 1)] =
        (xs[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
         xs[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  return q;
}

}  // namespace perfbench
