#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "common/rng.h"
#include "moe/gate.h"
#include "oracle/copilot_reference.h"
#include "predict/copilot.h"

namespace mixnet::predict {
namespace {

// ------------------------------------------------------------ simplex ----

/// Project v through the in-place routine, sorting from the identity order.
std::vector<double> project(std::vector<double> v) {
  std::vector<std::uint32_t> order(v.size());
  std::iota(order.begin(), order.end(), 0U);
  std::vector<double> sorted(v.size());
  project_to_simplex(v.data(), v.size(), 1, order.data(), sorted.data());
  return v;
}

TEST(Simplex, AlreadyOnSimplexUnchanged) {
  const auto v = project({0.25, 0.25, 0.5});
  EXPECT_NEAR(v[0], 0.25, 1e-12);
  EXPECT_NEAR(v[2], 0.5, 1e-12);
}

TEST(Simplex, ProjectionSumsToOneNonNegative) {
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> v(16);
    for (auto& x : v) x = rng.uniform(-2.0, 2.0);
    const auto p = project(v);
    double s = 0.0;
    for (double x : p) {
      EXPECT_GE(x, -1e-12);
      s += x;
    }
    EXPECT_NEAR(s, 1.0, 1e-9);
  }
}

TEST(Simplex, LargeCoordinateDominates) {
  const auto p = project({10.0, 0.0, 0.0});
  EXPECT_NEAR(p[0], 1.0, 1e-12);
}

TEST(Simplex, WarmOrderChangesNoBitAndComesBackSorted) {
  // A strided column (every third entry) projected from a shuffled starting
  // order gives the same bits as from the identity order, touches nothing
  // between its entries, and returns its rows in descending order.
  Rng rng(11);
  const std::size_t n = 24, stride = 3;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> col(n);
    for (auto& x : col) x = rng.uniform(-1.0, 1.0);
    for (std::size_t i = 0; i < n; i += 5) col[i] = 0.25;  // ties
    std::vector<double> strided(n * stride, 7.0);
    for (std::size_t i = 0; i < n; ++i) strided[i * stride] = col[i];
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0U);
    for (std::size_t i = n - 1; i > 0; --i)
      std::swap(order[i], order[rng.uniform_int(i + 1)]);
    std::vector<double> sorted(n);
    project_to_simplex(strided.data(), n, stride, order.data(), sorted.data());
    const auto cold = project(col);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(0, std::memcmp(&strided[i * stride], &cold[i], sizeof(double)));
      for (std::size_t gap = 1; gap < stride; ++gap)
        EXPECT_EQ(strided[i * stride + gap], 7.0);
    }
    for (std::size_t i = 1; i < n; ++i) EXPECT_GE(col[order[i - 1]], col[order[i]]);
  }
}

// ------------------------------------------------------------- copilot ----

CopilotConfig small_cfg(int n = 8) {
  CopilotConfig c;
  c.n_experts = n;
  c.window = 12;
  c.gd_steps = 80;
  c.resolve_every = 1;
  return c;
}

/// Generate observations from a known column-stochastic transition matrix.
struct SyntheticMarkov {
  Matrix p;
  Rng rng{1234};
  explicit SyntheticMarkov(int n, double alpha = 0.2) : p(static_cast<std::size_t>(n),
                                                          static_cast<std::size_t>(n)) {
    for (int c = 0; c < n; ++c) {
      auto col = rng.dirichlet(static_cast<std::size_t>(n), alpha);
      for (int r = 0; r < n; ++r)
        p(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
            col[static_cast<std::size_t>(r)];
    }
  }
  std::pair<std::vector<double>, std::vector<double>> sample(double noise = 0.01) {
    const std::size_t n = p.rows();
    auto x = rng.dirichlet(n, 0.5);
    auto y = p.mul(x);
    for (auto& v : y) v = std::max(v + rng.normal(0.0, noise), 0.0);
    double s = std::accumulate(y.begin(), y.end(), 0.0);
    for (auto& v : y) v /= s;
    return {x, y};
  }
};

TEST(Copilot, TransitionStaysColumnStochastic) {
  Copilot cp(small_cfg());
  SyntheticMarkov m(8);
  for (int i = 0; i < 20; ++i) {
    auto [x, y] = m.sample();
    cp.observe(x, y);
  }
  const Matrix& p = cp.transition();
  for (std::size_t c = 0; c < p.cols(); ++c) {
    EXPECT_NEAR(p.col_sum(c), 1.0, 1e-6);
    for (std::size_t r = 0; r < p.rows(); ++r) EXPECT_GE(p(r, c), -1e-9);
  }
}

TEST(Copilot, LearnsSyntheticTransition) {
  Copilot cp(small_cfg());
  SyntheticMarkov m(8);
  for (int i = 0; i < 60; ++i) {
    auto [x, y] = m.sample(0.002);
    cp.observe(x, y);
  }
  // Prediction error on fresh samples must beat the "unchanged" baseline.
  double err_cp = 0.0, err_unchanged = 0.0;
  for (int i = 0; i < 40; ++i) {
    auto [x, y] = m.sample(0.002);
    const auto pred = cp.predict(x);
    for (std::size_t e = 0; e < y.size(); ++e) {
      err_cp += (pred[e] - y[e]) * (pred[e] - y[e]);
      err_unchanged += (x[e] - y[e]) * (x[e] - y[e]);
    }
  }
  EXPECT_LT(err_cp, 0.5 * err_unchanged);
}

TEST(Copilot, PredictionNormalized) {
  Copilot cp(small_cfg());
  SyntheticMarkov m(8);
  for (int i = 0; i < 10; ++i) {
    auto [x, y] = m.sample();
    cp.observe(x, y);
  }
  const auto pred = cp.predict({0.5, 0.5, 0, 0, 0, 0, 0, 0});
  EXPECT_NEAR(std::accumulate(pred.begin(), pred.end(), 0.0), 1.0, 1e-9);
}

TEST(Copilot, IdentityPriorBeforeObservations) {
  Copilot cp(small_cfg(4));
  const std::vector<double> x = {0.7, 0.1, 0.1, 0.1};
  const auto pred = cp.predict(x);  // identity transition == unchanged
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(pred[i], x[i], 1e-12);
}

// ------------------------------------------------------ copilot oracle ----

/// Streams observations into Copilot and into the reference solver
/// (tests/oracle/copilot_reference.h) and requires the same transition
/// matrix bit for bit after every observation: memcmp, so +0.0 and -0.0
/// differ. The loads follow y = T x for a random column-stochastic T with
/// Dirichlet(alpha) columns, so P grows as sparse as T; every fifth expert
/// (offset by the seed) receives no tokens in either layer.
void expect_bit_identical(int n, int resolve_every, double alpha,
                          std::uint64_t seed, int gd_steps = 60) {
  SCOPED_TRACE(testing::Message() << "n=" << n << " resolve_every=" << resolve_every
                                  << " alpha=" << alpha << " seed=" << seed);
  CopilotConfig cfg;
  cfg.n_experts = n;
  cfg.resolve_every = resolve_every;
  cfg.gd_steps = gd_steps;
  Copilot fast(cfg);
  CopilotReference ref(cfg);
  const auto un = static_cast<std::size_t>(n);
  Rng rng(seed);
  Matrix t(un, un);
  for (std::size_t c = 0; c < un; ++c) {
    const auto col = rng.dirichlet(un, alpha);
    for (std::size_t r = 0; r < un; ++r) t(r, c) = col[r];
  }
  const int observations = 2 * resolve_every;  // two solves
  for (int i = 0; i < observations; ++i) {
    auto x = rng.dirichlet(un, alpha);
    for (std::size_t e = seed % 5; e < un; e += 5) x[e] = 0.0;
    auto y = t.mul(x);
    for (std::size_t e = seed % 5; e < un; e += 5) y[e] = 0.0;
    fast.observe(x, y);
    ref.observe(x, y);
    const auto& a = fast.transition().data();
    const auto& b = ref.transition().data();
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
        << "after observation " << i;
  }
}

// The reference costs n^3 per gradient step (about 50x more under the
// sanitizer build), so the larger sizes take fewer combinations and the
// largest fewer steps.
TEST(CopilotOracle, BitIdenticalAt8Experts) {
  for (int re : {1, 4, 64})
    for (double alpha : {0.05, 0.5})
      for (std::uint64_t seed : {1, 2, 3}) expect_bit_identical(8, re, alpha, seed);
}

TEST(CopilotOracle, BitIdenticalAt64Experts) {
  std::uint64_t seed = 10;
  for (int re : {1, 4, 64})
    for (double alpha : {0.05, 0.5}) expect_bit_identical(64, re, alpha, ++seed);
}

TEST(CopilotOracle, BitIdenticalAt256Experts) {
  expect_bit_identical(256, 1, 0.05, 21, /*gd_steps=*/4);
  expect_bit_identical(256, 64, 0.5, 22, /*gd_steps=*/4);
}

// --------------------------------------------------------------- top-k ----

TEST(TopK, ExactMatch) {
  const std::vector<double> a = {0.5, 0.3, 0.1, 0.1};
  EXPECT_DOUBLE_EQ(top_k_accuracy(a, a, 2), 1.0);
}

TEST(TopK, Disjoint) {
  const std::vector<double> pred = {1.0, 0.9, 0.0, 0.0};
  const std::vector<double> act = {0.0, 0.0, 1.0, 0.9};
  EXPECT_DOUBLE_EQ(top_k_accuracy(pred, act, 2), 0.0);
}

TEST(TopK, PartialOverlap) {
  const std::vector<double> pred = {1.0, 0.9, 0.0, 0.0};
  const std::vector<double> act = {1.0, 0.0, 0.9, 0.0};
  EXPECT_DOUBLE_EQ(top_k_accuracy(pred, act, 2), 0.5);
}

// ------------------------------------------- Fig. 19 ordering property ----

TEST(Fig19, CopilotBeatsUnchangedBeatsRandom) {
  // Evaluate on gate-simulator traces: predict layer l+1 load from layer l.
  moe::GateConfig g;
  g.n_experts = 8;
  g.n_layers = 3;
  g.ep_ranks = 8;
  g.tokens_per_rank = 4096;
  g.seed = 2024;
  moe::GateSimulator gate(g);
  Copilot cp(small_cfg(8));
  Rng rng(77);

  double acc_cp = 0.0, acc_unchanged = 0.0, acc_random = 0.0;
  int evals = 0;
  for (int iter = 0; iter < 120; ++iter) {
    gate.step();
    const auto& x = gate.expert_load(1);
    const auto& y = gate.expert_load(2);
    if (iter >= 20) {  // warm-up
      const int k = 2;
      acc_cp += top_k_accuracy(cp.predict(x), y, k);
      acc_unchanged += top_k_accuracy(x, y, k);
      acc_random += top_k_accuracy(random_prediction(8, rng), y, k);
      ++evals;
    }
    cp.observe(x, y);
  }
  acc_cp /= evals;
  acc_unchanged /= evals;
  acc_random /= evals;
  EXPECT_GT(acc_cp, acc_unchanged);
  EXPECT_GT(acc_cp, acc_random + 0.15);
  EXPECT_GT(acc_cp, 0.5);
}

}  // namespace
}  // namespace mixnet::predict
