#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common/json.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"

namespace mixnet {
namespace {

// ---------------------------------------------------------------- units ----

TEST(Units, GbpsConversionRoundTrips) {
  EXPECT_DOUBLE_EQ(to_gbps(gbps(100.0)), 100.0);
  EXPECT_DOUBLE_EQ(to_gbps(gbps(400.0)), 400.0);
  EXPECT_DOUBLE_EQ(gbps(8.0), 1e9);  // 8 Gbps == 1 GB/s
}

TEST(Units, TimeConversions) {
  EXPECT_EQ(ms_to_ns(25.0), 25'000'000);
  EXPECT_EQ(us_to_ns(1.0), 1'000);
  EXPECT_EQ(sec_to_ns(1.0), 1'000'000'000);
  EXPECT_DOUBLE_EQ(ns_to_ms(ms_to_ns(41.5)), 41.5);
}

TEST(Units, TransmissionTimeBasics) {
  // 1 MB at 1 GB/s => 1 ms (binary MiB => slightly more).
  EXPECT_NEAR(static_cast<double>(transmission_time(1e6, 1e9)), 1e6, 1.0);
  EXPECT_EQ(transmission_time(100.0, 0.0), kTimeInf);
  EXPECT_GE(transmission_time(1e-9, 1e12), 1);  // never zero
}

TEST(Units, TransmissionTimeMonotoneInSize) {
  const Bps rate = gbps(100.0);
  TimeNs prev = 0;
  for (double b = 1e3; b <= 1e9; b *= 10) {
    const TimeNs t = transmission_time(b, rate);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounded) {
  Rng r(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[r.uniform_int(10)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(Rng, NormalMoments) {
  Rng r(11);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = r.normal(3.0, 2.0);
  EXPECT_NEAR(mean(xs), 3.0, 0.05);
  EXPECT_NEAR(stddev(xs), 2.0, 0.05);
}

// In Mode::kSequential the bulk entry point must keep producing the exact
// per-call normal() sequence -- this is the mode pinned tests and historical
// figure outputs rely on (per-call draws are mode-independent).
TEST(Rng, SequentialFillNormalMatchesSequentialDraws) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{3}, std::size_t{7}, std::size_t{64},
                        std::size_t{101}}) {
    Rng a(123), b(123, Rng::Mode::kSequential);
    std::vector<double> seq(n), bulk(n);
    for (auto& v : seq) v = a.normal();
    b.fill_normal(bulk.data(), n);
    EXPECT_EQ(seq, bulk) << "n=" << n;
    // Both streams remain aligned afterwards (cache state included).
    for (int k = 0; k < 3; ++k) EXPECT_EQ(a.normal(), b.normal());
  }
}

TEST(Rng, SequentialFillNormalConsumesPendingCachedDeviate) {
  Rng a(9), b(9, Rng::Mode::kSequential);
  ASSERT_EQ(a.normal(), b.normal());  // both now hold a cached second deviate
  std::vector<double> seq(5), bulk(5);
  for (auto& v : seq) v = a.normal();
  b.fill_normal(bulk.data(), bulk.size());
  EXPECT_EQ(seq, bulk);
  EXPECT_EQ(a.uniform(), b.uniform());
}

// Pinned pre-vectorization draw sequence (bit patterns captured from the
// implementation before Rng::Mode existed). If this test fails, sequential
// mode no longer reproduces historical figure inputs -- that is a breaking
// change, not a tolerance issue.
TEST(Rng, SequentialFillNormalPinnedSequence) {
  const std::uint64_t expected[8] = {
      0x3ffc5417e416c000ULL,  //  1.7705305967065215
      0xbfd5ee7a48a2e6e4ULL,  // -0.34268052190200948
      0x3feb8e4b29faa8d0ULL,  //  0.8611198253541037
      0x3fec40614a86cbbaULL,  //  0.88285889202085532
      0x3ff792c61e4765e4ULL,  //  1.4733334715623352
      0xbf4c224309e4157cULL,  // -0.00085857652064251456
      0xbfe8b50eb1756e93ULL,  // -0.77210173282533601
      0xbff296bc20bb0e0aULL,  // -1.1618005064527801
  };
  Rng r(123, Rng::Mode::kSequential);
  double buf[8];
  r.fill_normal(buf, 8);
  for (int i = 0; i < 8; ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, &buf[i], sizeof(bits));
    EXPECT_EQ(bits, expected[i]) << "draw " << i;
  }
}

// Pinned sequential gamma/dirichlet draws (captured pre-vectorization):
// fill_gamma in sequential mode must equal per-call gamma(), and the
// per-call paths themselves must stay put.
TEST(Rng, SequentialGammaAndDirichletPinned) {
  {
    Rng a(77), b(77, Rng::Mode::kSequential);
    double bulk[4];
    b.fill_gamma(bulk, 4, 0.25);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(a.gamma(0.25), bulk[i]) << i;
    EXPECT_DOUBLE_EQ(bulk[0], 0.012062086402207709);
    EXPECT_DOUBLE_EQ(bulk[3], 0.85614784292842494);
  }
  {
    Rng a(77), b(77, Rng::Mode::kSequential);
    const auto v = a.dirichlet(6, 0.08);
    double bulk[6];
    b.fill_dirichlet(bulk, 6, 0.08);
    for (int i = 0; i < 6; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], bulk[i]) << i;
    EXPECT_DOUBLE_EQ(bulk[3], 0.99858319444417454);
  }
}

// The vectorized fast path owns a different draw sequence (that is the
// point: block Box-Muller instead of pair-at-a-time), but must stay a
// standard normal sampler. Moments over a large batch.
TEST(Rng, VectorizedFillNormalMoments) {
  Rng r(11, Rng::Mode::kVectorized);
  std::vector<double> xs(200000);
  r.fill_normal(xs.data(), xs.size());
  EXPECT_NEAR(mean(xs), 0.0, 0.01);
  EXPECT_NEAR(stddev(xs), 1.0, 0.01);
  double skew = 0.0, kurt = 0.0;
  for (double x : xs) {
    skew += x * x * x;
    kurt += x * x * x * x;
  }
  skew /= static_cast<double>(xs.size());
  kurt /= static_cast<double>(xs.size());
  EXPECT_NEAR(skew, 0.0, 0.05);
  EXPECT_NEAR(kurt, 3.0, 0.1);
}

TEST(Rng, VectorizedFillNormalHandlesOddSizesAndCache) {
  // Odd-length fills leave a cached second deviate exactly like normal();
  // back-to-back fills of awkward sizes consume the same uniform stream as
  // one big fill and produce the same values up to SIMD lane-vs-epilogue
  // rounding (the same element can land in a vector lane in one split and
  // the scalar remainder loop in another).
  Rng a(5, Rng::Mode::kVectorized), b(5, Rng::Mode::kVectorized);
  std::vector<double> one(1037), parts(1037);
  a.fill_normal(one.data(), one.size());
  b.fill_normal(parts.data(), 1);
  b.fill_normal(parts.data() + 1, 511);
  b.fill_normal(parts.data() + 512, 2);
  b.fill_normal(parts.data() + 514, 523);
  for (std::size_t i = 0; i < one.size(); ++i)
    EXPECT_NEAR(one[i], parts[i], 1e-9) << "i=" << i;
  // The underlying generator state is exactly aligned afterwards.
  EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, VectorizedFillGammaMoments) {
  // Gamma(k, 1) has mean k and variance k. Cover the shape-boost branch
  // (k < 1, the transition-drift concentration 0.08) and the direct branch.
  for (double shape : {0.08, 0.25, 1.0, 3.5}) {
    Rng r(29, Rng::Mode::kVectorized);
    std::vector<double> xs(400000);
    r.fill_gamma(xs.data(), xs.size(), shape);
    double m = mean(xs);
    double var = 0.0;
    for (double x : xs) var += (x - m) * (x - m);
    var /= static_cast<double>(xs.size());
    EXPECT_NEAR(m, shape, 0.05 * std::max(shape, 0.2)) << "shape=" << shape;
    EXPECT_NEAR(var, shape, 0.08 * std::max(shape, 0.2)) << "shape=" << shape;
  }
}

TEST(Rng, VectorizedFillDirichletNormalized) {
  Rng r(31, Rng::Mode::kVectorized);
  std::vector<double> v(256);
  r.fill_dirichlet(v.data(), v.size(), 0.08);
  double s = 0.0;
  for (double x : v) {
    EXPECT_GE(x, 0.0);
    s += x;
  }
  EXPECT_NEAR(s, 1.0, 1e-9);
}

TEST(Rng, ForkInheritsMode) {
  Rng seq(3, Rng::Mode::kSequential);
  Rng vec(3, Rng::Mode::kVectorized);
  EXPECT_EQ(seq.fork().mode(), Rng::Mode::kSequential);
  EXPECT_EQ(vec.fork().mode(), Rng::Mode::kVectorized);
}

TEST(Rng, DirichletSumsToOne) {
  Rng r(13);
  for (double alpha : {0.1, 0.5, 1.0, 5.0}) {
    auto v = r.dirichlet(16, alpha);
    double s = 0.0;
    for (double x : v) {
      EXPECT_GE(x, 0.0);
      s += x;
    }
    EXPECT_NEAR(s, 1.0, 1e-9);
  }
}

TEST(Rng, DirichletSparsityIncreasesAsAlphaDrops) {
  Rng r(17);
  auto peakiness = [&](double alpha) {
    double acc = 0.0;
    for (int i = 0; i < 200; ++i) {
      auto v = r.dirichlet(8, alpha);
      acc += *std::max_element(v.begin(), v.end());
    }
    return acc / 200.0;
  };
  EXPECT_GT(peakiness(0.1), peakiness(5.0));
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng r(19);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[r.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(Rng, ExponentialMean) {
  Rng r(23);
  std::vector<double> xs(40000);
  for (auto& x : xs) x = r.exponential(2.0);
  EXPECT_NEAR(mean(xs), 0.5, 0.02);
}

TEST(Rng, GammaMeanMatchesShape) {
  Rng r(29);
  for (double k : {0.5, 1.0, 4.0}) {
    std::vector<double> xs(30000);
    for (auto& x : xs) x = r.gamma(k);
    EXPECT_NEAR(mean(xs), k, 0.1 * std::max(k, 1.0));
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.fork();
  // The child must not replay the parent's sequence.
  Rng b(31);
  (void)b.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (child() == b()) ++same;
  EXPECT_LT(same, 2);
}

// --------------------------------------------------------------- matrix ----

TEST(Matrix, BasicAccessAndSum) {
  Matrix m(2, 3, 1.0);
  m(1, 2) = 4.0;
  EXPECT_DOUBLE_EQ(m.sum(), 5.0 + 4.0);
  EXPECT_DOUBLE_EQ(m.row_sum(1), 1.0 + 1.0 + 4.0);
  EXPECT_DOUBLE_EQ(m.col_sum(2), 1.0 + 4.0);
  EXPECT_DOUBLE_EQ(m.max(), 4.0);
}

TEST(Matrix, IdentityMul) {
  Matrix id = Matrix::identity(4);
  std::vector<double> x = {1, 2, 3, 4};
  EXPECT_EQ(id.mul(x), x);
}

TEST(Matrix, TransposeInvolution) {
  Matrix m(3, 2);
  m(0, 1) = 5.0;
  m(2, 0) = -1.0;
  EXPECT_TRUE(m.transposed().transposed() == m);
  EXPECT_DOUBLE_EQ(m.transposed()(1, 0), 5.0);
}

// ---------------------------------------------------------------- stats ----

TEST(Stats, MeanVariance) {
  std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 50);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 30);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 20);
}

TEST(Stats, JainFairness) {
  EXPECT_DOUBLE_EQ(jain_fairness({1, 1, 1, 1}), 1.0);
  EXPECT_NEAR(jain_fairness({1, 0, 0, 0}), 0.25, 1e-12);
}

TEST(Stats, EmpiricalCdfMonotone) {
  std::vector<double> xs;
  Rng r(37);
  for (int i = 0; i < 1000; ++i) xs.push_back(r.uniform());
  auto cdf = empirical_cdf(xs, 21);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].value, cdf[i].value);
    EXPECT_LE(cdf[i - 1].probability, cdf[i].probability);
  }
}

TEST(Stats, CoeffOfVariationZeroForConstant) {
  EXPECT_DOUBLE_EQ(coeff_of_variation({5, 5, 5}), 0.0);
  EXPECT_GT(coeff_of_variation({1, 9}), 0.5);
}

// ----------------------------------------------------------------- json ----

std::string nested(const char* open, const char* close, int depth) {
  std::string s;
  for (int i = 0; i < depth; ++i) s += open;
  s += "1";
  for (int i = 0; i < depth; ++i) s += close;
  return s;
}

TEST(Json, NestingPastTheLimitIsRejectedNotACrash) {
  // A cache line of a million '[' used to recurse until the stack ran out.
  EXPECT_FALSE(json::parse(std::string(1'000'000, '[')).has_value());
  EXPECT_FALSE(json::parse(std::string(1'000'000, '[') + "1" +
                           std::string(1'000'000, ']'))
                   .has_value());
  // The limit is exact, for arrays and objects alike.
  EXPECT_TRUE(json::parse(nested("[", "]", json::kMaxDepth)).has_value());
  EXPECT_FALSE(json::parse(nested("[", "]", json::kMaxDepth + 1)).has_value());
  EXPECT_TRUE(json::parse(nested("{\"a\":", "}", json::kMaxDepth)).has_value());
  EXPECT_FALSE(
      json::parse(nested("{\"a\":", "}", json::kMaxDepth + 1)).has_value());
}

TEST(Json, MalformedNumbersAreRejected) {
  // "3-9.04" used to parse as the token 3-9.04, which strtod reads as 3.
  for (const char* bad : {"3-9.04", "1.2.3", "--1", "-", "+1", ".5", "1.", "01",
                          "1e", "1e+", "1e5e5", "1-", "0x10", "1..2", "-.5"}) {
    EXPECT_FALSE(json::parse(bad).has_value()) << bad;
    const std::string member = std::string("{\"iter_sec\":") + bad + "}";
    EXPECT_FALSE(json::parse(member).has_value()) << member;
  }
}

TEST(Json, ValidNumberFormsRoundTripBitExactly) {
  // Every %.17g form the cache writes, including negative exponents.
  for (const double v : {0.1 + 0.2, 39.05, -1.196, 1.5e-7, -2.5e-05, 1e-300,
                         5e-324, 1.7976931348623157e308, 1e21, 0.0, -0.0}) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    const auto doc = json::parse(buf);
    ASSERT_TRUE(doc.has_value()) << buf;
    ASSERT_TRUE(doc->is_number()) << buf;
    const double back = doc->as_double();
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << buf;
  }
  for (const char* ok : {"0", "-0", "7", "1E5", "1e+5", "2.5E-3", "-0.0e0"})
    EXPECT_TRUE(json::parse(ok).has_value()) << ok;
  // int64 and uint64 extremes keep their raw token, so they survive exactly.
  const auto max = json::parse("9223372036854775807");
  const auto min = json::parse("-9223372036854775808");
  const auto umax = json::parse("18446744073709551615");
  ASSERT_TRUE(max && min && umax);
  EXPECT_EQ(max->as_i64(), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(min->as_i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(umax->as_u64(), std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace mixnet
