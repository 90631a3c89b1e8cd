// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the repo (gate simulator, failure injection,
// hardware latency models) takes an explicit Rng so that a seed fully
// determines an experiment. The generator is xoshiro256**, seeded via
// SplitMix64, matching the reference implementations by Blackman & Vigna.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace mixnet {

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Draw-sequence mode for the bulk fill_* entry points. Per-call draws
  /// (normal(), gamma(), dirichlet(), ...) use the same mode-independent
  /// code and produce the historical sequences as long as they are not
  /// interleaved with vectorized fill_* calls on the same instance — a
  /// vectorized fill consumes the uniform stream in block order and can
  /// leave a block-path cached deviate, shifting every draw after it.
  enum class Mode {
    /// fill_*(n) produces the exact sequence `n` per-call draws would,
    /// including the Box-Muller cached-deviate handling. This is the
    /// pre-vectorization behavior; pinned-sequence tests and any consumer
    /// that must reproduce historical figure outputs use it.
    kSequential,
    /// fill_* runs the block fast path (batched Box-Muller / batched
    /// Marsaglia-Tsang over simd_math.h kernels). Consumes the same
    /// underlying uniform stream but in a different draw order, so bulk
    /// sequences differ from sequential mode; figure shapes were
    /// re-validated against this mode (EXPERIMENTS.md).
    kVectorized,
  };

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL,
               Mode mode = Mode::kVectorized)
      : mode_(mode) {
    reseed(seed);
  }

  // Mode is constructor state on purpose: switching mid-stream would leave a
  // vectorized cached deviate / stream position that the sequential mode's
  // bit-exactness guarantee cannot honor.
  Mode mode() const { return mode_; }

  /// Re-initialise the state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return UINT64_MAX; }

  result_type operator()() { return next(); }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) for n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal via Box-Muller (cached second deviate).
  double normal();

  /// Fill `out[0..n)` with standard normals. Bulk entry point for the hot
  /// OU walks in the gate simulator. In Mode::kSequential this produces the
  /// exact sequence that `n` successive normal() calls would (including
  /// consuming/leaving the cached second deviate); in Mode::kVectorized it
  /// runs the batched Box-Muller fast path (block uniforms -> one
  /// vectorizable transcendental pass, no per-pair branches).
  void fill_normal(double* out, std::size_t n);

  /// Fill `out[0..n)` with gamma(shape, 1) variates. Sequential mode matches
  /// `n` successive gamma(shape) calls; vectorized mode batches the
  /// Marsaglia-Tsang candidate generation (normals + uniforms drawn in
  /// blocks, acceptance evaluated branch-free, rejects re-drawn).
  void fill_gamma(double* out, std::size_t n, double shape);

  /// Fill `out[0..n)` with a Dirichlet(alpha, ..., alpha) sample (sums to
  /// 1). Bulk counterpart of dirichlet(n, alpha) built on fill_gamma.
  void fill_dirichlet(double* out, std::size_t n, double alpha);

  /// Normal with mean/stddev.
  double normal(double mean, double stddev);

  /// Log-normal with parameters of the underlying normal.
  double lognormal(double mu, double sigma);

  /// Exponential with given rate (lambda).
  double exponential(double rate);

  /// Marsaglia-Tsang gamma variate, shape k > 0, scale theta = 1.
  double gamma(double shape);

  /// Dirichlet sample of dimension n with common concentration alpha.
  std::vector<double> dirichlet(std::size_t n, double alpha);

  /// Dirichlet with per-component concentrations.
  std::vector<double> dirichlet(const std::vector<double>& alpha);

  /// Sample an index from an (unnormalised) non-negative weight vector.
  std::size_t categorical(const std::vector<double>& weights);

  /// Fork a statistically independent child stream (for per-component seeds).
  Rng fork();

 private:
  result_type next();

  void fill_normal_sequential(double* out, std::size_t n);
  void fill_normal_vectorized(double* out, std::size_t n);
  void fill_gamma_vectorized(double* out, std::size_t n, double shape);

  std::array<std::uint64_t, 4> state_{};
  Mode mode_ = Mode::kVectorized;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace mixnet
