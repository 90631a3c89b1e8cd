// Gate simulator: the production-trace substitute (DESIGN.md §2).
//
// Generates per-iteration, per-layer token-to-expert routing with the three
// statistical properties the paper measures on a production cluster (§3):
//
//   1. temporal dynamics  -- expert popularity follows a logit random walk,
//      with a load-balancing-loss pull toward uniform that strengthens as
//      training progresses (Fig. 4a: variability decreases over time);
//   2. spatial non-uniformity -- popularity is Dirichlet-sparse and each
//      token home rank has a personalized preference mix, so all-to-all
//      matrices have hot rows *and* columns (Fig. 4b);
//   3. inter-layer structure -- expert choice at layer l+1 is Markov in the
//      choice at layer l (column-stochastic transition matrix per layer),
//      which is exactly the structure MixNet-Copilot (§B.1) exploits.
//
// Token counts are realized with a Gaussian approximation of the multinomial
// (exact for the >10^3 tokens per rank used everywhere), clipped and
// renormalized so per-rank totals are preserved.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"

namespace mixnet::moe {

struct GateConfig {
  int n_experts = 8;
  int n_layers = 4;
  int ep_ranks = 8;            ///< token home ranks (== EP degree)
  double tokens_per_rank = 4096.0;  ///< token*top_k slots dispatched per rank
  double dirichlet_alpha = 0.25;    ///< popularity sparsity (lower = sparser)
  double transition_alpha = 0.08;   ///< Markov column concentration
  double personalization = 0.75;    ///< per-rank preference strength [0,1]
  double drift_sigma = 0.06;        ///< per-iteration popularity logit walk
  double pref_drift_sigma = 0.44;   ///< per-iteration preference logit walk
  double pref_retention = 0.98;     ///< OU mean reversion of preferences
  double lb_final = 0.45;           ///< asymptotic load-balancing mix [0,1]
  double lb_timescale = 2000.0;     ///< iterations to approach lb_final
  std::uint64_t seed = 42;
  /// Draw-sequence mode of the gate's Rng. kVectorized is the fast path the
  /// figure benches run (shapes re-validated in EXPERIMENTS.md);
  /// kSequential reproduces the pre-vectorization draw sequences for pinned
  /// regression tests.
  Rng::Mode rng_mode = Rng::Mode::kVectorized;
};

class GateSimulator {
 public:
  explicit GateSimulator(const GateConfig& cfg);

  /// Advance one training iteration (re-samples routing).
  void step();

  /// Advance `n` iterations step by step: the stochastic state (popularity,
  /// preferences, transitions) moves forward one draw per step, and
  /// distributions and counts are only materialized on the last step. This
  /// is the stepped reference for the closed-form law tests of
  /// advance_steps(); simulators warm up with advance_steps().
  void skip(int n);

  /// Fast-forward `n` iterations in closed form: the popularity and
  /// preference OU walks are sampled directly from the exact n-step
  /// discrete-time OU transition distribution
  ///   z_n ~ N(a^n z_0, sigma^2 (1 - a^{2n}) / (1 - a^2)),
  /// one normal draw per dimension instead of n, and the every-50-iteration
  /// transition drift is applied once per crossed boundary. Lands on the
  /// same iteration count with the same state *law* as skip(n) but a
  /// different sample path; distributions and counts are materialized once
  /// at the end. Simulators warm up past the planning snapshot with this.
  void advance_steps(int n);

  int iteration() const { return iter_; }
  const GateConfig& config() const { return cfg_; }

  /// Normalized expert load for a layer (sums to 1).
  const std::vector<double>& expert_load(int layer) const;

  /// Realized dispatch counts: rows = home rank, cols = expert (token slots).
  const Matrix& dispatch_counts(int layer) const;

  /// EP-rank dispatch all-to-all bytes of a layer:
  /// moe::rank_dispatch_matrix(dispatch_counts(layer), bytes_per_slot).
  Matrix rank_dispatch_matrix(int layer, double bytes_per_slot) const;

  /// Ground-truth inter-layer transition matrix (column-stochastic),
  /// mapping layer `layer-1` loads to layer `layer` loads. For tests and
  /// Copilot oracle comparisons.
  const Matrix& transition(int layer) const;

  /// Current load-balancing mixing coefficient (0 early, -> lb_final).
  double lb_mix() const;

  /// Layer-0 popularity logits (the OU-walk state advance_steps fast-
  /// forwards); exposed for the closed-form-vs-stepped distribution tests.
  const std::vector<double>& popularity_logits() const { return logits_; }

  /// Preference logits of one (rank, layer) OU walk (test accessor).
  const std::vector<double>& preference_logits(int rank, int layer) const {
    return pref_logits_[static_cast<std::size_t>(layer) *
                            static_cast<std::size_t>(cfg_.ep_ranks) +
                        static_cast<std::size_t>(rank)];
  }

 private:
  void advance_state();
  /// Shared OU-walk update of popularity + every preference vector: one bulk
  /// fill_normal over all dimensions, then z = a z + sd eps per walk. Called
  /// with the per-iteration coefficients by advance_state and with the
  /// n-step transition moments by advance_steps.
  void apply_ou_update(double pop_a, double pop_sd, double pref_a,
                       double pref_sd);
  void transition_drift();
  /// Materialize the current state: per-rank expert distributions, loads
  /// and realized counts of every layer.
  void realize();
  /// Preference weights of (rank, layer) walk `k` (softmax of its logits)
  /// into `p` (n_experts entries).
  void rank_pref(std::size_t k, double* p) const;

  GateConfig cfg_;
  Rng rng_;
  int iter_ = 0;
  std::vector<double> logits_;                 // layer-0 popularity logits
  std::vector<Matrix> transitions_;            // per layer >= 1
  // Per (layer, rank) preference logits (OU process).
  std::vector<std::vector<double>> pref_logits_;
  // Per home rank expert distribution of the layer realize() is on and of
  // the one before it; per layer: loads, realized counts.
  std::vector<std::vector<double>> q_, q_prev_;      // [rank][expert]
  std::vector<std::vector<double>> load_;            // [layer][expert]
  std::vector<Matrix> counts_;                       // [layer] (rank x expert)
  std::vector<double> normal_scratch_;               // bulk fill_normal buffer
  std::vector<double> gamma_scratch_;                // bulk fill_gamma buffer
  std::vector<double> dist_scratch_;  // realize() work buffers
};

/// EP-rank all-to-all bytes of a dispatch-count matrix (rows = home rank,
/// cols = expert): entry (src_rank, dst_rank) for the dispatch all-to-all.
/// Each rank owns max(1, experts / ranks) experts contiguously (any
/// remainder goes to the last rank); `bytes_per_slot` is hidden*dtype
/// bytes. The combine all-to-all is this matrix transposed (§5.1).
Matrix rank_dispatch_matrix(const Matrix& counts, double bytes_per_slot);

}  // namespace mixnet::moe
