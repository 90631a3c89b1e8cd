#include "moe/gate.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/simd_math.h"
#include "common/stats.h"

namespace mixnet::moe {

namespace {

/// Per-iteration retention of the popularity logit walk (OU mean reversion;
/// see advance_state).
constexpr double kPopularityRetention = 0.985;

void normalize(std::vector<double>& v) { normalize_span(v.data(), v.size()); }

}  // namespace

GateSimulator::GateSimulator(const GateConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed, cfg.rng_mode) {
  assert(cfg_.n_experts >= cfg_.ep_ranks || cfg_.n_experts > 0);

  logits_.resize(static_cast<std::size_t>(cfg_.n_experts));
  for (auto& z : logits_) z = rng_.normal(0.0, 1.0);

  // Column-stochastic transition matrices, one per layer boundary. One bulk
  // gamma fill per layer; each E-sized chunk normalizes into one source
  // column's Dirichlet sample (sequence-identical to per-column
  // rng_.dirichlet in sequential mode, and the constructor's dominant cost
  // for the 256-expert models without the bulk path).
  const auto E0 = static_cast<std::size_t>(cfg_.n_experts);
  transitions_.reserve(static_cast<std::size_t>(cfg_.n_layers));
  transitions_.emplace_back();  // layer 0 has no predecessor
  for (int l = 1; l < cfg_.n_layers; ++l) {
    Matrix m(E0, E0);
    gamma_scratch_.resize(E0 * E0);
    rng_.fill_gamma(gamma_scratch_.data(), E0 * E0, cfg_.transition_alpha);
    for (int src = 0; src < cfg_.n_experts; ++src) {
      double* col = gamma_scratch_.data() + static_cast<std::size_t>(src) * E0;
      normalize_span(col, E0);
      for (int dst = 0; dst < cfg_.n_experts; ++dst)
        m(static_cast<std::size_t>(dst), static_cast<std::size_t>(src)) =
            col[static_cast<std::size_t>(dst)];
    }
    transitions_.push_back(std::move(m));
  }

  // Sparse per-(rank, layer) preferences: a rank's token shard shares
  // domain/semantics, so it prefers a few experts at *every* layer. This is
  // what keeps the all-to-all matrix non-uniform even after the
  // load-balancing loss flattens the aggregate expert loads (Fig. 4b
  // persists while Fig. 4a converges -- the DeepSeek-V3 observation in §3).
  // Preferences follow an OU random walk in logit space so the hot pairs
  // *move* over training -- the temporal dynamics that one-shot topologies
  // (TopoOpt) cannot follow.
  const double pref_sd =
      cfg_.pref_drift_sigma /
      std::sqrt(std::max(1.0 - cfg_.pref_retention * cfg_.pref_retention, 1e-6));
  pref_logits_.resize(static_cast<std::size_t>(cfg_.ep_ranks) *
                      static_cast<std::size_t>(cfg_.n_layers));
  for (auto& z : pref_logits_) {
    z.resize(static_cast<std::size_t>(cfg_.n_experts));
    for (auto& v : z) v = rng_.normal(0.0, pref_sd);
  }

  q_.assign(static_cast<std::size_t>(cfg_.ep_ranks),
            std::vector<double>(static_cast<std::size_t>(cfg_.n_experts)));
  q_prev_ = q_;
  load_.assign(static_cast<std::size_t>(cfg_.n_layers),
               std::vector<double>(static_cast<std::size_t>(cfg_.n_experts)));
  counts_.assign(static_cast<std::size_t>(cfg_.n_layers),
                 Matrix(static_cast<std::size_t>(cfg_.ep_ranks),
                        static_cast<std::size_t>(cfg_.n_experts)));
  realize();
}

double GateSimulator::lb_mix() const {
  return cfg_.lb_final * (1.0 - std::exp(-static_cast<double>(iter_) / cfg_.lb_timescale));
}

void GateSimulator::skip(int n) {
  for (int i = 0; i < n - 1; ++i) {
    ++iter_;
    advance_state();
  }
  if (n > 0) step();
}

void GateSimulator::step() {
  ++iter_;
  advance_state();
  realize();
}

void GateSimulator::rank_pref(std::size_t k, double* p) const {
  const auto& z = pref_logits_[k];
  if (rng_.mode() == Rng::Mode::kVectorized) {
    vecmath::exp_block(z.data(), p, z.size());
  } else {
    // Sequential mode must reproduce pre-vectorization outputs bit-for-bit;
    // the libmvec exp can differ from std::exp in the last ulp.
    for (std::size_t e = 0; e < z.size(); ++e) p[e] = std::exp(z[e]);
  }
  normalize_span(p, z.size());
}

void GateSimulator::apply_ou_update(double pop_a, double pop_sd, double pref_a,
                                    double pref_sd) {
  // All of one update's walk draws -- popularity plus every (rank, layer)
  // preference vector -- come from ONE bulk fill_normal (in sequential mode
  // that concatenation is draw-for-draw identical to the historical
  // per-vector fills), and the OU update is a single fused pass over the
  // scratch.
  const std::size_t E = logits_.size();
  normal_scratch_.resize(E + pref_logits_.size() * E);
  rng_.fill_normal(normal_scratch_.data(), normal_scratch_.size());
  const double* eps = normal_scratch_.data();
  for (std::size_t e = 0; e < E; ++e)
    logits_[e] = pop_a * logits_[e] + pop_sd * eps[e];
  eps += E;
  for (std::size_t k = 0; k < pref_logits_.size(); ++k, eps += E) {
    auto& z = pref_logits_[k];
    for (std::size_t e = 0; e < E; ++e) z[e] = pref_a * z[e] + pref_sd * eps[e];
  }
}

void GateSimulator::advance_state() {
  // Popularity random walk with mean reversion (Ornstein-Uhlenbeck): the
  // walk keeps expert popularity moving between iterations (Fig. 4a) while
  // the pull toward 0 keeps its stationary spread bounded, so the
  // load-balancing mix can actually flatten the distribution over training
  // instead of racing a diverging walk. Preference drift: hot (rank, expert)
  // affinities wander on a ~50-iteration timescale while staying sparse (OU
  // stationary spread).
  apply_ou_update(kPopularityRetention, cfg_.drift_sigma, cfg_.pref_retention,
                  cfg_.pref_drift_sigma);
  // Occasional transition drift so the Markov structure is non-stationary
  // but learnable within a prediction window.
  if (iter_ % 50 == 0) transition_drift();
}

void GateSimulator::transition_drift() {
  const auto E = static_cast<std::size_t>(cfg_.n_experts);
  gamma_scratch_.resize(E * E);
  for (int l = 1; l < cfg_.n_layers; ++l) {
    Matrix& m = transitions_[static_cast<std::size_t>(l)];
    // One bulk gamma fill per layer; each E-sized chunk normalizes into the
    // Dirichlet noise for one source column (sequence-identical to the
    // historical per-column rng_.dirichlet in sequential mode).
    rng_.fill_gamma(gamma_scratch_.data(), E * E, cfg_.transition_alpha);
    for (int src = 0; src < cfg_.n_experts; ++src) {
      double* noise = gamma_scratch_.data() + static_cast<std::size_t>(src) * E;
      normalize_span(noise, E);
      double col_sum = 0.0;
      for (int dst = 0; dst < cfg_.n_experts; ++dst) {
        auto& v = m(static_cast<std::size_t>(dst), static_cast<std::size_t>(src));
        v = 0.97 * v + 0.03 * noise[static_cast<std::size_t>(dst)];
        col_sum += v;
      }
      for (int dst = 0; dst < cfg_.n_experts; ++dst)
        m(static_cast<std::size_t>(dst), static_cast<std::size_t>(src)) /= col_sum;
    }
  }
}

void GateSimulator::advance_steps(int n) {
  if (n <= 0) return;
  // Exact discrete-time OU transition: for z' = a z + sigma eps iterated n
  // times, z_n | z_0 ~ N(a^n z_0, sigma^2 (1 - a^{2n}) / (1 - a^2)). One
  // draw per dimension replaces n per-iteration draws; the warmup
  // fast-forward this enables is the single biggest figure-bench saving
  // (the 100-iteration warmups dominated the gate's RNG volume).
  const auto moments = [n](double a, double sigma) {
    const double a2 = a * a;
    const double an = std::pow(a, n);
    const double var = std::abs(1.0 - a2) < 1e-12
                           ? sigma * sigma * n
                           : sigma * sigma * (1.0 - std::pow(a2, n)) / (1.0 - a2);
    return std::pair<double, double>(an, std::sqrt(var));
  };
  const auto [pop_an, pop_sd] = moments(kPopularityRetention, cfg_.drift_sigma);
  const auto [pref_an, pref_sd] =
      moments(cfg_.pref_retention, cfg_.pref_drift_sigma);
  apply_ou_update(pop_an, pop_sd, pref_an, pref_sd);
  // The every-50-iterations transition drift is not an OU walk (Dirichlet
  // noise mixed into column-stochastic matrices), so it has no closed-form
  // compression; apply it once per boundary the fast-forward crosses --
  // exactly the iterations k in (iter, iter+n] with k % 50 == 0.
  const int boundaries = (iter_ + n) / 50 - iter_ / 50;
  for (int b = 0; b < boundaries; ++b) transition_drift();
  iter_ += n;
  realize();
}

void GateSimulator::realize() {
  const auto E = static_cast<std::size_t>(cfg_.n_experts);
  const double mix = lb_mix();
  const double uniform = 1.0 / static_cast<double>(E);
  const double n = cfg_.tokens_per_rank;

  // One bulk fill for every (layer, rank, expert) Gaussian count draw of the
  // iteration (sequence-identical to the historical per-(layer, rank) fills
  // in sequential mode); the layers below consume it in order.
  normal_scratch_.resize(static_cast<std::size_t>(cfg_.n_layers) *
                         static_cast<std::size_t>(cfg_.ep_ranks) * E);
  rng_.fill_normal(normal_scratch_.data(), normal_scratch_.size());
  const double* eps = normal_scratch_.data();

  // Work buffers carved from one member scratch (this runs every step of the
  // figure-bench hot loop; no per-call allocation).
  dist_scratch_.resize(4 * E);
  double* pi0 = dist_scratch_.data();
  double* factor = pi0 + E;
  double* pref_pow_buf = factor + E;
  double* marginal = pref_pow_buf + E;

  // Layer-0 popularity from logits (softmax); the load-balancing loss acts
  // below via marginal flattening, not here.
  double zmax = logits_[0];
  for (double z : logits_) zmax = std::max(zmax, z);
  for (std::size_t e = 0; e < E; ++e) pi0[e] = std::exp(logits_[e] - zmax);
  normalize_span(pi0, E);

  // Personalization weights pref^gamma for every (rank, layer), from the
  // preference softmax: one block exp(gamma * log(pref)) pass in vectorized
  // mode, per-element std::pow in sequential mode (bit-compatible with the
  // historical outputs).
  const double gamma = cfg_.personalization;
  auto pref_pow_of = [&](int h, int l) -> const double* {
    const std::size_t k = static_cast<std::size_t>(l) *
                              static_cast<std::size_t>(cfg_.ep_ranks) +
                          static_cast<std::size_t>(h);
    double* out = pref_pow_buf;
    rank_pref(k, out);
    if (rng_.mode() == Rng::Mode::kVectorized) {
      for (std::size_t e = 0; e < E; ++e) out[e] = std::max(out[e], 1e-9);
      vecmath::pow_block(out, gamma, out, E);
    } else {
      for (std::size_t e = 0; e < E; ++e)
        out[e] = std::pow(std::max(out[e], 1e-9), gamma);
    }
    return out;
  };

  // Layer by layer: each layer's per-rank distributions depend only on the
  // layer before (a Markov chain), so two [rank][expert] buffers suffice.
  for (int l = 0; l < cfg_.n_layers; ++l) {
    if (l > 0) std::swap(q_, q_prev_);
    // Route: layer 0 from popularity, later layers through the transition
    // matrix from the previous layer, re-personalized at every layer.
    for (int h = 0; h < cfg_.ep_ranks; ++h) {
      auto& q = q_[static_cast<std::size_t>(h)];
      if (l == 0) {
        for (std::size_t e = 0; e < E; ++e) q[e] = pi0[e];
      } else {
        const Matrix& m = transitions_[static_cast<std::size_t>(l)];
        const auto& prev = q_prev_[static_cast<std::size_t>(h)];
        if (rng_.mode() == Rng::Mode::kVectorized)
          vecmath::matvec_block(m.data().data(), prev.data(), q.data(), E, E);
        else
          m.mul_into(prev, q);
      }
      const double* pref_pow = pref_pow_of(h, l);
      for (std::size_t e = 0; e < E; ++e) q[e] *= pref_pow[e];
      normalize(q);
    }

    // Load-balancing loss model: experts converge toward equal *total*
    // token counts while each rank keeps its relative preferences -- a
    // fractional step of iterative proportional fitting toward uniform
    // column marginals. The flattening factor depends only on the layer
    // marginal, so it is computed once per layer and applied to every rank.
    std::fill(marginal, marginal + E, 0.0);
    for (const auto& q : q_)
      for (std::size_t e = 0; e < E; ++e) marginal[e] += q[e];
    normalize_span(marginal, E);
    for (std::size_t e = 0; e < E; ++e)
      factor[e] = std::pow(uniform / std::max(marginal[e], 1e-9), mix);
    for (auto& q : q_) {
      for (std::size_t e = 0; e < E; ++e) q[e] *= factor[e];
      normalize(q);
    }

    auto& load = load_[static_cast<std::size_t>(l)];
    std::fill(load.begin(), load.end(), 0.0);
    for (const auto& q : q_)
      for (std::size_t e = 0; e < E; ++e) load[e] += q[e];
    normalize(load);

    // Realized counts: a fused realize + clamp + renormalize pass.
    Matrix& c = counts_[static_cast<std::size_t>(l)];
    for (int h = 0; h < cfg_.ep_ranks; ++h, eps += E) {
      const auto& q = q_[static_cast<std::size_t>(h)];
      double total = 0.0;
      for (std::size_t e = 0; e < E; ++e) {
        const double meanv = n * q[e];
        const double var = n * q[e] * (1.0 - q[e]);
        double v = meanv + std::sqrt(std::max(var, 0.0)) * eps[e];
        v = std::max(v, 0.0);
        c(static_cast<std::size_t>(h), e) = v;
        total += v;
      }
      if (total > 0.0) {
        const double scale = n / total;
        for (std::size_t e = 0; e < E; ++e) c(static_cast<std::size_t>(h), e) *= scale;
      }
    }
  }
}

const std::vector<double>& GateSimulator::expert_load(int layer) const {
  return load_[static_cast<std::size_t>(layer)];
}

const Matrix& GateSimulator::dispatch_counts(int layer) const {
  return counts_[static_cast<std::size_t>(layer)];
}

Matrix GateSimulator::rank_dispatch_matrix(int layer, double bytes_per_slot) const {
  return moe::rank_dispatch_matrix(counts_[static_cast<std::size_t>(layer)],
                                   bytes_per_slot);
}

const Matrix& GateSimulator::transition(int layer) const {
  assert(layer >= 1);
  return transitions_[static_cast<std::size_t>(layer)];
}

Matrix rank_dispatch_matrix(const Matrix& counts, double bytes_per_slot) {
  const std::size_t R = counts.rows();
  const std::size_t E = counts.cols();
  Matrix t(R, R, 0.0);
  const std::size_t epr = std::max<std::size_t>(1, E / std::max<std::size_t>(R, 1));
  for (std::size_t h = 0; h < R; ++h) {
    for (std::size_t e = 0; e < E; ++e) {
      const std::size_t owner = std::min(e / epr, R - 1);
      t(h, owner) += counts(h, e) * bytes_per_slot;
    }
  }
  return t;
}

}  // namespace mixnet::moe
