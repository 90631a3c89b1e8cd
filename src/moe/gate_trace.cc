#include "moe/gate_trace.h"

#include <stdexcept>

namespace mixnet::moe {

void canonicalize_gate(const GateConfig& gc, CanonicalWriter& w) {
  w.field("gate.n_experts", gc.n_experts);
  w.field("gate.n_layers", gc.n_layers);
  w.field("gate.ep_ranks", gc.ep_ranks);
  w.field("gate.tokens_per_rank", gc.tokens_per_rank);
  w.field("gate.dirichlet_alpha", gc.dirichlet_alpha);
  w.field("gate.transition_alpha", gc.transition_alpha);
  w.field("gate.personalization", gc.personalization);
  w.field("gate.drift_sigma", gc.drift_sigma);
  w.field("gate.pref_drift_sigma", gc.pref_drift_sigma);
  w.field("gate.pref_retention", gc.pref_retention);
  w.field("gate.lb_final", gc.lb_final);
  w.field("gate.lb_timescale", gc.lb_timescale);
  w.field("gate.seed", gc.seed);
  w.field("gate.rng_mode", static_cast<int>(gc.rng_mode));
}

std::string gate_trace_key(const GateConfig& gate, int warmup) {
  CanonicalWriter w;
  canonicalize_gate(gate, w);
  w.field("warmup", warmup);
  return w.digest_hex();
}

GateTrace::GateTrace(const GateConfig& gate, int warmup, int stage_layers,
                     int horizon)
    : stage_layers_(stage_layers),
      horizon_(horizon),
      key_(gate_trace_key(gate, warmup)),
      gen_(std::make_unique<GateSimulator>(gate)) {
  if (stage_layers_ < 1 || stage_layers_ > gate.n_layers)
    throw std::invalid_argument("GateTrace: stage_layers out of range");
  initial_.reserve(static_cast<std::size_t>(gate.n_layers));
  for (int l = 0; l < gate.n_layers; ++l)
    initial_.push_back(gen_->dispatch_counts(l));
  gen_->advance_steps(warmup);
  if (horizon_ == 0) gen_.reset();
}

const Matrix& GateTrace::initial_counts(int layer) const {
  return initial_[static_cast<std::size_t>(layer)];
}

const GateTrace::Iteration& GateTrace::iteration(int i) {
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(records_.size()) <= i) {
    if (!gen_)
      throw std::logic_error("GateTrace: iteration " + std::to_string(i) +
                             " is past the trace's horizon");
    gen_->step();
    Iteration it;
    it.counts.reserve(static_cast<std::size_t>(stage_layers_));
    it.load.reserve(static_cast<std::size_t>(stage_layers_));
    for (int l = 0; l < stage_layers_; ++l) {
      it.counts.push_back(gen_->dispatch_counts(l));
      it.load.push_back(gen_->expert_load(l));
    }
    records_.push_back(std::move(it));
    if (static_cast<int>(records_.size()) == horizon_) gen_.reset();
  }
  return records_[static_cast<std::size_t>(i)];
}

bool GateTrace::generating() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gen_ != nullptr;
}

}  // namespace mixnet::moe
