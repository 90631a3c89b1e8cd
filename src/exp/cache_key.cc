#include "exp/cache_key.h"

namespace mixnet::exp {

void canonicalize_config(const sim::TrainingConfig& cfg, CanonicalWriter& w) {
  // Model. The name is included deliberately: model cards with identical
  // dimensions are still distinct artifacts in the figures.
  w.field("model.name", cfg.model.name);
  w.field("model.n_blocks", cfg.model.n_blocks);
  w.field("model.n_experts", cfg.model.n_experts);
  w.field("model.top_k", cfg.model.top_k);
  w.field("model.hidden_dim", cfg.model.hidden_dim);
  w.field("model.ffn_dim", cfg.model.ffn_dim);
  w.field("model.n_heads", cfg.model.n_heads);
  w.field("model.total_params_b", cfg.model.total_params_b);

  // Parallelism.
  w.field("par.ep", cfg.par.ep);
  w.field("par.tp", cfg.par.tp);
  w.field("par.pp", cfg.par.pp);
  w.field("par.dp", cfg.par.dp);
  w.field("par.seq_len", cfg.par.seq_len);
  w.field("par.micro_batch", cfg.par.micro_batch);
  w.field("par.n_microbatches", cfg.par.n_microbatches);
  w.field("par_overridden", cfg.par_overridden);

  // Fabric.
  w.field("fabric_kind", static_cast<int>(cfg.fabric_kind));
  w.field("core_model", static_cast<int>(cfg.core_model));
  w.field("nic_gbps", cfg.nic_gbps);
  w.field("nics_per_server", cfg.nics_per_server);
  w.field("gpus_per_server", cfg.gpus_per_server);
  w.field("eps_nics", cfg.eps_nics);
  w.field("optical_degree", cfg.optical_degree);
  w.field("oversub", cfg.oversub);
  w.field("nvlink_gbps_per_gpu", cfg.nvlink_gbps_per_gpu);
  w.field("ocs_nic_gbps", cfg.ocs_nic_gbps);

  // Compute and goodput calibration.
  w.field("compute.attention_tflops", cfg.compute.attention_tflops);
  w.field("compute.expert_tflops", cfg.compute.expert_tflops);
  w.field("compute.gate_tflops", cfg.compute.gate_tflops);
  w.field("compute.elementwise_tflops", cfg.compute.elementwise_tflops);
  w.field("compute.backward_factor", cfg.compute.backward_factor);
  w.field("a2a_efficiency", cfg.a2a_efficiency);
  w.field("ring_efficiency", cfg.ring_efficiency);
  w.field("switched_path_efficiency", cfg.switched_path_efficiency);

  // Control plane.
  w.field("reconfig_delay", static_cast<std::int64_t>(cfg.reconfig_delay));
  w.field("use_copilot", cfg.use_copilot);
  w.field("policy", static_cast<int>(cfg.policy));
  w.field("strict_paper_greedy", cfg.strict_paper_greedy);
  w.field("failure.kind", static_cast<int>(cfg.failure.kind));
  w.field("failure.server", cfg.failure.server);

  // Gate simulator. Structural fields (n_experts/layers/ranks/tokens) are
  // re-derived from model/par at simulator construction, but scenario
  // configure() hooks may override the stochastic knobs, so all of them are
  // key material.
  w.field("gate.n_experts", cfg.gate.n_experts);
  w.field("gate.n_layers", cfg.gate.n_layers);
  w.field("gate.ep_ranks", cfg.gate.ep_ranks);
  w.field("gate.tokens_per_rank", cfg.gate.tokens_per_rank);
  w.field("gate.dirichlet_alpha", cfg.gate.dirichlet_alpha);
  w.field("gate.transition_alpha", cfg.gate.transition_alpha);
  w.field("gate.personalization", cfg.gate.personalization);
  w.field("gate.drift_sigma", cfg.gate.drift_sigma);
  w.field("gate.pref_drift_sigma", cfg.gate.pref_drift_sigma);
  w.field("gate.pref_retention", cfg.gate.pref_retention);
  w.field("gate.lb_final", cfg.gate.lb_final);
  w.field("gate.lb_timescale", cfg.gate.lb_timescale);
  w.field("gate.seed", cfg.gate.seed);
  w.field("gate.rng_mode", static_cast<int>(cfg.gate.rng_mode));

  w.field("warmup_iterations", cfg.warmup_iterations);
  w.field("seed", cfg.seed);

  // Fidelity ladder (DESIGN.md §12).
  w.field("backend", static_cast<int>(cfg.backend));
  w.field("pkt.mtu_bytes", cfg.pkt.mtu_bytes);
  w.field("pkt.window_packets", cfg.pkt.window_packets);
}

std::string point_cache_key(const std::string& scenario,
                            const SweepPoint& point) {
  CanonicalWriter w;
  w.field("cache_schema", kCacheSchemaVersion);
  w.field("scenario", scenario);
  w.field("iterations", point.iterations);
  canonicalize_config(point.cfg, w);
  // Serving-mode discriminator: a serve point never collides with a training
  // point over the same cluster config.
  w.field("has_serve", static_cast<bool>(point.serve));
  if (point.serve) canonicalize_serve_config(*point.serve, w);
  return w.digest_hex();
}

}  // namespace mixnet::exp
