#include "exp/cache_key.h"

#include "moe/gate_trace.h"

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
  // key material, written by GateConfig's one writer.
  moe::canonicalize_gate(cfg.gate, w);

  w.field("warmup_iterations", cfg.warmup_iterations);
  w.field("seed", cfg.seed);

  // Fidelity ladder (DESIGN.md §12).
  w.field("backend", static_cast<int>(cfg.backend));
  w.field("pkt.mtu_bytes", cfg.pkt.mtu_bytes);
  w.field("pkt.window_packets", cfg.pkt.window_packets);
}

void canonicalize_serve_config(const serve::ServeConfig& scfg,
                               CanonicalWriter& w) {
  // Open-loop arrival process.
  w.field("serve.n_requests", scfg.n_requests);
  w.field("serve.arrival_rate_hz", scfg.arrival_rate_hz);
  w.field("serve.shape", static_cast<int>(scfg.shape));
  w.field("serve.burst_factor", scfg.burst_factor);
  w.field("serve.diurnal_period_s", scfg.diurnal_period_s);
  w.field("serve.burst_start_s", scfg.burst_start_s);
  w.field("serve.burst_len_s", scfg.burst_len_s);

  // Request shape.
  w.field("serve.prompt_mu", scfg.prompt_mu);
  w.field("serve.prompt_sigma", scfg.prompt_sigma);
  w.field("serve.output_mu", scfg.output_mu);
  w.field("serve.output_sigma", scfg.output_sigma);

  // Engine and SLOs.
  w.field("serve.max_batch_requests", scfg.max_batch_requests);
  w.field("serve.ttft_slo_ms", scfg.ttft_slo_ms);
  w.field("serve.tpot_slo_ms", scfg.tpot_slo_ms);

  // Hotspot-driven re-placement loop.
  w.field("serve.replacement_on", scfg.replacement_on);
  w.field("serve.hotspot_window", scfg.hotspot_window);
  w.field("serve.hotspot_threshold", scfg.hotspot_threshold);
  w.field("serve.hotspot_cooldown", scfg.hotspot_cooldown);
  w.field("serve.migration_ms_per_expert", scfg.migration_ms_per_expert);
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
