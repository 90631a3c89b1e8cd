// Serving-workload configuration (DESIGN.md §11).
//
// Every field is a flat scalar on purpose: ServeConfig is cache-key material
// (exp::canonicalize_serve_config in exp/cache_key.cc serializes each leaf;
// the mixnet-lint cache-key analyzer enforces completeness), and
// flat scalars keep the leaf expansion trivially exhaustive.
#pragma once

#include <cstdint>

namespace mixnet::serve {

/// Arrival-rate envelope of the open-loop generator (serve/workload.h).
enum class ArrivalShape {
  kSteady = 0,   ///< homogeneous Poisson at arrival_rate_hz
  kDiurnal = 1,  ///< sinusoidal rate between base and base*burst_factor
  kBurst = 2,    ///< base rate with a [burst_start_s, +burst_len_s) storm
};

struct ServeConfig {
  // --- Open-loop arrival process -----------------------------------------
  int n_requests = 96;             ///< requests generated per point
  double arrival_rate_hz = 16.0;   ///< base Poisson rate (requests/s)
  ArrivalShape shape = ArrivalShape::kSteady;
  double burst_factor = 1.0;       ///< peak/base rate (kDiurnal, kBurst)
  double diurnal_period_s = 8.0;   ///< kDiurnal: one rate cycle
  double burst_start_s = 1.0;      ///< kBurst: storm window start
  double burst_len_s = 2.0;        ///< kBurst: storm window length

  // --- Request shape (lognormal token counts) ----------------------------
  double prompt_mu = 5.5;          ///< ln prompt tokens (e^5.5 ~ 245)
  double prompt_sigma = 0.6;
  double output_mu = 3.2;          ///< ln output tokens (e^3.2 ~ 25)
  double output_sigma = 0.5;

  // --- Engine -------------------------------------------------------------
  int max_batch_requests = 16;     ///< continuous-batching admission cap

  // --- SLOs (metrics pipeline, serve/metrics.h) ---------------------------
  double ttft_slo_ms = 1000.0;     ///< time-to-first-token target
  double tpot_slo_ms = 250.0;      ///< time-per-output-token target

  // --- Hotspot-driven expert re-placement ---------------------------------
  bool replacement_on = false;     ///< close the detector->Copilot->LPT loop
  int hotspot_window = 8;          ///< sliding window (engine steps)
  double hotspot_threshold = 1.35; ///< max/fair rank-load ratio that trips
  int hotspot_cooldown = 32;       ///< steps between re-placements
  double migration_ms_per_expert = 2.0;  ///< weight-transfer pause per move
};

}  // namespace mixnet::serve
