#include "serve/serve_sim.h"

#include <algorithm>

#include "dag/compute_model.h"

namespace mixnet::serve {

namespace {
constexpr double kBf16 = 2.0;
}

ServeSimulator::ServeSimulator(const sim::TrainingConfig& cluster,
                               const ServeConfig& scfg)
    : cfg_(cluster),
      scfg_(scfg),
      cluster_(cfg_),
      gate_(sim::gate_config(cfg_)),
      detector_(control::HotspotConfig{scfg.hotspot_window,
                                       scfg.hotspot_threshold,
                                       scfg.hotspot_cooldown}) {
  const int layers = cluster_.layers_per_stage();
  // Contiguous initial placement, matching the gate's dispatch-matrix
  // convention: rank r owns experts [r*epr, (r+1)*epr). Each stage layer
  // owns its own map (its experts are distinct parameters), so the control
  // loop can balance every layer's column loads independently.
  const int epr = std::max(cfg_.model.n_experts / cfg_.par.ep, 1);
  std::vector<int> contiguous(static_cast<std::size_t>(cfg_.model.n_experts));
  for (int e = 0; e < cfg_.model.n_experts; ++e)
    contiguous[static_cast<std::size_t>(e)] = std::min(e / epr, cfg_.par.ep - 1);
  expert_to_rank_.assign(static_cast<std::size_t>(layers), contiguous);
  if (scfg_.replacement_on) {
    last_loads_.resize(static_cast<std::size_t>(layers));
    predict::CopilotConfig cc;
    cc.n_experts = cfg_.model.n_experts;
    // Serving observes per engine step (milliseconds apart), not per
    // training iteration: the default re-solve cadence of 4 would spend more
    // time on least squares than on the fabric simulation, and the load
    // process only moves on the hotspot-window timescale anyway.
    cc.resolve_every = 64;
    copilots_.assign(static_cast<std::size_t>(layers), predict::Copilot(cc));
  }

  gate_.advance_steps(cfg_.warmup_iterations);

  // Offline circuit setup from the warmed-up gate state: serving starts on
  // circuits matched to the initial demand, fully hidden (no request is in
  // flight yet). Runtime re-preparation only happens after a re-placement.
  if (cluster_.is_mixnet()) {
    controller_ = cluster_.make_controller(cluster_.rep_region());
    for (int l = 0; l < layers; ++l) {
      const Matrix demand = cluster_.group_server_matrix(
          rank_bytes(l, cfg_.par.tokens_per_microbatch()));
      controller_->prepare(demand, cfg_.reconfig_delay);
    }
  }
}

ServeSimulator::~ServeSimulator() = default;

Matrix ServeSimulator::rank_bytes(int layer, double step_tokens) const {
  const auto ep = static_cast<std::size_t>(cfg_.par.ep);
  const Matrix& counts = gate_.dispatch_counts(layer);
  const auto& e2r = expert_to_rank_[static_cast<std::size_t>(layer)];
  Matrix bytes(ep, ep, 0.0);
  const double total = counts.sum();
  if (total <= 0.0) return bytes;
  // Scale the gate's token-slot matrix to this step's dispatched slots
  // (tokens * top_k), in bf16 bytes of hidden activations per slot.
  const double scale =
      step_tokens * cfg_.model.top_k * cfg_.model.hidden_dim * kBf16 / total;
  for (std::size_t r = 0; r < counts.rows(); ++r)
    for (std::size_t e = 0; e < counts.cols(); ++e) {
      const double v = counts(r, e);
      if (v <= 0.0) continue;
      bytes(r, static_cast<std::size_t>(e2r[e])) += v * scale;
    }
  return bytes;
}

TimeNs ServeSimulator::simulate_step(double step_tokens, ServeReport& report) {
  const dag::LayerTimes lt =
      dag::forward_layer_times(cfg_.model, cfg_.par, cfg_.compute);
  const double token_scale =
      step_tokens / std::max(cfg_.par.tokens_per_microbatch(), 1.0);
  const auto scaled = [token_scale](TimeNs t) {
    return static_cast<TimeNs>(static_cast<double>(t) * token_scale);
  };
  const auto ep = static_cast<std::size_t>(cfg_.par.ep);
  TimeNs stage = 0;
  for (int l = 0; l < cluster_.layers_per_stage(); ++l) {
    const Matrix demand = cluster_.group_server_matrix(rank_bytes(l, step_tokens));
    TimeNs blocked = 0;
    if (controller_ && pending_reconfig_layers_ > 0) {
      // Post-re-placement circuit re-targeting (Fig. 20 hide-window
      // accounting applied to serving): the switch started flipping when the
      // swap was decided, at the previous step's end, so everything the
      // in-flight step has executed before this layer's all-to-all —
      // earlier layers plus this layer's attention+gate — hides the delay.
      // Only the remainder blocks serving: the SLO cost of acting on a
      // hotspot, largest for the first layer re-targeted.
      const auto outcome =
          controller_->prepare(demand, stage + scaled(lt.attention + lt.gate));
      if (outcome.reconfigured) ++report.reconfigurations;
      blocked = outcome.blocked;
      report.reconfig_blocked += outcome.blocked;
      --pending_reconfig_layers_;
    }
    const TimeNs a2a =
        cluster_.runner().ep_all_to_all(cluster_.group_servers(), demand);
    // Expert compute dilation: the stage finishes with its hottest rank.
    const Matrix& counts = gate_.dispatch_counts(l);
    const auto& e2r = expert_to_rank_[static_cast<std::size_t>(l)];
    std::vector<double> rank_load(ep, 0.0);
    double total = 0.0;
    for (std::size_t r = 0; r < counts.rows(); ++r)
      for (std::size_t e = 0; e < counts.cols(); ++e) {
        rank_load[static_cast<std::size_t>(e2r[e])] += counts(r, e);
        total += counts(r, e);
      }
    const double peak = *std::max_element(rank_load.begin(), rank_load.end());
    const double dilation =
        total > 0.0 ? std::max(peak * static_cast<double>(ep) / total, 1.0)
                    : 1.0;
    stage += scaled(lt.attention + lt.gate + lt.add_norm) + blocked + 2 * a2a +
             static_cast<TimeNs>(static_cast<double>(scaled(lt.expert)) *
                                 dilation);
  }
  // A request traverses every pipeline stage; stages beyond the simulated
  // representative one are statistically identical.
  return stage * cfg_.par.pp;
}

namespace {

/// Bounded pairwise swaps: exchange the heaviest expert on the hottest rank
/// with the lightest expert on the coldest rank while that narrows the
/// hot-cold gap without inverting it (a single monster expert above the fair
/// share is irreducible by placement, and shuttling it around would pay
/// migration for nothing). Per-rank expert counts stay exact and only the
/// swapped experts migrate, so migration and circuit re-targeting cost stays
/// proportional to the imbalance actually corrected — a full LPT
/// re-assignment would reshuffle nearly every expert for the same balance.
/// All argmax/argmin scans break ties toward the lower index, so the outcome
/// is deterministic. Returns the number of experts moved (2 per swap).
int swap_balance(const std::vector<double>& basis, std::vector<int>& e2r,
                 std::size_t ep, int max_swaps) {
  const std::size_t ne = basis.size();
  std::vector<double> pred_rank(ep, 0.0);
  for (std::size_t e = 0; e < ne; ++e)
    pred_rank[static_cast<std::size_t>(e2r[e])] += basis[e];
  int moved = 0;
  for (int s = 0; s < max_swaps; ++s) {
    std::size_t hot_r = 0, cold_r = 0;
    for (std::size_t r = 1; r < ep; ++r) {
      if (pred_rank[r] > pred_rank[hot_r]) hot_r = r;
      if (pred_rank[r] < pred_rank[cold_r]) cold_r = r;
    }
    if (hot_r == cold_r) break;
    std::size_t e_hot = ne, e_cold = ne;  // sentinels
    for (std::size_t e = 0; e < ne; ++e) {
      const auto r = static_cast<std::size_t>(e2r[e]);
      if (r == hot_r && (e_hot == ne || basis[e] > basis[e_hot])) e_hot = e;
      if (r == cold_r && (e_cold == ne || basis[e] < basis[e_cold])) e_cold = e;
    }
    if (e_hot == ne || e_cold == ne) break;
    const double gain = basis[e_hot] - basis[e_cold];
    const double gap = pred_rank[hot_r] - pred_rank[cold_r];
    if (!(gain > 0.0) || gain >= gap) break;
    std::swap(e2r[e_hot], e2r[e_cold]);
    pred_rank[hot_r] -= gain;
    pred_rank[cold_r] += gain;
    moved += 2;
  }
  return moved;
}

}  // namespace

TimeNs ServeSimulator::maybe_replace(ServeReport& report) {
  const auto ne = static_cast<std::size_t>(cfg_.model.n_experts);
  const auto ep = static_cast<std::size_t>(cfg_.par.ep);
  const int layers = cluster_.layers_per_stage();
  constexpr int kMaxSwapsPerLayer = 2;
  // Per-layer expert load (the per-expert counters the control plane already
  // collects), fed to each layer's Copilot when re-placement can read its
  // predictions. The detector watches the stage-aggregate per-rank load.
  std::vector<double> rank_load(ep, 0.0);
  for (int l = 0; l < layers; ++l) {
    const auto li = static_cast<std::size_t>(l);
    const std::vector<double>& cur = gate_.expert_load(l);
    if (scfg_.replacement_on) {
      if (!last_loads_[li].empty()) copilots_[li].observe(last_loads_[li], cur);
      last_loads_[li] = cur;
    }
    for (std::size_t e = 0; e < ne; ++e)
      rank_load[static_cast<std::size_t>(expert_to_rank_[li][e])] += cur[e];
  }
  const bool hot = detector_.record(rank_load);
  report.peak_imbalance =
      std::max(report.peak_imbalance, detector_.imbalance());
  if (!hot) return 0;
  ++report.hotspot_triggers;
  if (!scfg_.replacement_on) return 0;

  // Balance every stage layer on its own Copilot-predicted loads: layers
  // have independent hot columns, so one global assignment cannot fix them.
  // The least-squares prediction runs only on triggers, never per step.
  int moved = 0;
  for (int l = 0; l < layers; ++l) {
    const auto li = static_cast<std::size_t>(l);
    const std::vector<double> basis = copilots_[li].observations() > 4
                                          ? copilots_[li].predict(last_loads_[li])
                                          : last_loads_[li];
    moved += swap_balance(basis, expert_to_rank_[li], ep, kMaxSwapsPerLayer);
  }
  if (moved == 0) return 0;
  ++report.replacements;
  report.experts_moved += moved;
  // The next pass over the stage's layers re-targets the regional OCS
  // circuits for the new placement (simulate_step picks this up).
  pending_reconfig_layers_ = layers;
  const TimeNs pause = ms_to_ns(scfg_.migration_ms_per_expert * moved);
  report.migration_paused += pause;
  return pause;
}

ServeReport ServeSimulator::run() {
  ServeReport report;
  const std::vector<Request> trace = generate_workload(scfg_, cfg_.seed);
  report.records.resize(trace.size());
  std::vector<ActiveRequest> active;
  const auto batch_cap =
      static_cast<std::size_t>(std::max(scfg_.max_batch_requests, 1));
  std::size_t next = 0, done = 0;
  TimeNs now = 0;
  while (done < trace.size()) {
    if (active.empty()) {
      if (next >= trace.size()) break;  // defensive; done would be full
      now = std::max(now, trace[next].arrival_ns);
    }
    while (next < trace.size() && trace[next].arrival_ns <= now &&
           active.size() < batch_cap) {
      active.push_back({next, false, 0});
      ++next;
    }
    // Continuous batching: newly admitted prompts prefill, residents decode
    // one token each, all in one engine step.
    double step_tokens = 0.0;
    for (const auto& a : active)
      step_tokens += a.prefilled ? 1.0 : trace[a.id].prompt_tokens;
    gate_.step();
    now += simulate_step(step_tokens, report);
    now += maybe_replace(report);
    ++report.engine_steps;
    for (auto it = active.begin(); it != active.end();) {
      RequestRecord& rec = report.records[it->id];
      if (!it->prefilled) {
        it->prefilled = true;
        it->emitted = 1;  // the first token lands with the prefill
        rec.arrival_ns = trace[it->id].arrival_ns;
        rec.prompt_tokens = trace[it->id].prompt_tokens;
        rec.output_tokens = trace[it->id].output_tokens;
        rec.first_token_ns = now;
      } else {
        ++it->emitted;
      }
      if (it->emitted >= trace[it->id].output_tokens) {
        rec.finish_ns = now;
        ++done;
        it = active.erase(it);
      } else {
        ++it;
      }
    }
  }
  report.makespan = now;
  return report;
}

}  // namespace mixnet::serve
