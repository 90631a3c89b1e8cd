#include "sim/training_sim.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "dag/taskgraph.h"
#include "moe/traffic.h"
#include "ocs/algorithm.h"

namespace mixnet::sim {

namespace {
constexpr double kBf16 = 2.0;
}

Matrix rescale_plan_columns(Matrix seen, const std::vector<double>& predicted,
                            const std::vector<int>& rank_to_local_server,
                            int experts_per_rank) {
  // Total captured once, before any column is touched: normalizing against a
  // running seen.sum() would make each column's scale depend on the columns
  // rescaled before it (order-dependent and self-referential).
  const double total = seen.sum();
  if (total <= 0.0) return seen;
  const int n_experts = static_cast<int>(predicted.size());
  const int ep_ranks = static_cast<int>(rank_to_local_server.size());
  for (std::size_t c = 0; c < seen.cols(); ++c) {
    double pred_col = 0.0;
    const double seen_col = seen.col_sum(c);  // only column c is mutated below
    for (int r = 0; r < ep_ranks; ++r) {
      if (static_cast<std::size_t>(
              rank_to_local_server[static_cast<std::size_t>(r)]) != c)
        continue;
      for (int e = r * experts_per_rank;
           e < (r + 1) * experts_per_rank && e < n_experts; ++e)
        pred_col += predicted[static_cast<std::size_t>(e)];
    }
    if (seen_col > 0.0 && pred_col > 0.0) {
      const double scale = pred_col * total / seen_col;
      for (std::size_t r = 0; r < seen.rows(); ++r) seen(r, c) *= scale;
    }
  }
  return seen;
}

TrainingSimulator::TrainingSimulator(TrainingConfig cfg,
                                     std::shared_ptr<moe::GateTrace> trace)
    : cfg_(std::move(cfg)), cluster_(cfg_), trace_(std::move(trace)) {
  const moe::GateConfig gc = gate_config(cfg_);
  if (!trace_) {
    trace_ = std::make_shared<moe::GateTrace>(gc, cfg_.warmup_iterations,
                                              cluster_.layers_per_stage());
  } else if (trace_->key() != moe::gate_trace_key(gc, cfg_.warmup_iterations) ||
             trace_->stage_layers() < cluster_.layers_per_stage()) {
    throw std::invalid_argument(
        "TrainingSimulator: gate trace does not match the configuration");
  }
  topo::Fabric& fabric = cluster_.fabric();
  failures_ = std::make_unique<control::FailureManager>(fabric);
  if (cfg_.failure.kind != control::FailureScenario::Kind::kNone) {
    failures_->apply(cfg_.failure);
    cluster_.runner().set_relays(failures_->relays());
    if (cluster_.is_mixnet()) {
      // Translate global exclusions into region-local ones.
      const auto& excluded = failures_->excluded_servers();
      const int region = fabric.region_of(cfg_.failure.server);
      const auto& members = fabric.region_servers(region);
      std::vector<bool> local(members.size(), false);
      bool any = false;
      for (std::size_t i = 0; i < members.size(); ++i) {
        local[i] = excluded[static_cast<std::size_t>(members[i])];
        any = any || local[i];
      }
      if (any) controller_for(region).exclude(local);
    }
    if (failures_->tp_over_scale_out() && cfg_.par.tp > 1) {
      // TP all-reduce of the victim's shard crosses the scale-out fabric:
      // 4 ring all-reduces per layer between the victim and backup servers.
      const int backup = (cfg_.failure.server + 1) % fabric.n_servers();
      const Bytes payload = moe::tp_allreduce_bytes(cfg_.model, cfg_.par);
      const TimeNs one =
          cluster_.runner().all_reduce({cfg_.failure.server, backup}, payload);
      tp_penalty_per_layer_ = 4 * one;
    }
  }

  if (cfg_.use_copilot) {
    predict::CopilotConfig cc;
    cc.n_experts = cfg_.model.n_experts;
    for (int l = 0; l < cluster_.layers_per_stage(); ++l)
      copilots_.emplace_back(cc);
  }

  if (cfg_.fabric_kind == topo::FabricKind::kTopoOpt) install_topoopt_circuits();
}

control::TopologyController& TrainingSimulator::controller_for(int region) {
  auto& controller = controllers_[region];
  if (!controller) controller = cluster_.make_controller(region);
  return *controller;
}

void TrainingSimulator::install_topoopt_circuits() {
  // One-shot topology (§7.1): a Hamiltonian ring for global connectivity
  // (TopoOpt's all-reduce rings) plus per-EP-group greedy circuits from the
  // initial demand estimate (the trace's pre-warm-up snapshot), using the
  // remaining optical degree.
  topo::Fabric& fabric = cluster_.fabric();
  const moe::Placement& placement = cluster_.placement();
  const int n = fabric.n_servers();
  const int alpha = cfg_.nics_per_server;
  Matrix counts(static_cast<std::size_t>(n), static_cast<std::size_t>(n), 0.0);
  if (n > 1) {
    for (int ring = 0; ring < 2; ++ring) {
      for (int i = 0; i < n; ++i) {
        const int j = (i + 1) % n;
        if (i == j) continue;
        counts(static_cast<std::size_t>(std::min(i, j)),
               static_cast<std::size_t>(std::max(i, j))) += 1.0;
        counts(static_cast<std::size_t>(std::max(i, j)),
               static_cast<std::size_t>(std::min(i, j))) += 1.0;
      }
    }
  }
  // TopoOpt dedicates a substantial share of its degree to the all-reduce
  // ring structure it co-optimizes with (multi-ring DP + PP chains); the
  // remainder serves the group's all-to-all demand.
  const int group_alpha = std::max(alpha - 4, 0);
  const int lps = cluster_.layers_per_stage();
  // Demand per group: sum the stage's layer matrices from the initial gate
  // state (dp=0 matrices reused for every replica -- statistically identical).
  for (int dp = 0; dp < cfg_.par.dp; ++dp) {
    for (int pp = 0; pp < cfg_.par.pp; ++pp) {
      const auto members = placement.ep_group_servers(dp, pp);
      if (members.size() < 2) continue;
      Matrix demand(members.size(), members.size(), 0.0);
      for (int l = 0; l < lps; ++l) {
        const int layer = std::min(pp * lps + l, cfg_.model.n_blocks - 1);
        const Matrix rank = moe::rank_dispatch_matrix(
            trace_->initial_counts(layer), cfg_.model.hidden_dim * kBf16);
        const Matrix m = moe::aggregate_to_servers(
            rank, placement.ep_rank_to_local_server(dp, pp),
            static_cast<int>(members.size()));
        for (std::size_t a = 0; a < demand.rows(); ++a)
          for (std::size_t b = 0; b < demand.cols(); ++b) demand(a, b) += m(a, b);
      }
      const ocs::OcsTopology topo = ocs::reconfigure_ocs(demand, group_alpha);
      for (std::size_t a = 0; a < members.size(); ++a)
        for (std::size_t b = 0; b < members.size(); ++b)
          counts(static_cast<std::size_t>(members[a]),
                 static_cast<std::size_t>(members[b])) += topo.counts(a, b);
    }
  }
  fabric.apply_circuits(0, counts);
}

IterationResult TrainingSimulator::run_iteration() {
  const moe::GateTrace::Iteration& gate = trace_->iteration(iteration_++);
  PhaseRunner& runner = cluster_.runner();
  const std::vector<int>& group_servers = cluster_.group_servers();
  const int rep_region = cluster_.rep_region();
  IterationResult res;

  const dag::LayerTimes lt =
      dag::forward_layer_times(cfg_.model, cfg_.par, cfg_.compute);
  const double bf = cfg_.compute.backward_factor;
  const int lps = cluster_.layers_per_stage();
  const int stages = cfg_.par.pp;
  const int micro = cfg_.par.n_microbatches;

  // --- Per-layer all-to-all phases (representative region) -----------------
  std::vector<TimeNs> a2a(static_cast<std::size_t>(lps), 0);
  std::vector<TimeNs> blocked_fp(static_cast<std::size_t>(lps), 0);
  std::vector<TimeNs> blocked_bp(static_cast<std::size_t>(lps), 0);
  const TimeNs fp_window = lt.attention + lt.gate;
  const TimeNs bp_window =
      static_cast<TimeNs>(bf * static_cast<double>(lt.attention + lt.expert));
  for (int l = 0; l < lps; ++l) {
    const auto lu = static_cast<std::size_t>(l);
    const Matrix demand = cluster_.group_server_matrix(moe::rank_dispatch_matrix(
        gate.counts[lu], cfg_.model.hidden_dim * kBf16));
    if (cluster_.is_mixnet()) {
      // Planning demand: Copilot predicts this layer's expert loads from the
      // previous layer and scales last iteration's observed matrix columns
      // accordingly (§B.1); otherwise the oracle matrix is used (the demand
      // is known from the previous micro-batch's identical routing).
      Matrix plan = demand;
      if (cfg_.use_copilot) {
        const auto& prev_load = gate.load[l == 0 ? 0 : lu - 1];
        auto& cp = copilots_[lu];
        const auto predicted = cp.predict(prev_load);
        monitor_.record(rep_region, l, demand);
        if (cp.observations() > 4) {
          // Rescale destination columns toward the predicted rank loads.
          const auto epr = std::max(cfg_.model.n_experts / cfg_.par.ep, 1);
          plan = rescale_plan_columns(*monitor_.smoothed(rep_region, l),
                                      predicted,
                                      cluster_.rank_to_local_server(), epr);
        }
        cp.observe(prev_load, gate.load[lu]);
      }
      auto outcome = controller_for(rep_region).prepare(plan, fp_window);
      blocked_fp[lu] = outcome.blocked;
      if (outcome.reconfigured) {
        ++res.reconfigurations;
        blocked_bp[lu] = std::max<TimeNs>(cfg_.reconfig_delay - bp_window, 0);
      }
    }
    a2a[lu] = runner.ep_all_to_all(group_servers, demand);
  }
  last_timeline_ = PhaseTimeline{lt.attention, lt.gate,     a2a[0],
                                 lt.expert,    a2a[0],      lt.add_norm,
                                 blocked_fp[0]};

  // --- PP boundary transfer -------------------------------------------------
  TimeNs pp_time = 0;
  if (stages > 1) {
    const auto next_group = cluster_.placement().ep_group_servers(0, 1);
    const Bytes act = moe::pp_activation_bytes(cfg_.model, cfg_.par) /
                      static_cast<double>(group_servers.size());
    pp_time = runner.send(group_servers.front(), next_group.front(), act);
  }

  // --- DP gradient all-reduce ----------------------------------------------
  TimeNs dp_time = 0;
  if (cfg_.par.dp > 1) {
    const int spr = std::max(cluster_.placement().total_servers() / cfg_.par.dp, 1);
    dp_time = runner.dp_all_reduce(
        spr, cfg_.par.dp, moe::dp_gradient_bytes_per_gpu(cfg_.model, cfg_.par));
  }

  // --- Build and execute the iteration DAG ---------------------------------
  dag::TaskGraph graph;
  const TimeNs comp1 = lt.attention + lt.gate + tp_penalty_per_layer_;
  const TimeNs comp_exp = lt.expert;
  const TimeNs comp_norm = lt.add_norm;
  auto scale = [&](TimeNs t) {
    return static_cast<TimeNs>(bf * static_cast<double>(t));
  };

  // fwd_tail[s][m] / bwd_tail[s][m]: last task ids for dependency wiring.
  std::vector<std::vector<dag::TaskId>> fwd_tail(
      static_cast<std::size_t>(stages),
      std::vector<dag::TaskId>(static_cast<std::size_t>(micro), -1));
  std::vector<std::vector<dag::TaskId>> bwd_tail = fwd_tail;

  auto chain = [&](dag::TaskId& prev, dag::Task t) {
    const dag::TaskId id = graph.add(std::move(t));
    if (prev >= 0) graph.add_dep(id, prev);
    prev = id;
    return id;
  };

  for (int m = 0; m < micro; ++m) {
    for (int s = 0; s < stages; ++s) {
      dag::TaskId prev = -1;
      // PP receive dependency from the previous stage.
      if (s > 0) {
        dag::TaskId send = graph.add({"pp-send", pp_time, -1, 0, {}});
        graph.add_dep(send, fwd_tail[static_cast<std::size_t>(s - 1)]
                                    [static_cast<std::size_t>(m)]);
        prev = send;
      }
      for (int l = 0; l < lps; ++l) {
        const auto lu = static_cast<std::size_t>(l);
        chain(prev, {"attn+gate", comp1, s, 0, {}});
        chain(prev, {"a2a1", blocked_fp[lu] + a2a[lu], s, 0, {}});
        chain(prev, {"expert", comp_exp, s, 0, {}});
        chain(prev, {"a2a2", a2a[lu], s, 0, {}});
        chain(prev, {"add&norm", comp_norm, s, 0, {}});
      }
      fwd_tail[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)] = prev;
    }
  }
  for (int m = 0; m < micro; ++m) {
    for (int s = stages - 1; s >= 0; --s) {
      dag::TaskId prev = -1;
      dag::TaskId head_dep =
          fwd_tail[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)];
      if (s < stages - 1) {
        dag::TaskId send = graph.add({"pp-send-grad", pp_time, -1, 1, {}});
        graph.add_dep(send, bwd_tail[static_cast<std::size_t>(s + 1)]
                                    [static_cast<std::size_t>(m)]);
        prev = send;
      }
      bool first = true;
      for (int l = lps - 1; l >= 0; --l) {
        const auto lu = static_cast<std::size_t>(l);
        dag::TaskId id = chain(prev, {"bwd-norm", scale(comp_norm), s, 1, {}});
        if (first) {
          graph.add_dep(id, head_dep);  // needs this micro-batch's forward
          first = false;
        }
        chain(prev, {"bwd-a2a2", blocked_bp[lu] + a2a[lu], s, 1, {}});
        chain(prev, {"bwd-expert", scale(comp_exp), s, 1, {}});
        chain(prev, {"bwd-a2a1", a2a[lu], s, 1, {}});
        chain(prev, {"bwd-attn", scale(comp1), s, 1, {}});
      }
      bwd_tail[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)] = prev;
    }
  }
  // DP all-reduce per stage after its last backward micro-batch.
  if (dp_time > 0) {
    for (int s = 0; s < stages; ++s) {
      dag::TaskId ar = graph.add({"dp-allreduce", dp_time, -1, 2, {}});
      graph.add_dep(ar, bwd_tail[static_cast<std::size_t>(s)]
                                [static_cast<std::size_t>(micro - 1)]);
    }
  }

  eventsim::Simulator simulator;
  dag::Executor exec(simulator, graph);
  exec.start();
  simulator.run();
  assert(exec.all_done());

  res.total = exec.makespan();
  for (int l = 0; l < lps; ++l) {
    const auto lu = static_cast<std::size_t>(l);
    res.ep_comm += 4 * a2a[lu] * micro;
    res.reconfig_blocked += (blocked_fp[lu] + blocked_bp[lu]) * micro;
  }
  res.pp_send = pp_time;
  res.dp_comm = dp_time;
  res.compute = static_cast<TimeNs>((1.0 + bf) *
                                    static_cast<double>(comp1 + comp_exp + comp_norm) *
                                    lps * micro);
  res.tokens = cfg_.par.tokens_per_microbatch() * micro * cfg_.par.dp;
  return res;
}

std::vector<IterationResult> TrainingSimulator::run(int iterations) {
  std::vector<IterationResult> out;
  out.reserve(static_cast<std::size_t>(iterations));
  for (int i = 0; i < iterations; ++i) out.push_back(run_iteration());
  return out;
}

}  // namespace mixnet::sim
