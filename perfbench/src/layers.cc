#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <tuple>
#include <utility>

#include "control/controller.h"
#include "dag/compute_model.h"
#include "moe/gate.h"
#include "moe/placement.h"
#include "moe/traffic.h"
#include "net/routing.h"
#include "predict/copilot.h"
#include "serve/serve_sim.h"
#include "sim/phase_runner.h"
#include "sim/training_sim.h"

namespace perfbench {
namespace {

using namespace mixnet;

constexpr double kBf16 = 2.0;
// The Copilot re-solve cadences the simulators configure: training keeps
// CopilotConfig's default, serving re-solves every 64 engine steps.
constexpr int kServeResolveEvery = 64;

/// Deterministic work counts of the replay and of the real calls.
struct Counts {
  long gate_steps = 0;
  long observe_calls = 0;
  long predict_calls = 0;
  long solves = 0;
  long nodes = 0;
  long links = 0;
  long route_calls = 0;
  long route_dsts = 0;
  long flow_phases = 0;
  long pkt_phases = 0;
  long prepare_calls = 0;
  long reconfigurations = 0;
  long replacements = 0;
  long hotspot_triggers = 0;
  long engine_steps = 0;
  long cache_hits = 0;
  long cache_misses = 0;
};

// The simulators' constructors derive these from TrainingConfig; the
// replay derives them the same way so it exercises the same shapes.

moe::ParallelismSpec resolved_par(const sim::TrainingConfig& cfg) {
  return cfg.par_overridden ? cfg.par : moe::default_parallelism(cfg.model);
}

bool is_mixnet(topo::FabricKind k) {
  return k == topo::FabricKind::kMixNet || k == topo::FabricKind::kMixNetOpticalIO;
}

topo::FabricConfig fabric_config(const sim::TrainingConfig& cfg,
                                 const moe::Placement& pl, bool serving) {
  topo::FabricConfig fc =
      topo::FabricConfig::preset(cfg.fabric_kind, pl.total_servers())
          .with_gpus_per_server(cfg.gpus_per_server)
          .with_nics_per_server(cfg.nics_per_server)
          .with_nic_gbps(cfg.nic_gbps)
          .with_oversub(cfg.oversub)
          .with_eps_split(cfg.eps_nics, cfg.optical_degree)
          .with_region_servers(pl.region_servers())
          .with_nvlink_gbps_per_gpu(cfg.nvlink_gbps_per_gpu)
          .with_ocs_nic_gbps(cfg.ocs_nic_gbps);
  if (!serving) fc.with_core_model(cfg.core_model);
  if (is_mixnet(cfg.fabric_kind))
    fc.with_eps_split(cfg.eps_nics, cfg.nics_per_server - cfg.eps_nics);
  return fc;
}

moe::GateConfig gate_config(const sim::TrainingConfig& cfg,
                            const moe::ParallelismSpec& par) {
  moe::GateConfig gc = cfg.gate;
  gc.n_experts = cfg.model.n_experts;
  gc.n_layers = cfg.model.n_blocks;
  gc.ep_ranks = par.ep;
  gc.tokens_per_rank = par.tokens_per_microbatch() * cfg.model.top_k / par.ep;
  gc.seed = cfg.seed;
  return gc;
}

collective::EngineConfig engine_config(const sim::TrainingConfig& cfg) {
  collective::EngineConfig ecfg;
  ecfg.a2a_efficiency = cfg.a2a_efficiency;
  ecfg.ring_efficiency = cfg.ring_efficiency;
  ecfg.switched_path_efficiency = cfg.switched_path_efficiency;
  return ecfg;
}

control::ControllerConfig controller_config(const sim::TrainingConfig& cfg) {
  control::ControllerConfig cc;
  cc.reconfig_delay = cfg.reconfig_delay;
  cc.policy = cfg.policy;
  cc.algo.work_conserving = !cfg.strict_paper_greedy;
  return cc;
}

/// Key of one gate trace: everything the gate's state sequence depends on.
std::string gate_key(const moe::GateConfig& g, int warmup, long steps) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%d/%d/%d/%a/%a/%a/%a/%a/%a/%a/%a/%a/%llu/%d/%d/%ld",
                g.n_experts, g.n_layers, g.ep_ranks, g.tokens_per_rank,
                g.dirichlet_alpha, g.transition_alpha, g.personalization,
                g.drift_sigma, g.pref_drift_sigma, g.pref_retention, g.lb_final,
                g.lb_timescale, static_cast<unsigned long long>(g.seed),
                static_cast<int>(g.rng_mode), warmup, steps);
  return buf;
}

/// Everything a replay needs that is shared by training and serving points.
struct Replay {
  SpanRecorder& rec;
  int point;
  Counts& counts;
  bool packet;

  /// One PhaseRunner call, attributed to net (flow backend) or pkt.
  template <typename Fn>
  TimeNs phase(const char* call, Fn&& fn) {
    ++(packet ? counts.pkt_phases : counts.flow_phases);
    Scope s(rec, std::string(packet ? "pkt." : "net.") + call, point);
    return fn();
  }

  void build_topology(const topo::FabricConfig& fc,
                      std::unique_ptr<topo::Fabric>& out) {
    {
      Scope s(rec, "topo.build", point);
      out = std::make_unique<topo::Fabric>(topo::Fabric::build(fc));
    }
    counts.nodes += static_cast<long>(out->network().node_count());
    counts.links += static_cast<long>(out->network().link_count());
  }

  std::unique_ptr<moe::GateSimulator> warm_gate(const moe::GateConfig& gc,
                                                int warmup) {
    std::unique_ptr<moe::GateSimulator> gate;
    {
      Scope s(rec, "moe.construct", point);
      gate = std::make_unique<moe::GateSimulator>(gc);
    }
    {
      Scope s(rec, "moe.advance_steps", point);
      gate->advance_steps(warmup);
    }
    counts.gate_steps += warmup;
    return gate;
  }

  void step_gate(moe::GateSimulator& gate) {
    Scope s(rec, "moe.step", point);
    gate.step();
    ++counts.gate_steps;
  }

  /// Route the EP group's pairs and every DP ring edge through `router`,
  /// with the stripe count, hash and channel pinning the collective engine
  /// uses; warms the router's BFS tree cache for the phases that follow
  /// (until an OCS re-prepare changes the fabric and drops it, as in the
  /// real run).
  void routes(const topo::Fabric& fabric, net::EcmpRouter& router,
              const std::vector<int>& group, int servers_per_replica, int dp) {
    const auto& fc = fabric.config();
    const int eps_nics =
        fabric.has_eps() && fabric.has_circuits() ? fc.eps_nics : fc.nics_per_server;
    // (src, dst, stripes): all-to-all pairs stripe over the EPS NICs, ring
    // edges over at most 4 rings.
    std::vector<std::tuple<int, int, int>> pairs;
    for (int a : group)
      for (int b : group)
        if (a != b) pairs.emplace_back(a, b, std::clamp(eps_nics, 1, 8));
    if (dp > 1)
      for (int pos = 0; pos < servers_per_replica; ++pos)
        for (int r = 0; r < dp; ++r)
          pairs.emplace_back(r * servers_per_replica + pos,
                             (r + 1) % dp * servers_per_replica + pos,
                             std::clamp(eps_nics, 1, 4));
    std::set<int> dsts;
    Scope s(rec, "net.route", point);
    for (const auto& [a, b, stripes] : pairs) {
      dsts.insert(b);
      for (int k = 0; k < stripes; ++k) {
        const std::uint64_t hash = net::mix_hash(
            (static_cast<std::uint64_t>(a) << 40) ^
            (static_cast<std::uint64_t>(b) << 20) ^ static_cast<std::uint64_t>(k));
        router.route(fabric.server_node(a), fabric.server_node(b), hash, k + a + b);
        ++counts.route_calls;
      }
    }
    counts.route_dsts += static_cast<long>(dsts.size());
  }

  void observe(predict::Copilot& cp, const std::vector<double>& x,
               const std::vector<double>& y, int resolve_every) {
    {
      Scope s(rec, "predict.observe", point);
      cp.observe(x, y);
    }
    ++counts.observe_calls;
    if (cp.observations() % static_cast<std::size_t>(resolve_every) == 0)
      ++counts.solves;
  }

  void predict(const predict::Copilot& cp, const std::vector<double>& x) {
    Scope s(rec, "predict.predict", point);
    cp.predict(x);
    ++counts.predict_calls;
  }

  void prepare(control::TopologyController& ctl, const Matrix& demand,
               TimeNs hide) {
    Scope s(rec, "control.prepare", point);
    ctl.prepare(demand, hide);
    ++counts.prepare_calls;
  }
};

/// The real training calls, then their replay on the point's own fabric.
exp::PointResult trace_training(const exp::SweepPoint& p, Replay& r) {
  exp::PointResult res;
  res.index = p.index;
  res.iterations = p.iterations;
  std::unique_ptr<sim::TrainingSimulator> ts;
  {
    Scope point(r.rec, "exp.point", r.point);
    {
      Scope s(r.rec, "sim.setup", r.point);
      ts = std::make_unique<sim::TrainingSimulator>(p.cfg);
    }
    double total = 0.0;
    for (int i = 0; i < p.iterations; ++i) {
      Scope s(r.rec, "sim.iteration", r.point);
      res.iters.push_back(ts->run_iteration());
      total += ns_to_sec(res.iters.back().total);
    }
    res.iter_sec = total / p.iterations;
    res.timeline = ts->layer_timeline();
  }
  const sim::PhaseCacheStats cache = ts->phase_runner().stats();
  r.counts.cache_hits += static_cast<long>(cache.hits);
  r.counts.cache_misses += static_cast<long>(cache.misses);
  for (const auto& it : res.iters) r.counts.reconfigurations += it.reconfigurations;

  Scope replay(r.rec, "exp.replay", r.point);
  const sim::TrainingConfig& cfg = p.cfg;
  const moe::ParallelismSpec par = resolved_par(cfg);
  const moe::Placement pl(par, cfg.gpus_per_server);
  std::unique_ptr<topo::Fabric> built;
  r.build_topology(fabric_config(cfg, pl, /*serving=*/false), built);
  built.reset();

  // The phases replay on the simulator's own fabric, which carries its
  // installed circuits (TopoOpt has no packet fabric without them).
  topo::Fabric& fabric = ts->fabric();
  sim::PhaseRunner runner(fabric, engine_config(cfg), 1024, cfg.backend, cfg.pkt);
  const std::vector<int> group = pl.ep_group_servers(0, 0);
  const std::vector<int> rank_to_server = pl.ep_rank_to_local_server(0, 0);
  const int spr = std::max(pl.total_servers() / par.dp, 1);
  r.routes(fabric, runner.router(), group, spr, par.dp);

  const bool mixnet = is_mixnet(cfg.fabric_kind);
  std::unique_ptr<control::TopologyController> ctl;
  if (mixnet)
    ctl = std::make_unique<control::TopologyController>(
        fabric, fabric.region_of(group.front()), controller_config(cfg));
  const int lps = std::max(cfg.model.n_blocks / par.pp, 1);
  std::vector<predict::Copilot> copilots;
  if (mixnet && cfg.use_copilot)
    copilots.assign(static_cast<std::size_t>(lps),
                    predict::Copilot(predict::CopilotConfig{cfg.model.n_experts}));
  const int resolve_every = predict::CopilotConfig{}.resolve_every;
  const dag::LayerTimes lt = dag::forward_layer_times(cfg.model, par, cfg.compute);

  auto gate = r.warm_gate(gate_config(cfg, par), cfg.warmup_iterations);
  for (int i = 0; i < p.iterations; ++i) {
    r.step_gate(*gate);
    for (int l = 0; l < lps; ++l) {
      const Matrix demand = moe::aggregate_to_servers(
          gate->rank_dispatch_matrix(l, cfg.model.hidden_dim * kBf16),
          rank_to_server, static_cast<int>(group.size()));
      if (!copilots.empty()) {
        auto& cp = copilots[static_cast<std::size_t>(l)];
        const auto& prev = gate->expert_load(l == 0 ? 0 : l - 1);
        r.predict(cp, prev);
        r.observe(cp, prev, gate->expert_load(l), resolve_every);
      }
      if (ctl) r.prepare(*ctl, demand, lt.attention + lt.gate);
      r.phase("ep_all_to_all", [&] { return runner.ep_all_to_all(group, demand); });
    }
    if (par.pp > 1) {
      const Bytes act = moe::pp_activation_bytes(cfg.model, par) /
                        static_cast<double>(group.size());
      const int next = pl.ep_group_servers(0, 1).front();
      r.phase("send", [&] { return runner.send(group.front(), next, act); });
    }
    if (par.dp > 1) {
      const Bytes grad = moe::dp_gradient_bytes_per_gpu(cfg.model, par);
      r.phase("dp_all_reduce", [&] { return runner.dp_all_reduce(spr, par.dp, grad); });
    }
  }
  return res;
}

/// The serving engine's per-layer EP-rank byte matrix under the initial
/// contiguous expert placement (ServeSimulator::rank_bytes).
Matrix serve_rank_bytes(const moe::GateSimulator& gate, int layer,
                        const sim::TrainingConfig& cfg,
                        const moe::ParallelismSpec& par) {
  const auto ep = static_cast<std::size_t>(par.ep);
  const Matrix& counts = gate.dispatch_counts(layer);
  Matrix bytes(ep, ep, 0.0);
  const double total = counts.sum();
  if (total <= 0.0) return bytes;
  const double scale = par.tokens_per_microbatch() * cfg.model.top_k *
                       cfg.model.hidden_dim * kBf16 / total;
  const int epr = std::max(cfg.model.n_experts / par.ep, 1);
  for (std::size_t row = 0; row < counts.rows(); ++row)
    for (std::size_t e = 0; e < counts.cols(); ++e) {
      const auto rank = static_cast<std::size_t>(
          std::min(static_cast<int>(e) / epr, par.ep - 1));
      bytes(row, rank) += counts(row, e) * scale;
    }
  return bytes;
}

/// The real serving calls, then their replay for the engine steps the
/// report records.
exp::PointResult trace_serving(const exp::SweepPoint& p, Replay& r) {
  exp::PointResult res;
  res.index = p.index;
  res.iterations = p.iterations;
  serve::ServeReport report;
  {
    Scope point(r.rec, "exp.point", r.point);
    std::unique_ptr<serve::ServeSimulator> ss;
    {
      Scope s(r.rec, "serve.setup", r.point);
      ss = std::make_unique<serve::ServeSimulator>(p.cfg, *p.serve);
    }
    Scope s(r.rec, "serve.run", r.point);
    report = ss->run();
  }
  res.extra = serve::slo_metrics(report, *p.serve);
  res.iter_sec = ns_to_sec(report.makespan);
  r.counts.engine_steps += report.engine_steps;
  r.counts.reconfigurations += report.reconfigurations;
  r.counts.replacements += report.replacements;
  r.counts.hotspot_triggers += report.hotspot_triggers;

  Scope replay(r.rec, "exp.replay", r.point);
  const sim::TrainingConfig& cfg = p.cfg;
  const moe::ParallelismSpec par = resolved_par(cfg);
  const moe::Placement pl(par, cfg.gpus_per_server);
  std::unique_ptr<topo::Fabric> fabric;
  r.build_topology(fabric_config(cfg, pl, /*serving=*/true), fabric);
  sim::PhaseRunner runner(*fabric, engine_config(cfg), 1024, cfg.backend, cfg.pkt);
  const std::vector<int> group = pl.ep_group_servers(0, 0);
  const std::vector<int> rank_to_server = pl.ep_rank_to_local_server(0, 0);
  r.routes(*fabric, runner.router(), group, std::max(pl.total_servers() / par.dp, 1),
           par.dp);

  const int lps = std::max(cfg.model.n_blocks / par.pp, 1);
  auto gate = r.warm_gate(gate_config(cfg, par), cfg.warmup_iterations);
  auto demand = [&](int l) {
    return moe::aggregate_to_servers(serve_rank_bytes(*gate, l, cfg, par),
                                     rank_to_server, static_cast<int>(group.size()));
  };
  if (is_mixnet(cfg.fabric_kind)) {
    control::TopologyController ctl(*fabric, fabric->region_of(group.front()),
                                    controller_config(cfg));
    for (int l = 0; l < lps; ++l) r.prepare(ctl, demand(l), cfg.reconfig_delay);
  }
  predict::CopilotConfig cc;
  cc.n_experts = cfg.model.n_experts;
  cc.resolve_every = kServeResolveEvery;
  std::vector<predict::Copilot> copilots(static_cast<std::size_t>(lps),
                                         predict::Copilot(cc));
  std::vector<std::vector<double>> last(static_cast<std::size_t>(lps));
  for (int step = 0; step < report.engine_steps; ++step) {
    r.step_gate(*gate);
    for (int l = 0; l < lps; ++l) {
      const Matrix m = demand(l);
      r.phase("ep_all_to_all", [&] { return runner.ep_all_to_all(group, m); });
    }
    for (int l = 0; l < lps; ++l) {
      const auto li = static_cast<std::size_t>(l);
      const std::vector<double>& cur = gate->expert_load(l);
      if (!last[li].empty()) r.observe(copilots[li], last[li], cur, kServeResolveEvery);
      last[li] = cur;
    }
  }
  // Re-placement reads one prediction per stage layer on every trigger.
  if (p.serve->replacement_on)
    for (int t = 0; t < report.hotspot_triggers; ++t)
      for (int l = 0; l < lps; ++l)
        r.predict(copilots[static_cast<std::size_t>(l)],
                  last[static_cast<std::size_t>(l)]);
  return res;
}

bool is_phase(const std::string& name) {
  return (name.rfind("net.", 0) == 0 && name != "net.route") ||
         name.rfind("pkt.", 0) == 0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

TracedRun run_traced(const std::vector<exp::SweepPoint>& points,
                     SpanRecorder& rec, double base_wall_s) {
  TracedRun out;
  Counts c;
  std::set<std::string> gate_keys;
  for (const auto& p : points) {
    Replay r{rec, static_cast<int>(p.index), c,
             p.cfg.backend == net::NetBackend::kPacket};
    out.results.push_back(p.serve ? trace_serving(p, r) : trace_training(p, r));
    const long steps = p.serve ? out.results.back().extra.at("engine_steps")
                               : p.iterations;
    gate_keys.insert(gate_key(gate_config(p.cfg, resolved_par(p.cfg)),
                              p.cfg.warmup_iterations, steps));
  }

  // Per point: real iteration / run time against the replayed gate steps,
  // Copilot calls, routes and phases that happen inside it.
  const auto& spans = rec.spans();
  std::map<int, double> real_s, inside_s;
  std::map<int, bool> serving;
  for (const auto& s : spans) {
    if (s.name == "sim.iteration" || s.name == "serve.run") {
      real_s[s.point] += s.seconds();
      serving[s.point] = s.name == "serve.run";
    }
    if (s.name == "moe.step" || s.name == "net.route" ||
        s.name.rfind("predict.", 0) == 0 || is_phase(s.name))
      inside_s[s.point] += s.seconds();
  }
  double sim_self = 0.0, serve_self = 0.0;
  for (const auto& [pt, real] : real_s)
    (serving[pt] ? serve_self : sim_self) += real - inside_s[pt];

  const auto t = totals_by_name(spans);
  auto total = [&](const std::string& name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.total_s;
  };
  double net_phase = 0.0, pkt_phase = 0.0;
  for (const auto& [name, nt] : t) {
    if (!is_phase(name)) continue;
    (name.rfind("pkt.", 0) == 0 ? pkt_phase : net_phase) += nt.total_s;
  }
  const double gate_s = total("moe.construct") + total("moe.advance_steps") +
                        total("moe.step");
  const double traced_wall = total("exp.point");
  const double layer_s = gate_s + total("predict.observe") +
                         total("predict.predict") + total("topo.build") +
                         total("net.route") + net_phase + pkt_phase +
                         total("control.prepare");

  Metrics& m = out.layers;
  auto put = [&](const char* name, double v, const char* unit) { m[name] = {v, unit}; };
  put("moe.gate_s", gate_s, "s");
  put("moe.gate_steps", c.gate_steps, "count");
  put("moe.gate_traces", static_cast<double>(points.size()), "count");
  put("moe.gate_distinct_traces", static_cast<double>(gate_keys.size()), "count");
  put("predict.observe_s", total("predict.observe"), "s");
  put("predict.observe_calls", c.observe_calls, "count");
  put("predict.predict_calls", c.predict_calls, "count");
  put("predict.solves", c.solves, "count");
  put("predict.read_ratio", ratio(c.predict_calls, c.solves), "ratio");
  put("topo.build_s", total("topo.build"), "s");
  put("topo.nodes", c.nodes, "count");
  put("topo.links", c.links, "count");
  put("net.route_s", total("net.route"), "s");
  put("net.route_calls", c.route_calls, "count");
  put("net.route_dsts", c.route_dsts, "count");
  put("net.phase_s", net_phase, "s");
  put("net.phases", c.flow_phases, "count");
  put("pkt.phase_s", pkt_phase, "s");
  put("pkt.phases", c.pkt_phases, "count");
  put("sim.setup_s", total("sim.setup"), "s");
  put("sim.iteration_s", total("sim.iteration"), "s");
  put("sim.phase_cache_hits", c.cache_hits, "count");
  put("sim.phase_cache_misses", c.cache_misses, "count");
  put("sim.phase_hit_ratio", ratio(c.cache_hits, c.cache_hits + c.cache_misses),
      "ratio");
  put("sim.self_s", sim_self, "s");
  put("control.prepare_s", total("control.prepare"), "s");
  put("control.prepare_calls", c.prepare_calls, "count");
  put("control.reconfigurations", c.reconfigurations, "count");
  put("control.replacements", c.replacements, "count");
  put("control.hotspot_triggers", c.hotspot_triggers, "count");
  put("serve.setup_s", total("serve.setup"), "s");
  put("serve.run_s", total("serve.run"), "s");
  put("serve.engine_steps", c.engine_steps, "count");
  put("serve.self_s", serve_self, "s");
  put("exp.points", static_cast<double>(points.size()), "count");
  put("exp.sweep_overhead_s", base_wall_s - traced_wall, "s");
  put("trace.wall_s", traced_wall, "s");
  put("trace.base_wall_s", base_wall_s, "s");
  put("trace.overhead_ratio", ratio(traced_wall, base_wall_s), "ratio");
  put("trace.coverage", ratio(layer_s, traced_wall), "ratio");
  put("trace.spans", static_cast<double>(spans.size()), "count");
  return out;
}

}  // namespace perfbench
