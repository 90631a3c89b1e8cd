#include "workloads.h"

#include <utility>

#include "moe/models.h"

namespace perfbench {
namespace {

using mixnet::exp::ScenarioSpec;
using mixnet::exp::SweepPoint;
using mixnet::topo::FabricKind;

// Sizes are set so one pass of each workload takes at most a few seconds on
// a 4-core x86 host (README.md), leaving many passes per measured run.
//
// Requests per serving point: with about 20 output tokens each (output_mu
// 3.0), a point runs about 160 engine steps, midway between the Copilot's
// 64-step re-solves, so no seed tips a point into an extra solve.
constexpr int kServeRequests = 8;
constexpr int kDeepSeekBlocks = 16;                                 // train_sweep
const std::vector<int> kScaleRailGpus = {1024, 2048, 3072, 4096};  // scale_rail

SweepPoint training_point(std::size_t index, std::vector<std::string> labels,
                          const ScenarioSpec& spec) {
  SweepPoint p;
  p.index = index;
  p.labels = std::move(labels);
  p.cfg = spec.build_config();
  p.cfg.seed = spec.seed();
  p.iterations = spec.iterations();
  return p;
}

// Fig. 12-class grid at 1024 GPUs on the flow backend. The bandwidth axis is
// a Latin square over (model, fabric): every model and every fabric meets
// each of 100/200/400/800 Gbps, in a quarter of the full grid's points. All
// points share the workload seed, so the gate trace of a model is identical
// across its fabrics — the redundancy a shared gate-trace cache removes.
std::vector<SweepPoint> train_sweep(std::uint64_t seed) {
  const std::vector<double> gbps = {100.0, 200.0, 400.0, 800.0};
  auto models = mixnet::moe::simulation_models();
  // DeepSeek-R1's 61 blocks behind 256-expert gates cost ten times the
  // other three models together; 16 blocks (one per pipeline stage) keep it
  // the gate-heaviest model while a pass still fits a few seconds.
  for (auto& m : models)
    if (m.name == "DeepSeek-R1") m.n_blocks = kDeepSeekBlocks;
  const auto& fabrics = mixnet::exp::evaluated_fabrics();
  std::vector<SweepPoint> points;
  for (std::size_t m = 0; m < models.size(); ++m)
    for (std::size_t k = 0; k < fabrics.size(); ++k) {
      const double g = gbps[(m + k) % gbps.size()];
      points.push_back(training_point(
          points.size(),
          {models[m].name, mixnet::topo::to_string(fabrics[k]),
           std::to_string(static_cast<int>(g)) + "G"},
          ScenarioSpec::paper(models[m], fabrics[k], g).seed(seed)));
    }
  // MixNet planning from Copilot-predicted demand (§B.1).
  for (const auto& model : models)
    points.push_back(training_point(
        points.size(), {model.name, "mixnet+copilot", "400G"},
        ScenarioSpec::paper(model, FabricKind::kMixNet, 400.0)
            .copilot(true)
            .seed(seed)));
  // Packet-backend slice: a fig10 testbed-class Mixtral (32 GPUs, 100 Gbps,
  // 1 EPS + 3 OCS NICs for MixNet), cut to 2 blocks and one-sequence
  // micro-batches so the packet engine's share stays a slice.
  for (FabricKind kind : {FabricKind::kFatTree, FabricKind::kMixNet})
    points.push_back(training_point(
        points.size(), {"Mixtral 8x7B/2", mixnet::topo::to_string(kind), "packet"},
        ScenarioSpec()
            .fabric(kind)
            .backend(mixnet::net::NetBackend::kPacket)
            .seed(seed)
            .configure([](mixnet::sim::TrainingConfig& cfg) {
              cfg.model = mixnet::moe::mixtral_8x7b();
              cfg.model.n_blocks = 2;
              cfg.par.ep = 8;
              cfg.par.tp = 4;
              cfg.par.pp = 1;
              cfg.par.micro_batch = 1;
              cfg.par.n_microbatches = 4;
              cfg.par_overridden = true;
              cfg.nic_gbps = 100.0;
              cfg.nics_per_server = 4;
              cfg.eps_nics = 1;
              cfg.optical_degree = 3;
              cfg.nvlink_gbps_per_gpu = 2400.0;
            })));
  return points;
}

// The serving replica of the serve-* scenarios: Qwen-MoE truncated to a
// 4-block stage on 4 MixNet servers (EP16 x TP2).
mixnet::sim::TrainingConfig serve_cluster() {
  mixnet::sim::TrainingConfig cfg;
  cfg.model = mixnet::moe::qwen_moe();
  cfg.model.n_blocks = 4;
  cfg.par.ep = 16;
  cfg.par.tp = 2;
  cfg.par.pp = 1;
  cfg.par.dp = 1;
  cfg.par.seq_len = 4096;
  cfg.par.micro_batch = 1;
  cfg.par.n_microbatches = 1;
  cfg.par_overridden = true;
  cfg.fabric_kind = FabricKind::kMixNet;
  cfg.nic_gbps = 400.0;
  cfg.warmup_iterations = 32;
  return cfg;
}

SweepPoint serve_point(std::size_t index, std::string label,
                       mixnet::sim::TrainingConfig cfg,
                       const mixnet::serve::ServeConfig& scfg,
                       std::uint64_t seed) {
  SweepPoint p;
  p.index = index;
  p.labels = {std::move(label)};
  p.cfg = std::move(cfg);
  p.cfg.seed = seed;
  p.serve = scfg;
  return p;
}

// Serving points are many short traces rather than a few long ones: a run
// times each point on its own (main.cc), and short points let it find the
// host's fast moments. The Copilot's cost, most of a serving point's, comes
// in solves every 64 engine steps, so the step count must not swing with
// the seed: output lengths are narrow (sigma 0.05 against the scenarios'
// 0.5), and the engine admits one request per step, which fixes the step
// count at the drawn token counts (under continuous batching it moved with
// the arrival pattern, by up to 15% between seeds).

// Open-loop Poisson serving at four arrival rates, re-placement off: the
// Copilot observes every step and re-solves every 64, but nothing reads it.
std::vector<SweepPoint> serve_steady(std::uint64_t seed) {
  const std::vector<double> rates = {4.0, 8.0, 16.0, 32.0};
  constexpr std::size_t kReplicas = 2;  // points per rate
  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < rates.size() * kReplicas; ++i) {
    const double rate = rates[i % rates.size()];
    mixnet::serve::ServeConfig scfg;
    scfg.arrival_rate_hz = rate;
    scfg.n_requests = kServeRequests;
    scfg.output_mu = 3.0;
    scfg.output_sigma = 0.05;
    scfg.max_batch_requests = 1;
    points.push_back(serve_point(
        i, std::to_string(static_cast<int>(rate)) + " req/s", serve_cluster(),
        scfg, mixnet::exp::derive_point_seed(seed, i)));
  }
  return points;
}

// Burst arrivals with re-placement on, under serve-storm's gate skew: the
// hotspot -> Copilot prediction -> expert swap -> OCS re-prepare loop runs.
std::vector<SweepPoint> serve_storm(std::uint64_t seed) {
  const std::vector<double> rates = {12.0, 16.0};
  constexpr std::size_t kReplicas = 3;  // points per rate
  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < rates.size() * kReplicas; ++i) {
    const double rate = rates[i % rates.size()];
    mixnet::serve::ServeConfig scfg;
    scfg.shape = mixnet::serve::ArrivalShape::kBurst;
    scfg.arrival_rate_hz = rate;
    scfg.burst_factor = 8.0;
    scfg.burst_start_s = 0.25;
    scfg.burst_len_s = 1.0;
    scfg.n_requests = kServeRequests;
    scfg.output_mu = 3.0;
    scfg.output_sigma = 0.05;
    scfg.prompt_mu = 7.0;
    scfg.prompt_sigma = 0.1;
    scfg.max_batch_requests = 1;
    scfg.replacement_on = true;
    mixnet::sim::TrainingConfig cfg = serve_cluster();
    cfg.gate.personalization = 0.9;
    cfg.gate.pref_retention = 0.999;
    cfg.gate.pref_drift_sigma = 0.1;
    points.push_back(serve_point(
        i, std::to_string(static_cast<int>(rate)) + " req/s burst",
        std::move(cfg), scfg, mixnet::exp::derive_point_seed(seed, i)));
  }
  return points;
}

// Fig. 26-class cluster-size sweep of Mixtral 8x7B at 400 Gbps with an
// explicit rail-optimized column, whose per-destination BFS route trees
// dominate; fabric size drives topology build time and memory. It stops at
// 4096 GPUs (512 servers), where every route destination of a point still
// fits the phase runner's 512-tree router cache, so on the circuit-free
// columns the traced run's route replay leaves its phases no trees to build.
std::vector<SweepPoint> scale_rail(std::uint64_t seed) {
  const std::vector<FabricKind> kinds = {
      FabricKind::kMixNet, FabricKind::kFatTree, FabricKind::kRailOptimized};
  std::vector<SweepPoint> points;
  for (int gpus : kScaleRailGpus)
    for (FabricKind kind : kinds)
      points.push_back(training_point(
          points.size(), {std::to_string(gpus) + " GPUs", mixnet::topo::to_string(kind)},
          ScenarioSpec::paper(mixnet::moe::mixtral_8x7b(), kind, 400.0,
                              /*n_microbatches=*/2)
              .seed(seed)
              .configure([gpus](mixnet::sim::TrainingConfig& cfg) {
                cfg.par.dp = gpus / cfg.par.gpus_per_replica();
              })));
  return points;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"train-sweep", train_sweep},
      {"serve-steady", serve_steady},
      {"serve-storm", serve_storm},
      {"scale-rail", scale_rail},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

}  // namespace perfbench
