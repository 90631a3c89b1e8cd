#include "exp/scenario.h"

#include <cassert>
#include <stdexcept>

#include "common/hash.h"
#include "exp/result_table.h"

namespace mixnet::exp {

std::uint64_t derive_point_seed(std::uint64_t base_seed, std::size_t index) {
  std::uint64_t h = hash64_mix(kHash64Seed, base_seed);
  h = hash64_mix(h, static_cast<std::uint64_t>(index));
  return hash64_finalize(h);
}

ScenarioSpec ScenarioSpec::paper(const moe::MoeModelConfig& model,
                                 topo::FabricKind kind, double gbps,
                                 int n_microbatches) {
  ScenarioSpec s;
  s.model(model).fabric(kind).link_gbps(gbps).n_microbatches(n_microbatches);
  return s;
}

ScenarioSpec& ScenarioSpec::model(const moe::MoeModelConfig& m) {
  cfg_.model = m;
  model_set_ = true;
  return *this;
}

ScenarioSpec& ScenarioSpec::fabric(topo::FabricKind k) {
  cfg_.fabric_kind = k;
  return *this;
}

ScenarioSpec& ScenarioSpec::core_model(topo::CoreModel m) {
  cfg_.core_model = m;
  return *this;
}

ScenarioSpec& ScenarioSpec::link_gbps(double g) {
  cfg_.nic_gbps = g;
  return *this;
}

ScenarioSpec& ScenarioSpec::backend(net::NetBackend b) {
  cfg_.backend = b;
  return *this;
}

ScenarioSpec& ScenarioSpec::micro_batch(int sequences) {
  micro_batch_ = sequences;
  return *this;
}

ScenarioSpec& ScenarioSpec::n_microbatches(int n) {
  n_microbatches_ = n;
  return *this;
}

ScenarioSpec& ScenarioSpec::failure(control::FailureScenario f) {
  cfg_.failure = f;
  return *this;
}

ScenarioSpec& ScenarioSpec::copilot(bool on) {
  cfg_.use_copilot = on;
  return *this;
}

ScenarioSpec& ScenarioSpec::reconfig_delay(TimeNs delay) {
  cfg_.reconfig_delay = delay;
  return *this;
}

ScenarioSpec& ScenarioSpec::warmup(int iterations) {
  cfg_.warmup_iterations = iterations;
  return *this;
}

ScenarioSpec& ScenarioSpec::configure(
    std::function<void(sim::TrainingConfig&)> fn) {
  mutations_.push_back(std::move(fn));
  return *this;
}

ScenarioSpec& ScenarioSpec::iterations(int n) {
  if (n < 1) throw std::invalid_argument("ScenarioSpec: iterations must be >= 1");
  iterations_ = n;
  return *this;
}

ScenarioSpec& ScenarioSpec::seed(std::uint64_t s) {
  seed_ = s;
  return *this;
}

ScenarioSpec& ScenarioSpec::probe(ProbeFn fn) {
  probe_ = std::move(fn);
  return *this;
}

sim::TrainingConfig ScenarioSpec::build_config() const {
  sim::TrainingConfig cfg = cfg_;
  if (model_set_) {
    cfg.par = moe::default_parallelism(cfg.model);
    cfg.par_overridden = true;
  }
  if (micro_batch_ > 0) cfg.par.micro_batch = micro_batch_;
  if (n_microbatches_ > 0) cfg.par.n_microbatches = n_microbatches_;
  // Seed lands before the configure() callbacks: they are the documented
  // last-word escape hatch, so a mutation that sets cfg.seed must win.
  cfg.seed = seed_;
  for (const auto& fn : mutations_) fn(cfg);
  return cfg;
}

Sweep::Sweep(std::vector<std::string> axis_names,
             std::vector<std::size_t> axis_sizes, std::vector<SweepPoint> points)
    : axis_names_(std::move(axis_names)),
      axis_sizes_(std::move(axis_sizes)),
      points_(std::move(points)) {}

std::size_t Sweep::flat(std::initializer_list<std::size_t> axis_indices) const {
  if (axis_indices.size() != axis_sizes_.size())
    throw std::invalid_argument("Sweep::flat: wrong number of axis indices");
  std::size_t idx = 0;
  std::size_t axis = 0;
  for (std::size_t i : axis_indices) {
    if (i >= axis_sizes_[axis])
      throw std::out_of_range("Sweep::flat: axis index out of range");
    idx = idx * axis_sizes_[axis] + i;
    ++axis;
  }
  return idx;
}

SweepSpec& SweepSpec::axis(std::string name, std::vector<AxisValue> values) {
  if (values.empty()) throw std::invalid_argument("empty sweep axis: " + name);
  axes_.push_back({std::move(name), std::move(values)});
  return *this;
}

SweepSpec& SweepSpec::fabrics(const std::vector<topo::FabricKind>& kinds) {
  std::vector<AxisValue> vs;
  for (auto k : kinds)
    vs.push_back({topo::to_string(k), [k](ScenarioSpec& s) { s.fabric(k); }});
  return axis("fabric", std::move(vs));
}

SweepSpec& SweepSpec::bandwidths(const std::vector<double>& gbps) {
  std::vector<AxisValue> vs;
  for (double g : gbps)
    vs.push_back({fmt(g, 0), [g](ScenarioSpec& s) { s.link_gbps(g); }});
  return axis("gbps", std::move(vs));
}

SweepSpec& SweepSpec::micro_batches(const std::vector<int>& sizes) {
  std::vector<AxisValue> vs;
  for (int mb : sizes)
    vs.push_back(
        {std::to_string(mb), [mb](ScenarioSpec& s) { s.micro_batch(mb); }});
  return axis("micro_batch", std::move(vs));
}

Sweep SweepSpec::expand() const {
  std::vector<std::string> names;
  std::vector<std::size_t> sizes;
  std::size_t total = 1;
  for (const auto& a : axes_) {
    names.push_back(a.name);
    sizes.push_back(a.values.size());
    total *= a.values.size();
  }

  std::vector<SweepPoint> points;
  points.reserve(total);
  std::vector<std::size_t> coord(axes_.size(), 0);
  for (std::size_t idx = 0; idx < total; ++idx) {
    ScenarioSpec spec = base_;
    SweepPoint p;
    p.index = idx;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const AxisValue& v = axes_[a].values[coord[a]];
      p.labels.push_back(v.label);
      v.apply(spec);
    }
    p.cfg = spec.build_config();
    p.iterations = spec.iterations();
    p.probe = spec.probe();
    points.push_back(std::move(p));
    // Odometer increment, last axis fastest.
    for (std::size_t a = axes_.size(); a-- > 0;) {
      if (++coord[a] < axes_[a].values.size()) break;
      coord[a] = 0;
    }
  }
  return Sweep(std::move(names), std::move(sizes), std::move(points));
}

const std::vector<topo::FabricKind>& evaluated_fabrics() {
  static const std::vector<topo::FabricKind> kinds = {
      topo::FabricKind::kFatTree, topo::FabricKind::kRailOptimized,
      topo::FabricKind::kOverSubFatTree, topo::FabricKind::kTopoOpt,
      topo::FabricKind::kMixNet};
  return kinds;
}

}  // namespace mixnet::exp
