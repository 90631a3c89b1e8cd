// Declarative experiment layer: sweep expansion, deterministic per-point
// seeding, serial-vs-parallel result equality, shared gate traces (their
// keys and their equivalence to private gates), the result-table emitters,
// and scenario-registry integrity.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/registry.h"
#include "exp/result_table.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "moe/gate_trace.h"
#include "sim/cluster.h"

namespace mixnet::exp {
namespace {

// A deliberately tiny training configuration so sweep tests measure the
// experiment machinery, not the simulator: truncated Mixtral (EP8 x TP4,
// two blocks) on 4 servers, as in the Fig. 10 testbed.
ScenarioSpec tiny_spec() {
  return ScenarioSpec()
      .configure([](sim::TrainingConfig& cfg) {
        cfg.model = moe::mixtral_8x7b();
        cfg.model.n_blocks = 2;
        cfg.par.ep = 8;
        cfg.par.tp = 4;
        cfg.par.pp = 1;
        cfg.par.micro_batch = 2;
        cfg.par.n_microbatches = 2;
        cfg.par_overridden = true;
        cfg.warmup_iterations = 3;
      })
      .link_gbps(100.0);
}

// ------------------------------------------------------------ expansion ----

TEST(SweepSpec, ExpandsCartesianGridLastAxisFastest) {
  const Sweep sweep = SweepSpec(ScenarioSpec::paper(
                                    moe::mixtral_8x7b(),
                                    topo::FabricKind::kFatTree, 100.0))
                          .fabrics({topo::FabricKind::kFatTree,
                                    topo::FabricKind::kMixNet})
                          .bandwidths({100.0, 400.0, 800.0})
                          .expand();
  ASSERT_EQ(sweep.size(), 6u);
  ASSERT_EQ(sweep.n_axes(), 2u);
  EXPECT_EQ(sweep.axis_name(0), "fabric");
  EXPECT_EQ(sweep.axis_name(1), "gbps");
  EXPECT_EQ(sweep.axis_size(1), 3u);

  // Row-major: bandwidth cycles fastest.
  const auto& pts = sweep.points();
  EXPECT_EQ(pts[0].cfg.fabric_kind, topo::FabricKind::kFatTree);
  EXPECT_DOUBLE_EQ(pts[0].cfg.nic_gbps, 100.0);
  EXPECT_DOUBLE_EQ(pts[1].cfg.nic_gbps, 400.0);
  EXPECT_DOUBLE_EQ(pts[2].cfg.nic_gbps, 800.0);
  EXPECT_EQ(pts[3].cfg.fabric_kind, topo::FabricKind::kMixNet);
  EXPECT_DOUBLE_EQ(pts[3].cfg.nic_gbps, 100.0);
  for (std::size_t i = 0; i < pts.size(); ++i) EXPECT_EQ(pts[i].index, i);

  // Labels carry the axis values, in axis order.
  EXPECT_EQ(pts[5].labels,
            (std::vector<std::string>{topo::to_string(topo::FabricKind::kMixNet),
                                      "800"}));
  // Exact grid indexing.
  EXPECT_EQ(sweep.flat({1, 2}), 5u);
  EXPECT_EQ(&sweep.at({0, 1}), &pts[1]);
  EXPECT_THROW(sweep.flat({1}), std::invalid_argument);
  EXPECT_THROW(sweep.flat({0, 3}), std::out_of_range);
}

TEST(SweepSpec, EmptyAxisRejected) {
  SweepSpec spec{ScenarioSpec()};
  EXPECT_THROW(spec.axis("empty", {}), std::invalid_argument);
}

TEST(ScenarioSpec, RejectsNonPositiveIterations) {
  EXPECT_THROW(ScenarioSpec().iterations(0), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec().iterations(-3), std::invalid_argument);
}

TEST(ScenarioSpec, ConfigureIsTheLastWordIncludingSeed) {
  const auto cfg = ScenarioSpec()
                       .seed(1234)
                       .configure([](sim::TrainingConfig& c) { c.seed = 7; })
                       .build_config();
  EXPECT_EQ(cfg.seed, 7u);
}

TEST(SweepSpec, NoAxesYieldsSinglePoint) {
  const Sweep sweep = SweepSpec(tiny_spec().iterations(2)).expand();
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep.points()[0].iterations, 2);
  EXPECT_TRUE(sweep.points()[0].labels.empty());
}

TEST(ScenarioSpec, ModelResolvesDefaultParallelismAndOverrides) {
  const auto cfg = ScenarioSpec::paper(moe::mixtral_8x7b(),
                                       topo::FabricKind::kMixNet, 400.0)
                       .micro_batch(16)
                       .build_config();
  const auto def = moe::default_parallelism(moe::mixtral_8x7b());
  EXPECT_TRUE(cfg.par_overridden);
  EXPECT_EQ(cfg.par.ep, def.ep);
  EXPECT_EQ(cfg.par.tp, def.tp);
  EXPECT_EQ(cfg.par.micro_batch, 16);
  EXPECT_EQ(cfg.par.n_microbatches, 4);  // the §7.1 default
  EXPECT_EQ(cfg.fabric_kind, topo::FabricKind::kMixNet);
}

// ---------------------------------------------------------------- seeds ----

TEST(SeedPolicy, SharedGivesEveryPointTheBaseSeed) {
  const Sweep sweep =
      SweepSpec(tiny_spec().seed(1234))
          .bandwidths({100.0, 200.0, 400.0})
          .expand();
  for (const auto& p : sweep.points()) EXPECT_EQ(p.cfg.seed, 1234u);
}

// Per-point seeds from (base seed, point index), assigned on the expanded
// points the way the serve scenarios do.
std::vector<SweepPoint> with_point_seeds(const Sweep& sweep) {
  std::vector<SweepPoint> points = sweep.points();
  for (SweepPoint& p : points) p.cfg.seed = derive_point_seed(p.cfg.seed, p.index);
  return points;
}

TEST(SeedPolicy, PerPointSeedsAreDistinctAndReproducible) {
  auto expand = [](std::uint64_t base) {
    return with_point_seeds(SweepSpec(tiny_spec().seed(base))
                                .bandwidths({100.0, 200.0, 400.0, 800.0})
                                .expand());
  };
  const auto a = expand(1234);
  const auto b = expand(1234);
  const auto c = expand(99);

  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Derived purely from (base seed, point index): reproducible...
    EXPECT_EQ(a[i].cfg.seed, b[i].cfg.seed);
    EXPECT_EQ(a[i].cfg.seed, derive_point_seed(1234, i));
    // ...distinct across points, and different under a different base.
    EXPECT_TRUE(seen.insert(a[i].cfg.seed).second);
    EXPECT_NE(a[i].cfg.seed, c[i].cfg.seed);
  }
}

// --------------------------------------------------------------- runner ----

RunContext jobs_ctx(int jobs) {
  RunContext ctx;
  ctx.jobs = jobs;
  return ctx;
}

TEST(SweepRunner, SerialAndParallelRunsProduceIdenticalResults) {
  const auto sweep = with_point_seeds(
      SweepSpec(tiny_spec().iterations(2))
          .fabrics({topo::FabricKind::kFatTree, topo::FabricKind::kMixNet})
          .bandwidths({100.0, 400.0})
          .expand());
  const auto serial = run_sweep(sweep, jobs_ctx(1));
  const auto parallel = run_sweep(sweep, jobs_ctx(3));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].index, i);
    EXPECT_EQ(parallel[i].index, i);
    // Bit-exact: each point owns its simulator, so scheduling cannot leak
    // between points.
    EXPECT_GT(serial[i].iter_sec, 0.0);
    EXPECT_EQ(serial[i].iter_sec, parallel[i].iter_sec);
    ASSERT_EQ(serial[i].iters.size(), parallel[i].iters.size());
    for (std::size_t k = 0; k < serial[i].iters.size(); ++k) {
      EXPECT_GT(serial[i].iters[k].total, 0);
      EXPECT_EQ(serial[i].iters[k].total, parallel[i].iters[k].total);
      EXPECT_EQ(serial[i].iters[k].ep_comm, parallel[i].iters[k].ep_comm);
      EXPECT_EQ(serial[i].iters[k].reconfigurations,
                parallel[i].iters[k].reconfigurations);
    }
    EXPECT_EQ(serial[i].timeline.total(), parallel[i].timeline.total());
  }
}

TEST(SweepRunner, ProbeRecordsCustomMetrics) {
  const Sweep sweep =
      SweepSpec(tiny_spec().probe(
                    [](sim::TrainingSimulator& simulator, PointResult& res) {
                      res.extra["servers"] =
                          static_cast<double>(simulator.fabric().n_servers());
                    }))
          .expand();
  const auto results = run_sweep(sweep, RunContext{});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].extra.at("servers"), 4.0);  // 32 GPUs / 8 per server
}

TEST(SweepRunner, EmptyPointListIsFine) {
  EXPECT_TRUE(run_sweep(std::vector<SweepPoint>{}, jobs_ctx(4)).empty());
}

// ----------------------------------------------------------- gate traces ----

moe::GateConfig trace_gate() {
  moe::GateConfig g;
  g.n_experts = 16;
  g.n_layers = 4;
  g.ep_ranks = 8;
  g.tokens_per_rank = 4096;
  g.seed = 7;
  return g;
}

TEST(GateTrace, RecordsEqualALiveGateSteppedInLockstep) {
  const moe::GateConfig g = trace_gate();
  constexpr int kWarmup = 60, kLayers = 3, kHorizon = 4;
  moe::GateTrace trace(g, kWarmup, kLayers, kHorizon);
  moe::GateSimulator live(g);
  for (int l = 0; l < g.n_layers; ++l)
    EXPECT_EQ(trace.initial_counts(l).data(), live.dispatch_counts(l).data())
        << "iteration-0 layer " << l;
  live.advance_steps(kWarmup);
  for (int i = 0; i < kHorizon; ++i) {
    live.step();
    const moe::GateTrace::Iteration& it = trace.iteration(i);
    ASSERT_EQ(it.counts.size(), static_cast<std::size_t>(kLayers));
    for (int l = 0; l < kLayers; ++l) {
      const auto lu = static_cast<std::size_t>(l);
      EXPECT_EQ(it.counts[lu].data(), live.dispatch_counts(l).data())
          << "iteration " << i << " layer " << l;
      EXPECT_EQ(it.load[lu], live.expert_load(l));
      EXPECT_EQ(moe::rank_dispatch_matrix(it.counts[lu], 8192.0).data(),
                live.rank_dispatch_matrix(l, 8192.0).data());
    }
  }
  // The horizon freed the generator: reading past it is a caller bug.
  EXPECT_FALSE(trace.generating());
  EXPECT_THROW(trace.iteration(kHorizon), std::logic_error);
  // Earlier records are untouched by later appends.
  moe::GateSimulator again(g);
  again.advance_steps(kWarmup);
  again.step();
  EXPECT_EQ(trace.iteration(0).counts[0].data(), again.dispatch_counts(0).data());
}

TEST(GateTrace, ConcurrentReadersSeeOneSequence) {
  const moe::GateConfig g = trace_gate();
  constexpr int kIters = 8;
  moe::GateTrace reference(g, 10, 2);
  auto shared = std::make_shared<moe::GateTrace>(g, 10, 2, kIters);
  // Readers race to extend the trace, each walking a different order.
  std::vector<std::vector<const moe::GateTrace::Iteration*>> seen(4);
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t)
    readers.emplace_back([&, t] {
      for (int k = 0; k < kIters; ++k)
        seen[static_cast<std::size_t>(t)].push_back(
            &shared->iteration(t % 2 ? kIters - 1 - k : k));
    });
  for (auto& r : readers) r.join();
  for (int t = 0; t < 4; ++t)
    for (int k = 0; k < kIters; ++k) {
      const int i = t % 2 ? kIters - 1 - k : k;
      const auto* it = seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)];
      EXPECT_EQ(it, &shared->iteration(i));  // published records never move
      EXPECT_EQ(it->counts[1].data(), reference.iteration(i).counts[1].data());
    }
  EXPECT_FALSE(shared->generating());
}

std::string config_key(const sim::TrainingConfig& cfg) {
  return moe::gate_trace_key(sim::gate_config(cfg), cfg.warmup_iterations);
}

TEST(GateTraceKey, EveryGateFieldAndTheWarmupChangeTheKey) {
  const moe::GateConfig base = trace_gate();
  const std::vector<std::function<void(moe::GateConfig&)>> changes = {
      [](moe::GateConfig& g) { g.n_experts = 32; },
      [](moe::GateConfig& g) { g.n_layers = 5; },
      [](moe::GateConfig& g) { g.ep_ranks = 4; },
      [](moe::GateConfig& g) { g.tokens_per_rank = 4096.5; },
      [](moe::GateConfig& g) { g.dirichlet_alpha = 0.3; },
      [](moe::GateConfig& g) { g.transition_alpha = 0.09; },
      [](moe::GateConfig& g) { g.personalization = 0.7; },
      [](moe::GateConfig& g) { g.drift_sigma = 0.07; },
      [](moe::GateConfig& g) { g.pref_drift_sigma = 0.45; },
      [](moe::GateConfig& g) { g.pref_retention = 0.97; },
      [](moe::GateConfig& g) { g.lb_final = 0.4; },
      [](moe::GateConfig& g) { g.lb_timescale = 2001.0; },
      [](moe::GateConfig& g) { g.seed = 8; },
      [](moe::GateConfig& g) { g.rng_mode = Rng::Mode::kSequential; },
  };
  std::set<std::string> keys = {moe::gate_trace_key(base, 100)};
  EXPECT_EQ(moe::gate_trace_key(base, 100), moe::gate_trace_key(base, 100));
  EXPECT_TRUE(keys.insert(moe::gate_trace_key(base, 101)).second);
  for (std::size_t c = 0; c < changes.size(); ++c) {
    moe::GateConfig g = base;
    changes[c](g);
    EXPECT_TRUE(keys.insert(moe::gate_trace_key(g, 100)).second)
        << "GateConfig change #" << c << " left the key unchanged";
  }
}

TEST(GateTraceKey, ComesFromTheGateAConfigDrives) {
  const sim::TrainingConfig base = ScenarioSpec::paper(
      moe::mixtral_8x7b(), topo::FabricKind::kFatTree, 400.0).build_config();
  const std::string key = config_key(base);
  // What the gate runs on changes the key...
  const std::vector<std::function<void(sim::TrainingConfig&)>> keyed = {
      [](sim::TrainingConfig& c) { c.seed = 43; },
      [](sim::TrainingConfig& c) { c.warmup_iterations = 99; },
      [](sim::TrainingConfig& c) { c.par.ep = 4; },
      [](sim::TrainingConfig& c) { c.model.n_blocks = 31; },
      [](sim::TrainingConfig& c) { c.model.n_experts = 16; },
      [](sim::TrainingConfig& c) { c.par.micro_batch = 4; },
      [](sim::TrainingConfig& c) { c.gate.dirichlet_alpha = 0.3; },
      [](sim::TrainingConfig& c) { c.gate.lb_final = 0.4; },
      [](sim::TrainingConfig& c) { c.gate.rng_mode = Rng::Mode::kSequential; },
  };
  for (std::size_t c = 0; c < keyed.size(); ++c) {
    sim::TrainingConfig cfg = base;
    cfg.par_overridden = true;  // keep par edits
    keyed[c](cfg);
    EXPECT_NE(config_key(cfg), key) << "config change #" << c;
  }
  // ...what it is replayed on does not.
  const std::vector<std::function<void(sim::TrainingConfig&)>> unkeyed = {
      [](sim::TrainingConfig& c) { c.fabric_kind = topo::FabricKind::kMixNet; },
      [](sim::TrainingConfig& c) { c.fabric_kind = topo::FabricKind::kTopoOpt; },
      [](sim::TrainingConfig& c) { c.nic_gbps = 100.0; },
      [](sim::TrainingConfig& c) { c.par.dp = 4; },
      [](sim::TrainingConfig& c) { c.use_copilot = true; },
      [](sim::TrainingConfig& c) { c.backend = net::NetBackend::kPacket; },
      // Derived fields are overwritten by sim::gate_config.
      [](sim::TrainingConfig& c) { c.gate.seed = 1; },
      [](sim::TrainingConfig& c) { c.gate.ep_ranks = 3; },
  };
  for (std::size_t c = 0; c < unkeyed.size(); ++c) {
    sim::TrainingConfig cfg = base;
    cfg.par_overridden = true;
    unkeyed[c](cfg);
    EXPECT_EQ(config_key(cfg), key) << "config change #" << c;
  }
}

void expect_same_results(const std::vector<PointResult>& want,
                         const std::vector<PointResult>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    ASSERT_TRUE(got[i].ok()) << got[i].error;
    EXPECT_EQ(want[i].iter_sec, got[i].iter_sec);
    ASSERT_EQ(want[i].iters.size(), got[i].iters.size());
    for (std::size_t k = 0; k < want[i].iters.size(); ++k) {
      const sim::IterationResult& a = want[i].iters[k];
      const sim::IterationResult& b = got[i].iters[k];
      EXPECT_EQ(a.total, b.total);
      EXPECT_EQ(a.ep_comm, b.ep_comm);
      EXPECT_EQ(a.pp_send, b.pp_send);
      EXPECT_EQ(a.dp_comm, b.dp_comm);
      EXPECT_EQ(a.reconfig_blocked, b.reconfig_blocked);
      EXPECT_EQ(a.compute, b.compute);
      EXPECT_EQ(a.reconfigurations, b.reconfigurations);
      EXPECT_EQ(a.tokens, b.tokens);
    }
    EXPECT_EQ(want[i].timeline.total(), got[i].timeline.total());
    EXPECT_EQ(want[i].timeline.reconfig_blocked, got[i].timeline.reconfig_blocked);
  }
}

TEST(SweepRunner, SharedGateTracesMatchStandaloneSimulators) {
  // One gate key, many consumers: all five fabrics, MixNet planning from
  // Copilot, the packet backend, a two-stage pipeline (fewer layers per
  // stage) and two iteration counts.
  std::vector<SweepPoint> points =
      SweepSpec(tiny_spec().iterations(2)).fabrics(evaluated_fabrics()).expand().points();
  auto add = [&](ScenarioSpec spec) {
    SweepPoint p = SweepSpec(std::move(spec)).expand().points().front();
    p.index = points.size();
    points.push_back(std::move(p));
  };
  add(tiny_spec().fabric(topo::FabricKind::kMixNet).copilot(true).iterations(3));
  add(tiny_spec().fabric(topo::FabricKind::kFatTree).iterations(3));
  // Packet points run 1 MiB packets: the MTU is not gate material, and
  // fewer packets keep the race-detector run short.
  for (const auto kind : {topo::FabricKind::kFatTree, topo::FabricKind::kMixNet})
    add(tiny_spec().fabric(kind).backend(net::NetBackend::kPacket).iterations(2)
            .configure([](sim::TrainingConfig& cfg) { cfg.pkt.mtu_bytes = 1 << 20; }));
  add(tiny_spec().configure([](sim::TrainingConfig& cfg) { cfg.par.pp = 2; }));
  for (const auto& p : points) EXPECT_EQ(config_key(p.cfg), config_key(points[0].cfg));

  std::vector<PointResult> standalone;
  for (const auto& p : points) standalone.push_back(run_point(p));
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    SweepStats stats;
    RunContext ctx = jobs_ctx(jobs);
    ctx.stats = &stats;
    expect_same_results(standalone, run_sweep(points, ctx));
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.gate_traces, 1u);
  }
}

TEST(SweepRunner, MismatchedGateTraceIsRejected) {
  const SweepPoint p = SweepSpec(tiny_spec()).expand().points().front();
  const moe::GateConfig gate = sim::gate_config(p.cfg);
  const int warmup = p.cfg.warmup_iterations;
  const int layers = sim::layers_per_stage(p.cfg);
  moe::GateConfig other = gate;
  other.seed += 1;
  EXPECT_THROW(sim::TrainingSimulator(
                   p.cfg, std::make_shared<moe::GateTrace>(other, warmup, layers)),
               std::invalid_argument);
  EXPECT_THROW(sim::TrainingSimulator(
                   p.cfg, std::make_shared<moe::GateTrace>(gate, warmup + 1, layers)),
               std::invalid_argument);
  EXPECT_THROW(sim::TrainingSimulator(
                   p.cfg, std::make_shared<moe::GateTrace>(gate, warmup, layers - 1)),
               std::invalid_argument);
  EXPECT_NO_THROW(sim::TrainingSimulator(
      p.cfg, std::make_shared<moe::GateTrace>(gate, warmup, layers)));
}

// -------------------------------------------------------------- emitters ----

ResultTable sample_table() {
  ResultTable t("Figure X", "sample", {"name", "value"}, 8);
  t.add_row({"a", Cell::num(1.5, 2)});
  t.add_row({"b,c", Cell::num(0.25, 1, "+", "%")});
  t.add_footer("ratio: 2x");
  return t;
}

TEST(ResultTable, TextRendersLegacyFixedWidthFormat) {
  EXPECT_EQ(sample_table().to_text(),
            "\n==== Figure X: sample ====\n"
            "name    value   \n"
            "a       1.50    \n"
            "b,c     +0.2%   \n"
            "ratio: 2x\n");
}

TEST(ResultTable, TextSeparatesOverWidthCells) {
  ResultTable t("Figure Y", "wide", {"label", "value"}, 8);
  t.add_row({"re-placement off", Cell::num(840.7, 1)});
  t.add_row({"exactly8", Cell::num(1.0, 1)});
  EXPECT_EQ(t.to_text(),
            "\n==== Figure Y: wide ====\n"
            "label   value   \n"
            "re-placement off 840.7   \n"
            "exactly8 1.0     \n");
}

TEST(ResultTable, CsvEmitsRawValuesAndQuotesText) {
  EXPECT_EQ(sample_table().to_csv(),
            "name,value\n"
            "a,1.5\n"
            "\"b,c\",0.25\n");
}

TEST(ResultTable, JsonEmitsTypedCells) {
  EXPECT_EQ(sample_table().to_json(),
            "{\"id\":\"Figure X\",\"title\":\"sample\","
            "\"columns\":[\"name\",\"value\"],"
            "\"rows\":[[\"a\",1.5],[\"b,c\",0.25]],"
            "\"footers\":[\"ratio: 2x\"]}");
}

TEST(ResultTable, JsonEscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(ScenarioResultEmitters, ComposeTablesAndNote) {
  ScenarioResult r;
  r.name = "figX";
  r.tables.push_back(sample_table());
  r.note = "Paper: shape.";
  EXPECT_NE(r.to_text().find("==== Figure X"), std::string::npos);
  EXPECT_NE(r.to_text().find("\nPaper: shape.\n"), std::string::npos);
  EXPECT_NE(r.to_csv().find("# Figure X: sample"), std::string::npos);
  EXPECT_NE(r.to_csv().find("# Paper: shape."), std::string::npos);
  EXPECT_EQ(r.to_json().find("{\"scenario\":\"figX\",\"tables\":[{"), 0u);
}

// -------------------------------------------------------------- registry ----

TEST(ScenarioRegistry, EveryPaperFigureIsRegistered) {
  const auto& reg = ScenarioRegistry::paper();
  const std::vector<std::string> expected = {
      "fig02", "fig03", "fig04", "fig05", "fig10", "fig11",
      "fig12", "fig13", "fig14", "fig16", "fig19", "fig21",
      "fig24", "fig25", "fig26", "fig26-xl", "fig27", "fig28",
      "tables", "ablation", "serve-steady", "serve-diurnal",
      "serve-storm", "fidelity-ladder"};
  for (const auto& name : expected) {
    const ScenarioInfo* s = reg.find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_FALSE(s->figure.empty());
    EXPECT_FALSE(s->title.empty());
    EXPECT_FALSE(s->group.empty()) << name;
    EXPECT_TRUE(static_cast<bool>(s->run));
  }
  EXPECT_EQ(reg.scenarios().size(), expected.size());
  EXPECT_EQ(reg.find("fig99"), nullptr);
}

TEST(ScenarioRegistry, RejectsDuplicateNames) {
  ScenarioRegistry reg;
  reg.add({"x", "X", "first", nullptr, {}, "test"});
  EXPECT_THROW(reg.add({"x", "X", "again", nullptr, {}, "test"}),
               std::invalid_argument);
}

// The analytic scenarios are cheap enough to run end-to-end here: the
// registry entry must produce non-empty tables through the real pipeline.
TEST(ScenarioRegistry, AnalyticScenarioRunsEndToEnd) {
  const ScenarioInfo* s = ScenarioRegistry::paper().find("tables");
  ASSERT_NE(s, nullptr);
  const ScenarioResult r = s->run(RunContext{});
  ASSERT_EQ(r.tables.size(), 4u);
  EXPECT_EQ(r.tables[0].id(), "Table 1");
  EXPECT_FALSE(r.tables[0].rows().empty());
}

// fig26's check gates EXPERIMENTS.md's row: linear tokens/s scaling per
// fabric, MixNet within 6% of fat-tree, and MixNet's perf/$ lead.
TEST(ScenarioRegistry, Fig26CheckGatesScalingAndPerfPerDollar) {
  const ScenarioInfo* s = ScenarioRegistry::paper().find("fig26");
  ASSERT_NE(s, nullptr);
  ASSERT_TRUE(s->check);
  const auto result = [](double mixnet_at_4096, double rail_ppd) {
    const std::vector<std::string> cols = {"# GPUs", "MixNet", "Fat-tree",
                                           "Rail-optimized"};
    ResultTable ta("Figure 26a", "tokens/s", cols);
    ResultTable tb("Figure 26b", "perf/$", cols);
    for (int k = 0; k < 3; ++k) {
      const double scale = static_cast<double>(1 << k);
      const std::string gpus = std::to_string(1024 << k);
      ta.add_row({gpus, Cell::num(k == 2 ? mixnet_at_4096 : scale, 2),
                  Cell::num(1.04 * scale, 2), Cell::num(1.04 * scale, 2)});
      tb.add_row({gpus, Cell::num(1.97, 2), Cell::num(1.0, 2),
                  Cell::num(rail_ppd, 2)});
    }
    ScenarioResult r;
    r.name = "fig26";
    r.tables = {ta, tb};
    return r;
  };
  EXPECT_TRUE(s->check(result(4.0, 1.09)).empty());
  // 3.5 at 4096 GPUs: 12.5% below linear and 16% behind fat-tree.
  EXPECT_EQ(s->check(result(3.5, 1.09)).size(), 2u);
  // Rail-optimized ahead on perf/$ at every size.
  EXPECT_EQ(s->check(result(4.0, 2.5)).size(), 3u);
  EXPECT_FALSE(s->check(ScenarioResult{}).empty());
}

TEST(ScenarioRegistry, ListScenariosJsonIsWellFormedAndComplete) {
  const std::string json = list_scenarios_json(ScenarioRegistry::paper());
  EXPECT_EQ(json.rfind("{\"scenarios\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  EXPECT_NE(json.find("{\"name\":\"fig13\",\"figure\":\"Figure 13\""),
            std::string::npos);
  EXPECT_NE(json.find("\"has_check\":true"), std::string::npos);
  // Each scenario carries its family for group-level tooling.
  EXPECT_NE(json.find("\"group\":\"training\""), std::string::npos);
  EXPECT_NE(json.find("\"group\":\"serve\""), std::string::npos);
  // One object per registered scenario.
  std::size_t objects = 0;
  for (std::size_t at = json.find("{\"name\":"); at != std::string::npos;
       at = json.find("{\"name\":", at + 1))
    ++objects;
  EXPECT_EQ(objects, ScenarioRegistry::paper().scenarios().size());
  // The topology-preset section: every kind appears with its canonical
  // Fabric::describe() JSON, and analytic-core variants are included for
  // the kinds that support them (collapsed-core flag surfaced).
  EXPECT_NE(json.find("\"fabrics\":["), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"Fat-tree\""), std::string::npos);
  EXPECT_NE(json.find("\"core_model\":\"analytic\""), std::string::npos);
  EXPECT_NE(json.find("\"core_collapsed\":true"), std::string::npos);
  EXPECT_NE(json.find("\"describe\":{"), std::string::npos);
}

// Golden output for Figure 5, byte-exact against the pre-registry
// standalone Figure 5 harness at its last revision. Guards the footer
// rendering: the "Paper:" note rides as a table footer specifically so no
// blank line separates it from the locality line -- a drift the registry
// port introduced once already.
TEST(ScenarioRegistry, Fig05GoldenOutput) {
  const ScenarioInfo* s = ScenarioRegistry::paper().find("fig05");
  ASSERT_NE(s, nullptr);
  const ScenarioResult r = s->run(RunContext{});
  EXPECT_EQ(
      r.to_text(),
      "\n"
      "==== Figure 5: 128-GPU traffic matrix: per-32-GPU-block volume (GB) "
      "====\n"
      "            blk0        blk1        blk2        blk3        \n"
      "blk0        427.2       4.3         0.0         0.0         \n"
      "blk1        0.0         427.8       4.3         0.0         \n"
      "blk2        0.0         0.0         428.7       4.3         \n"
      "blk3        0.0         0.0         0.0         426.2       \n"
      "\n"
      "block locality (fraction of volume within 32-GPU EP blocks): 0.993\n"
      "Paper: strong diagonal locality -- EP all-to-all never crosses\n"
      "MoE-block (PP stage) boundaries.\n");
}

}  // namespace
}  // namespace mixnet::exp
