// Staged sweep engine (DESIGN.md §9): canonical serialization, content-key
// stability, record round-trips, disk-cache persistence, shard/merge
// bit-equality, resume-after-kill, and per-point error capture.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/canonical.h"
#include "exp/cache_key.h"
#include "exp/registry.h"
#include "exp/result_cache.h"
#include "exp/runner.h"
#include "exp/scenario.h"

namespace mixnet::exp {
namespace {

// Fresh cache directory per test; removed on destruction.
struct TempCacheDir {
  std::string path;
  TempCacheDir() {
    char tmpl[] = "/tmp/mixnet-cache-test-XXXXXX";
    const char* p = mkdtemp(tmpl);
    if (!p) throw std::runtime_error("mkdtemp failed");
    path = p;
  }
  ~TempCacheDir() {
    const std::string cmd = "rm -rf '" + path + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
};

// Same tiny configuration as exp_test.cc: sweep tests measure the engine,
// not the simulator.
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

// Per-point seeds from (base seed, point index), assigned on the expanded
// points the way the serve scenarios do.
std::vector<SweepPoint> with_point_seeds(const Sweep& sweep) {
  std::vector<SweepPoint> points = sweep.points();
  for (SweepPoint& p : points) p.cfg.seed = derive_point_seed(p.cfg.seed, p.index);
  return points;
}

std::vector<SweepPoint> tiny_sweep() {
  return with_point_seeds(
      SweepSpec(tiny_spec().iterations(2))
          .fabrics({topo::FabricKind::kFatTree, topo::FabricKind::kMixNet})
          .bandwidths({100.0, 200.0, 400.0})
          .expand());
}

void expect_identical(const PointResult& a, const PointResult& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.iterations, b.iterations);
  // Bit-exact, not approximately equal: the cache must render byte-identical
  // tables.
  EXPECT_EQ(a.iter_sec, b.iter_sec);
  ASSERT_EQ(a.iters.size(), b.iters.size());
  for (std::size_t k = 0; k < a.iters.size(); ++k) {
    EXPECT_EQ(a.iters[k].total, b.iters[k].total);
    EXPECT_EQ(a.iters[k].ep_comm, b.iters[k].ep_comm);
    EXPECT_EQ(a.iters[k].pp_send, b.iters[k].pp_send);
    EXPECT_EQ(a.iters[k].dp_comm, b.iters[k].dp_comm);
    EXPECT_EQ(a.iters[k].reconfig_blocked, b.iters[k].reconfig_blocked);
    EXPECT_EQ(a.iters[k].compute, b.iters[k].compute);
    EXPECT_EQ(a.iters[k].reconfigurations, b.iters[k].reconfigurations);
    EXPECT_EQ(a.iters[k].tokens, b.iters[k].tokens);
  }
  EXPECT_EQ(a.timeline.attention, b.timeline.attention);
  EXPECT_EQ(a.timeline.gate, b.timeline.gate);
  EXPECT_EQ(a.timeline.a2a1, b.timeline.a2a1);
  EXPECT_EQ(a.timeline.expert, b.timeline.expert);
  EXPECT_EQ(a.timeline.a2a2, b.timeline.a2a2);
  EXPECT_EQ(a.timeline.add_norm, b.timeline.add_norm);
  EXPECT_EQ(a.timeline.reconfig_blocked, b.timeline.reconfig_blocked);
  EXPECT_EQ(a.extra, b.extra);
  EXPECT_EQ(a.error, b.error);
}

// ------------------------------------------------------ CanonicalWriter ----

TEST(CanonicalWriter, TextSortsFieldsSoOrderNeverMatters) {
  CanonicalWriter a, b;
  a.field("alpha", 1).field("beta", 2.5).field("gamma", "x");
  b.field("gamma", "x").field("alpha", 1).field("beta", 2.5);
  EXPECT_EQ(a.canonical_text(), b.canonical_text());
  EXPECT_EQ(a.digest_hex(), b.digest_hex());
  EXPECT_EQ(a.digest_hex().size(), 32u);
}

TEST(CanonicalWriter, AnySemanticChangeChangesTheDigest) {
  auto digest = [](auto fill) {
    CanonicalWriter w;
    fill(w);
    return w.digest_hex();
  };
  const std::string base =
      digest([](CanonicalWriter& w) { w.field("a", 1).field("b", 2.0); });
  // Different value.
  EXPECT_NE(base,
            digest([](CanonicalWriter& w) { w.field("a", 2).field("b", 2.0); }));
  // Renamed field.
  EXPECT_NE(base,
            digest([](CanonicalWriter& w) { w.field("c", 1).field("b", 2.0); }));
  // Added field.
  EXPECT_NE(base, digest([](CanonicalWriter& w) {
              w.field("a", 1).field("b", 2.0).field("c", 0);
            }));
  // Type tags: int 1 vs string "1" vs bool true must not collide.
  EXPECT_NE(digest([](CanonicalWriter& w) { w.field("a", 1); }),
            digest([](CanonicalWriter& w) { w.field("a", "1"); }));
  EXPECT_NE(digest([](CanonicalWriter& w) { w.field("a", 1); }),
            digest([](CanonicalWriter& w) { w.field("a", true); }));
}

TEST(CanonicalWriter, DuplicateKeyThrows) {
  CanonicalWriter w;
  w.field("seed", 1);
  EXPECT_THROW(w.field("seed", 2), std::invalid_argument);
}

TEST(CanonicalWriter, SeparatorsInValuesAreEscapedInjectively) {
  // "a=1;b=2" as one value must not collide with fields a and b.
  CanonicalWriter tricky, plain;
  tricky.field("x", "a=1;b=2");
  plain.field("x", "a").field("b", 2);
  EXPECT_NE(tricky.canonical_text(), plain.canonical_text());
  CanonicalWriter backslash;
  backslash.field("x", "a\\=1\\;b\\=2");
  EXPECT_NE(tricky.canonical_text(), backslash.canonical_text());
}

TEST(CanonicalWriter, DoubleRoundTripsAllSeventeenDigits) {
  CanonicalWriter w;
  w.field("v", 0.1 + 0.2);  // 0.30000000000000004: %.17g must preserve it
  EXPECT_NE(w.canonical_text().find("30000000000000004"), std::string::npos);
}

// ------------------------------------------------------------ cache key ----

TEST(CacheKey, StableAcrossCallsAndProcessRestarts) {
  const std::vector<SweepPoint> sweep = tiny_sweep();
  const std::string k0 = point_cache_key("figX", sweep[0]);
  EXPECT_EQ(k0.size(), 32u);
  // Same spec re-expanded from scratch: identical key (nothing run-dependent
  // -- no pointers, no timestamps -- feeds the digest).
  const std::vector<SweepPoint> again = tiny_sweep();
  EXPECT_EQ(point_cache_key("figX", again[0]), k0);
}

TEST(CacheKey, SemanticChangesProduceNewKeys) {
  const std::vector<SweepPoint> sweep = tiny_sweep();
  const SweepPoint& p = sweep[0];
  const std::string base = point_cache_key("figX", p);

  std::set<std::string> keys = {base};
  auto expect_fresh = [&](SweepPoint q, const char* what) {
    const std::string k = point_cache_key("figX", q);
    EXPECT_TRUE(keys.insert(k).second) << "key collision after " << what;
  };

  SweepPoint q = p;
  q.cfg.seed += 1;
  expect_fresh(q, "seed change");
  q = p;
  q.cfg.nic_gbps = 401.0;
  expect_fresh(q, "bandwidth change");
  q = p;
  q.cfg.fabric_kind = topo::FabricKind::kMixNet;
  expect_fresh(q, "fabric change");
  q = p;
  q.iterations += 1;
  expect_fresh(q, "iteration-count change");
  q = p;
  q.cfg.use_copilot = !q.cfg.use_copilot;
  expect_fresh(q, "copilot toggle");
  q = p;
  q.cfg.backend = net::NetBackend::kPacket;
  expect_fresh(q, "network backend change");
  q = p;
  q.cfg.pkt.window_packets += 4;
  expect_fresh(q, "packet window change");

  // Scenario id namespaces the key: fig12 and fig13 share configs but may
  // carry different probes.
  EXPECT_NE(point_cache_key("figY", p), base);

  // Display labels are metadata, not identity.
  q = p;
  q.labels = {"renamed", "labels"};
  EXPECT_EQ(point_cache_key("figX", q), base);
}

// ---------------------------------------------------------- record round ----

TEST(PointRecord, JsonRoundTripIsBitExact) {
  const std::vector<SweepPoint> sweep = tiny_sweep();
  const PointResult run = run_point(sweep[2]);
  PointResult decorated = run;
  decorated.extra["locality"] = 0.1 + 0.2;
  decorated.extra["servers"] = 4.0;

  const std::string line =
      point_record_json("k123", decorated, {"MixNet", "400"});
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto back = parse_point_record(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->from_cache);
  // `index` is positional, not part of the record; the engine re-assigns it
  // at lookup time.
  back->index = decorated.index;
  expect_identical(*back, decorated);
}

TEST(PointRecord, MalformedLinesAreMissesNotErrors) {
  EXPECT_FALSE(parse_point_record("").has_value());
  EXPECT_FALSE(parse_point_record("not json at all").has_value());
  EXPECT_FALSE(parse_point_record("{\"v\":1}").has_value());
  EXPECT_FALSE(parse_point_record("{\"v\":999,\"key\":\"k\"}").has_value());
  EXPECT_FALSE(parse_point_record("[1,2,3]").has_value());
}

// --------------------------------------------------------------- cache ----

TEST(ResultCache, PersistsAcrossInstancesLikeARestart) {
  TempCacheDir dir;
  const std::vector<SweepPoint> sweep = tiny_sweep();
  const std::string key = point_cache_key("figX", sweep[0]);
  const PointResult run = run_point(sweep[0]);
  {
    ResultCache cache(dir.path);
    EXPECT_FALSE(cache.lookup("figX", key).has_value());
    cache.put("figX", key, run, sweep[0].labels);
    const auto hit = cache.lookup("figX", key);
    ASSERT_TRUE(hit.has_value());
    expect_identical(*hit, run);
  }
  // A new instance (new process, conceptually) reloads from disk.
  ResultCache reopened(dir.path);
  EXPECT_EQ(reopened.size("figX"), 1u);
  const auto hit = reopened.lookup("figX", key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->from_cache);
  expect_identical(*hit, run);
  // Scenario namespaces are independent.
  EXPECT_FALSE(reopened.lookup("figY", key).has_value());
}

TEST(ResultCache, CorruptLinesAreSkippedGoodOnesSurvive) {
  TempCacheDir dir;
  const std::vector<SweepPoint> sweep = tiny_sweep();
  const std::string key = point_cache_key("figX", sweep[0]);
  const PointResult run = run_point(sweep[0]);
  {
    ResultCache cache(dir.path);
    cache.put("figX", key, run, {});
  }
  // Simulate a kill mid-append plus stray garbage around the good record.
  std::FILE* f = std::fopen((dir.path + "/figX.jsonl").c_str(), "a");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage line\n{\"v\":1,\"key\":\"trunc", f);
  std::fclose(f);

  ResultCache cache(dir.path);
  const auto hit = cache.lookup("figX", key);
  ASSERT_TRUE(hit.has_value());
  expect_identical(*hit, run);
}

TEST(ResultCache, HostileRecordsAreMissesAndTheirPointsRecompute) {
  TempCacheDir dir;
  const std::vector<SweepPoint> sweep = tiny_sweep();
  RunContext ctx;
  ctx.scenario = "figX";
  std::vector<PointResult> cold;
  {
    ResultCache cache(dir.path);
    ctx.cache = &cache;
    cold = run_sweep(sweep, ctx);
  }
  // Mangle the number in point 0's record ("39.05" -> "3-9.05", which a
  // loose number scanner reads as 3), then append a line nested a million
  // levels deep.
  const std::string path = dir.path + "/figX.jsonl";
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), sweep.size());
  const std::string key0 = point_cache_key("figX", sweep[0]);
  bool mangled = false;
  for (std::string& line : lines) {
    if (line.find(key0) == std::string::npos) continue;
    const std::size_t at = line.find("\"iter_sec\":");
    ASSERT_NE(at, std::string::npos);
    line.insert(at + std::strlen("\"iter_sec\":") + 1, "-");
    mangled = true;
  }
  ASSERT_TRUE(mangled);
  {
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& line : lines) out << line << '\n';
    out << std::string(1'000'000, '[') << '\n';
  }

  ResultCache cache(dir.path);
  EXPECT_FALSE(cache.lookup("figX", key0).has_value());
  ctx.cache = &cache;
  SweepStats stats;
  ctx.stats = &stats;
  const auto warm = run_sweep(sweep, ctx);
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.hits, sweep.size() - 1);
  EXPECT_FALSE(warm[0].from_cache);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) expect_identical(warm[i], cold[i]);
}

// ------------------------------------------------------------- engine ------

TEST(SweepEngine, WarmRunIsAllHitsAndBitIdentical) {
  TempCacheDir dir;
  ResultCache cache(dir.path);
  const std::vector<SweepPoint> sweep = tiny_sweep();

  RunContext ctx;
  ctx.scenario = "figX";
  ctx.cache = &cache;
  SweepStats cold_stats;
  ctx.stats = &cold_stats;
  const auto cold = run_sweep(sweep, ctx);
  EXPECT_EQ(cold_stats.computed, sweep.size());
  EXPECT_EQ(cold_stats.hits, 0u);

  SweepStats warm_stats;
  ctx.stats = &warm_stats;
  const auto warm = run_sweep(sweep, ctx);
  EXPECT_EQ(warm_stats.computed, 0u);
  EXPECT_EQ(warm_stats.hits, sweep.size());
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].from_cache);
    expect_identical(warm[i], cold[i]);
  }
}

TEST(SweepEngine, OneGateTracePerKeyAndNoneOnAWarmCache) {
  // fig12's shape: one run_sweep call per model over every fabric and
  // bandwidth, all points of a call sharing the model's gate key.
  TempCacheDir dir;
  ResultCache cache(dir.path);
  RunContext ctx;
  ctx.scenario = "fig12-shaped";
  ctx.cache = &cache;
  ctx.jobs = 2;
  auto grid = [](int blocks) {
    return SweepSpec(tiny_spec().configure([blocks](sim::TrainingConfig& cfg) {
             cfg.model.n_blocks = blocks;
           }))
        .fabrics(evaluated_fabrics())
        .bandwidths({100.0, 400.0})
        .expand();
  };
  for (const bool warm : {false, true}) {
    SweepStats stats;
    ctx.stats = &stats;
    for (const int blocks : {2, 3}) {
      const std::size_t before = stats.gate_traces;
      run_sweep(grid(blocks), ctx);
      EXPECT_EQ(stats.gate_traces - before, warm ? 0u : 1u)
          << (warm ? "warm" : "cold") << " call, " << blocks << " blocks";
    }
    EXPECT_EQ(stats.points, 20u);
    EXPECT_EQ(stats.hits, warm ? 20u : 0u);
    EXPECT_EQ(stats.failed, 0u);
  }
}

TEST(SweepEngine, Fig26XlComputesEachContentKeyOnce) {
  // fig26-xl's scale table starts with the equivalence sweep's analytic
  // 1024- and 2048-GPU points; it reads them instead of sweeping the same
  // content keys again, so a cold cache serves nothing and computes 8.
  TempCacheDir dir;
  ResultCache cache(dir.path);
  SweepStats stats;
  RunContext ctx;
  ctx.scenario = "fig26-xl";
  ctx.cache = &cache;
  ctx.stats = &stats;
  ctx.jobs = 2;
  const ScenarioInfo* s = ScenarioRegistry::paper().find("fig26-xl");
  ASSERT_NE(s, nullptr);
  const ScenarioResult r = s->run(ctx);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.points, 8u);
  EXPECT_EQ(stats.computed, 8u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_TRUE(s->check(r).empty());
}

TEST(SweepEngine, ShardedRunsMergeBitIdenticalToSerial) {
  const std::vector<SweepPoint> sweep = tiny_sweep();
  const auto serial = run_sweep(sweep, RunContext{});

  for (const int n_shards : {2, 3, 8}) {
    TempCacheDir dir;
    for (int s = 0; s < n_shards; ++s) {
      // Each shard is its own cache instance, as in N separate processes.
      ResultCache cache(dir.path);
      RunContext ctx;
      ctx.scenario = "figX";
      ctx.cache = &cache;
      ctx.shard_index = s;
      ctx.shard_count = n_shards;
      SweepStats stats;
      ctx.stats = &stats;
      const auto part = run_sweep(sweep, ctx);
      EXPECT_EQ(stats.failed, 0u) << "shard " << s << "/" << n_shards;
      // This shard executed exactly its residue class (minus earlier-shard
      // hits already in the shared dir).
      for (std::size_t i = 0; i < part.size(); ++i) {
        const bool owned = static_cast<int>(i % n_shards) == s;
        if (!owned && !part[i].from_cache) {
          EXPECT_TRUE(part[i].skipped);
        }
        if (owned) {
          EXPECT_TRUE(part[i].ok()) << "shard " << s << " point " << i;
        }
      }
    }
    // Merge: a fresh engine pass over the now-complete cache.
    ResultCache cache(dir.path);
    RunContext ctx;
    ctx.scenario = "figX";
    ctx.cache = &cache;
    SweepStats stats;
    ctx.stats = &stats;
    const auto merged = run_sweep(sweep, ctx);
    EXPECT_EQ(stats.computed, 0u) << n_shards << " shards left gaps";
    EXPECT_EQ(stats.hits, sweep.size());
    ASSERT_EQ(merged.size(), serial.size());
    for (std::size_t i = 0; i < merged.size(); ++i)
      expect_identical(merged[i], serial[i]);
  }
}

TEST(SweepEngine, ResumeAfterKillRecomputesOnlyUnfinishedPoints) {
  TempCacheDir dir;
  const std::vector<SweepPoint> sweep = tiny_sweep();
  {
    // "Killed" campaign: only shard 0 of 2 ever ran.
    ResultCache cache(dir.path);
    RunContext ctx;
    ctx.scenario = "figX";
    ctx.cache = &cache;
    ctx.shard_index = 0;
    ctx.shard_count = 2;
    SweepStats stats;
    ctx.stats = &stats;
    run_sweep(sweep, ctx);
    EXPECT_EQ(stats.computed, sweep.size() / 2);
  }
  // Resume as a plain (unsharded) run: only the missing half computes.
  ResultCache cache(dir.path);
  RunContext ctx;
  ctx.scenario = "figX";
  ctx.cache = &cache;
  SweepStats stats;
  ctx.stats = &stats;
  const auto results = run_sweep(sweep, ctx);
  EXPECT_EQ(stats.hits, sweep.size() / 2);
  EXPECT_EQ(stats.computed, sweep.size() - sweep.size() / 2);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].from_cache, i % 2 == 0) << i;
  }
}

TEST(SweepEngine, KeepGoingRecordsErrorsAndNeverCachesThem) {
  TempCacheDir dir;
  ResultCache cache(dir.path);
  const Sweep sweep =
      SweepSpec(tiny_spec().iterations(1).probe(
                    [](sim::TrainingSimulator& simulator, PointResult&) {
                      if (simulator.config().nic_gbps == 200.0)
                        throw std::runtime_error("probe exploded");
                    }))
          .bandwidths({100.0, 200.0, 400.0})
          .expand();

  RunContext ctx;
  ctx.scenario = "figX";
  ctx.cache = &cache;
  SweepStats stats;
  ctx.stats = &stats;
  const auto results = run_sweep(sweep, ctx);

  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].error, "probe exploded");
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(stats.failed, 1u);
  ASSERT_EQ(stats.failures.size(), 1u);
  EXPECT_NE(stats.failures[0].find("figX point #1"), std::string::npos);
  EXPECT_NE(stats.failures[0].find("probe exploded"), std::string::npos);

  // Failed points must not poison the cache: a retry recomputes the failed
  // point and serves the good ones from disk.
  EXPECT_EQ(cache.size("figX"), 2u);

  // Without ctx.stats the same sweep throws after the drain.
  RunContext strict;
  strict.scenario = "figX";
  EXPECT_THROW(run_sweep(sweep, strict), std::runtime_error);
}

TEST(SweepEngine, NoStatsSinkRunsEveryPointThenThrowsFirstFailure) {
  std::vector<double> probed;  // jobs = 1: probes run on this thread
  const Sweep sweep =
      SweepSpec(tiny_spec().iterations(1).probe(
                    [&probed](sim::TrainingSimulator& simulator,
                              PointResult&) {
                      probed.push_back(simulator.config().nic_gbps);
                      if (simulator.config().nic_gbps == 200.0)
                        throw std::runtime_error("probe exploded");
                    }))
          .bandwidths({100.0, 200.0, 400.0})
          .expand();

  RunContext ctx;
  ctx.scenario = "figX";
  try {
    run_sweep(sweep, ctx);
    FAIL() << "run_sweep without a stats sink must throw on a failed point";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("figX point #1"), std::string::npos) << what;
    EXPECT_NE(what.find("probe exploded"), std::string::npos) << what;
  }
  // The failing point does not stop the sweep: point #2 ran too.
  EXPECT_EQ(probed, (std::vector<double>{100.0, 200.0, 400.0}));
}

TEST(SweepEngine, ParallelStreamingMatchesSerialBitExactly) {
  // The race-detector companion to the engine tests above, which all run at
  // the default ctx.jobs = 1: this is the test that drives the full engine
  // concurrently -- workers streaming ResultCache::put from their own
  // threads while other workers execute, plus per-slot error capture for
  // the points that throw -- so the TSan CI job (DESIGN.md §10) observes
  // every shared write the streaming path performs.
  const std::vector<SweepPoint> sweep = with_point_seeds(
      SweepSpec(tiny_spec().iterations(1).probe(
                    [](sim::TrainingSimulator& simulator, PointResult&) {
                      if (simulator.config().nic_gbps == 200.0)
                        throw std::runtime_error("probe exploded");
                    }))
          .fabrics({topo::FabricKind::kFatTree, topo::FabricKind::kMixNet})
          .bandwidths({100.0, 200.0, 400.0})
          .expand());

  RunContext serial_ctx;
  serial_ctx.scenario = "figX";
  SweepStats serial_stats;
  serial_ctx.stats = &serial_stats;
  const auto serial = run_sweep(sweep, serial_ctx);

  TempCacheDir dir;
  ResultCache cache(dir.path);
  RunContext par_ctx;
  par_ctx.scenario = "figX";
  par_ctx.jobs = 4;
  par_ctx.cache = &cache;
  SweepStats par_stats;
  par_ctx.stats = &par_stats;
  const auto parallel = run_sweep(sweep, par_ctx);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i)
    expect_identical(parallel[i], serial[i]);
  EXPECT_EQ(par_stats.computed, sweep.size());
  EXPECT_EQ(par_stats.failed, 2u);  // the two nic_gbps == 200 points
  // Streamed records: every successful point hit the disk; failed points
  // never do.
  EXPECT_EQ(cache.size("figX"), sweep.size() - 2);

  // A warm parallel pass serves the good points and recomputes (and
  // re-fails) only the failed ones, still bit-identical to serial.
  SweepStats warm_stats;
  par_ctx.stats = &warm_stats;
  const auto warm = run_sweep(sweep, par_ctx);
  EXPECT_EQ(warm_stats.hits, sweep.size() - 2);
  EXPECT_EQ(warm_stats.computed, 2u);
  EXPECT_EQ(warm_stats.failed, 2u);
  for (std::size_t i = 0; i < warm.size(); ++i)
    expect_identical(warm[i], serial[i]);
}

}  // namespace
}  // namespace mixnet::exp
