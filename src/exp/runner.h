// Staged sweep engine: plan -> cache-lookup -> execute -> stream -> merge
// (DESIGN.md §7, §9).
//
// Each point owns its own TrainingSimulator; the one thing points share is
// read-only input. Training points whose gate-trace keys match
// (moe::gate_trace_key over sim::gate_config and the warm-up) read one
// append-only moe::GateTrace, built on the worker that first needs it and
// dropped when the key's last point finishes. A trace's records are a pure
// function of its key, whichever worker appends them, so a point sees the
// same routing at --jobs 1 or --jobs N. Workers claim points from an atomic
// counter and write results into a pre-sized vector slot keyed by point
// index, so the collected ResultTable is identical whether the sweep runs
// with --jobs 1 or --jobs N.
//
// The RunContext adds the content-addressed stages: each point's
// canonical key (exp/cache_key.h) is looked up in the ResultCache before
// execution; hits are returned with zero simulation work, misses owned by
// this shard execute and stream their record to disk the moment they
// finish, and the result vector -- indexed by point, independent of
// completion order -- is the deterministic merge. Because per-point seeds
// derive from (base seed, index), an N-way sharded run merged from the
// cache is bit-identical to a serial run by construction.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exp/context.h"
#include "exp/scenario.h"
#include "moe/gate_trace.h"

namespace mixnet::exp {

/// Measurements of one executed sweep point.
struct PointResult {
  std::size_t index = 0;
  int iterations = 0;
  /// Mean seconds per iteration (accumulated in iteration order, matching
  /// the historical benchutil::measure_iteration_sec).
  double iter_sec = 0.0;
  /// Per-iteration results, in execution order.
  std::vector<sim::IterationResult> iters;
  /// Fig. 3 timeline of the first MoE block after the last iteration.
  sim::PhaseTimeline timeline;
  /// Probe-recorded custom metrics (see ScenarioSpec::probe).
  std::map<std::string, double> extra;

  /// Non-empty when the point threw: the what() text. Failed points carry
  /// zeroed measurements.
  std::string error;
  /// Served from the ResultCache (no simulation work this process).
  bool from_cache = false;
  /// Owned by another shard and absent from the cache: intentionally not
  /// executed. Carries zeroed measurements.
  bool skipped = false;

  bool ok() const { return error.empty() && !skipped; }
  /// Last measured iteration; a zeroed result for skipped/failed points so
  /// table code can render partial sweeps without UB.
  const sim::IterationResult& last() const;
};

/// Execute one point: build the simulator, run the measured iterations,
/// apply the probe. A training point reads `trace` (run_sweep passes the
/// key's shared one); null gives the simulator its own. Serving points
/// ignore it.
PointResult run_point(const SweepPoint& point,
                      std::shared_ptr<moe::GateTrace> trace = nullptr);

/// The sweep engine: cache lookup under ctx.scenario, shard filtering,
/// ctx.jobs worker threads, streamed records. Results are indexed by point
/// index regardless of execution order. A point that throws never stops
/// the others: its error lands in its result slot and, when ctx.stats is
/// set, in ctx.stats->failures. Without ctx.stats, run_sweep throws one
/// std::runtime_error after the workers drain, whose what() is the first
/// failure line ("<scenario> point #i (labels): <what>").
std::vector<PointResult> run_sweep(const std::vector<SweepPoint>& points,
                                   const RunContext& ctx);
std::vector<PointResult> run_sweep(const Sweep& sweep, const RunContext& ctx);

/// run_sweep with a default RunContext at `jobs` worker threads. Kept for
/// the perfbench self-test, which still calls it; new code passes a
/// RunContext.
std::vector<PointResult> run_sweep(const std::vector<SweepPoint>& points,
                                   int jobs);

}  // namespace mixnet::exp
