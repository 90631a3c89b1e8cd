#include "exp/runner.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exp/cache_key.h"
#include "exp/result_cache.h"
#include "serve/serve_sim.h"
#include "sim/cluster.h"

namespace mixnet::exp {

const sim::IterationResult& PointResult::last() const {
  static const sim::IterationResult kZero{};
  return iters.empty() ? kZero : iters.back();
}

namespace {

/// Serving-mode execution: one ServeSimulator run; every SLO metric rides
/// in `extra` (the result cache round-trips it verbatim, so serve points
/// need no record-format change).
PointResult run_serve_point(const SweepPoint& point) {
  PointResult res;
  res.index = point.index;
  res.iterations = point.iterations;
  serve::ServeSimulator simulator(point.cfg, *point.serve);
  const serve::ServeReport report = simulator.run();
  res.extra = serve::slo_metrics(report, *point.serve);
  res.iter_sec = ns_to_sec(report.makespan);
  return res;
}

}  // namespace

PointResult run_point(const SweepPoint& point,
                      std::shared_ptr<moe::GateTrace> trace) {
  if (point.serve) return run_serve_point(point);
  PointResult res;
  res.index = point.index;
  res.iterations = point.iterations;
  sim::TrainingSimulator simulator(point.cfg, std::move(trace));
  double total = 0.0;
  res.iters.reserve(static_cast<std::size_t>(point.iterations));
  for (int i = 0; i < point.iterations; ++i) {
    res.iters.push_back(simulator.run_iteration());
    total += ns_to_sec(res.iters.back().total);
  }
  res.iter_sec = total / point.iterations;
  res.timeline = simulator.layer_timeline();
  if (point.probe) point.probe(simulator, res);
  return res;
}

namespace {

/// The gate traces of one execute stage: one slot per distinct gate-trace
/// key among the training points it runs. A slot's trace is built by the
/// first point that acquires it, records up to the largest `iterations`
/// among the key's points (then frees its generator), and is dropped when
/// the key's last point releases it, so no trace outlives the call.
class TracePool {
 public:
  TracePool(const std::vector<SweepPoint>& points,
            const std::vector<std::size_t>& todo)
      : slot_of_(points.size(), kNoSlot) {
    std::map<std::string, std::size_t> by_key;
    for (const std::size_t i : todo) {
      if (points[i].serve) continue;
      const sim::TrainingConfig& cfg = points[i].cfg;
      const moe::GateConfig gate = sim::gate_config(cfg);
      const auto [it, fresh] = by_key.emplace(
          moe::gate_trace_key(gate, cfg.warmup_iterations), slots_.size());
      if (fresh) slots_.emplace_back(gate, cfg.warmup_iterations);
      Slot& slot = slots_[it->second];
      slot.horizon = std::max(slot.horizon, points[i].iterations);
      slot.layers = std::max(slot.layers, sim::layers_per_stage(cfg));
      ++slot.users;
      slot_of_[i] = it->second;
    }
  }

  /// Point i's shared trace (built on first use); null for serving points.
  std::shared_ptr<moe::GateTrace> acquire(std::size_t i) {
    if (slot_of_[i] == kNoSlot) return nullptr;
    Slot& slot = slots_[slot_of_[i]];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (!slot.trace) {
      slot.trace = std::make_shared<moe::GateTrace>(
          slot.gate, slot.warmup, slot.layers, slot.horizon);
      ++built_;
    }
    return slot.trace;
  }

  /// Point i finished (either way; a second call is a no-op): the key's
  /// last point drops the trace.
  void release(std::size_t i) {
    const std::size_t s = std::exchange(slot_of_[i], kNoSlot);
    if (s == kNoSlot) return;
    Slot& slot = slots_[s];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (--slot.users == 0) slot.trace.reset();
  }

  std::size_t built() const { return built_; }

 private:
  static constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

  struct Slot {
    Slot(const moe::GateConfig& g, int w) : gate(g), warmup(w) {}
    moe::GateConfig gate;
    int warmup;
    int horizon = 0;
    int layers = 1;
    std::mutex mu;
    int users = 0;                          // guarded by mu
    std::shared_ptr<moe::GateTrace> trace;  // guarded by mu
  };

  std::vector<std::size_t> slot_of_;  // point index -> slot
  std::deque<Slot> slots_;            // elements never move (mutexes)
  std::atomic<std::size_t> built_{0};
};

/// Execute `todo` (indices into `points`) on a worker pool, writing into
/// `results` slots; training points read their key's trace from `traces`.
/// A point that throws gets a zeroed slot carrying the what() text, and the
/// sweep keeps going. on_done runs on the worker thread for each successful
/// point -- the stream stage.
template <typename OnDone>
void execute_points(const std::vector<SweepPoint>& points,
                    const std::vector<std::size_t>& todo, TracePool& traces,
                    std::vector<PointResult>& results, int jobs,
                    OnDone on_done) {
  if (todo.empty()) return;
  std::atomic<std::size_t> next{0};
  auto work = [&]() {
    for (;;) {
      const std::size_t t = next.fetch_add(1);
      if (t >= todo.size()) return;
      const std::size_t i = todo[t];
      std::string error;
      try {
        results[i] = run_point(points[i], traces.acquire(i));
        traces.release(i);
        on_done(i);
        continue;
      } catch (const std::exception& e) {
        error = e.what();
      } catch (...) {
        error = "unknown exception";
      }
      traces.release(i);
      results[i] = PointResult{};
      results[i].index = points[i].index;
      results[i].iterations = points[i].iterations;
      results[i].error = std::move(error);
    }
  };
  const std::size_t workers =
      std::min<std::size_t>(jobs > 1 ? static_cast<std::size_t>(jobs) : 1,
                            todo.size());
  if (workers <= 1) {
    work();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(work);
    for (auto& t : threads) t.join();
  }
}

}  // namespace

std::vector<PointResult> run_sweep(const std::vector<SweepPoint>& points,
                                   const RunContext& ctx) {
  // Backend override (`mixnet-bench --backend`): rewrite the points *before*
  // cache keys are computed, so overridden runs hash — and cache — as what
  // they actually simulate.
  if (ctx.backend_override) {
    std::vector<SweepPoint> overridden = points;
    for (SweepPoint& p : overridden) p.cfg.backend = *ctx.backend_override;
    RunContext sub = ctx;
    sub.backend_override.reset();
    return run_sweep(overridden, sub);
  }
  std::vector<PointResult> results(points.size());
  if (points.empty()) return results;
  const int shard_count = std::max(1, ctx.shard_count);
  const int shard_index =
      std::min(std::max(0, ctx.shard_index), shard_count - 1);

  // Plan + cache-lookup: every point gets its content key; hits are merged
  // in immediately, misses owned by this shard queue for execution, misses
  // owned by other shards are marked skipped.
  std::vector<std::string> keys(points.size());
  std::vector<std::size_t> todo;
  std::size_t hits = 0, skipped = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (ctx.cache) {
      keys[i] = point_cache_key(ctx.scenario, points[i]);
      if (auto cached = ctx.cache->lookup(ctx.scenario, keys[i])) {
        results[i] = std::move(*cached);
        results[i].index = points[i].index;
        ++hits;
        continue;
      }
    }
    if (static_cast<int>(i % static_cast<std::size_t>(shard_count)) !=
        shard_index) {
      results[i].index = points[i].index;
      results[i].iterations = points[i].iterations;
      results[i].skipped = true;
      ++skipped;
      continue;
    }
    todo.push_back(i);
  }

  // Execute + stream: completed records hit the disk from the worker thread
  // the moment they finish, so a killed run loses at most in-flight points.
  TracePool traces(points, todo);
  execute_points(points, todo, traces, results, ctx.jobs, [&](std::size_t i) {
    if (ctx.cache)
      ctx.cache->put(ctx.scenario, keys[i], results[i], points[i].labels);
  });

  // Merge + report: the results vector is indexed by point, independent of
  // completion order. Failures go to ctx.stats when the caller supplied a
  // sink; otherwise the first one is thrown, so a failure is never silent.
  std::vector<std::string> failures;
  for (const std::size_t i : todo) {
    if (results[i].error.empty()) continue;
    std::string labels;
    for (const auto& l : points[i].labels) {
      if (!labels.empty()) labels += ", ";
      labels += l;
    }
    failures.push_back(
        (ctx.scenario.empty() ? std::string("sweep") : ctx.scenario) +
        " point #" + std::to_string(points[i].index) + " (" + labels +
        "): " + results[i].error);
  }
  if (!ctx.stats) {
    if (!failures.empty()) throw std::runtime_error(failures.front());
    return results;
  }
  ctx.stats->points += points.size();
  ctx.stats->hits += hits;
  ctx.stats->skipped += skipped;
  ctx.stats->computed += todo.size();
  ctx.stats->failed += failures.size();
  ctx.stats->gate_traces += traces.built();
  for (auto& f : failures) ctx.stats->failures.push_back(std::move(f));
  return results;
}

std::vector<PointResult> run_sweep(const Sweep& sweep, const RunContext& ctx) {
  return run_sweep(sweep.points(), ctx);
}

std::vector<PointResult> run_sweep(const std::vector<SweepPoint>& points,
                                   int jobs) {
  RunContext ctx;
  ctx.jobs = jobs;
  return run_sweep(points, ctx);
}

}  // namespace mixnet::exp
