// Execution context threaded through every scenario run (DESIGN.md §9).
//
// The sweep engine runs in five stages -- plan -> cache-lookup -> execute ->
// stream -> merge -- and RunContext carries everything a stage needs beyond
// the Sweep itself: the worker-thread count, the scenario's cache namespace,
// the disk-backed ResultCache, this process's shard assignment, and the
// SweepStats sink the engine reports into.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "net/transport.h"

namespace mixnet::exp {

class ResultCache;  // result_cache.h

/// Per-run aggregation across every run_sweep() call a scenario makes.
/// Counters are updated by the engine after its workers drain, so readers
/// never race; `points == hits + computed + skipped` always holds (a failed
/// point counts as computed).
struct SweepStats {
  std::size_t points = 0;    ///< grid points planned
  std::size_t hits = 0;      ///< served from the result cache, zero sim work
  std::size_t computed = 0;  ///< executed in this process (includes failed)
  std::size_t skipped = 0;   ///< other shards' points, absent from the cache
  std::size_t failed = 0;    ///< executed points that threw
  /// Gate traces built (one per distinct gate-trace key among the executed
  /// training points of each run_sweep call; none for cache hits).
  std::size_t gate_traces = 0;
  /// One human-readable line per failed point ("point #i (labels): what()").
  std::vector<std::string> failures;
};

/// Execution options threaded into every scenario run.
struct RunContext {
  int jobs = 1;  ///< worker threads for sweep execution

  /// Cache namespace, normally the registry name of the running scenario.
  /// The point content hash mixes this in, so identical configurations in
  /// different scenarios never alias (their probes may differ).
  std::string scenario;

  /// Content-addressed result cache; nullptr disables lookup and streaming.
  ResultCache* cache = nullptr;

  /// Shard assignment: this process executes points whose flat index i has
  /// i % shard_count == shard_index. Because per-point seeds derive from
  /// (base seed, index), any shard partition is bit-exact by construction.
  int shard_index = 0;
  int shard_count = 1;

  /// Engine report sink (optional). Every point runs either way. When set,
  /// failed points are recorded here and the caller decides the exit code;
  /// when null, run_sweep throws the first failure after the workers drain.
  SweepStats* stats = nullptr;

  /// Fidelity-ladder override (`mixnet-bench --backend`): forces every
  /// point's TrainingConfig::backend before cache-key computation, so
  /// overridden runs occupy their own cache namespace. Scenarios that pin
  /// backends per point (ScenarioInfo::pins_backend) reject the override at
  /// the CLI instead.
  std::optional<net::NetBackend> backend_override;
};

}  // namespace mixnet::exp
