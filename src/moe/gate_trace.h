// GateTrace: one gate's routing, recorded once and read by every training
// point that shares its key (DESIGN.md §8).
//
// A gate's state sequence depends only on its GateConfig and warm-up, not
// on the fabric or the bandwidth it is replayed on, so a sweep builds one
// trace per distinct key instead of one GateSimulator per point. The trace
// owns the key's only GateSimulator and appends what training reads from
// it:
//
//   * before warm-up, the iteration-0 dispatch counts of every layer (the
//     demand TopoOpt plans its one-shot circuits from);
//   * per measured iteration, the dispatch counts and expert loads of the
//     first `stage_layers` layers, recorded on first request.
//
// Records are a pure function of the key: whichever thread extends the
// trace, iteration i is the generator's state after warm-up and i + 1
// steps, so a point reads the same values at any --jobs. Published records
// never move or change; readers hold references into them.
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/canonical.h"
#include "common/matrix.h"
#include "moe/gate.h"

namespace mixnet::moe {

/// Serialize every GateConfig field into `w` as "gate.<field>": the one
/// writer of GateConfig key material, shared by the result-cache key
/// (exp::canonicalize_config) and gate_trace_key. mixnet-lint's cache-key
/// analyzer holds it to every field (tools/lint/cache_key.json): two gates
/// aliased under one key would silently share a trace and a cached result.
void canonicalize_gate(const GateConfig& gc, CanonicalWriter& w);

/// Content key of a gate trace: canonicalize_gate plus the warm-up, 32
/// lowercase hex chars. Equal keys give bit-identical traces.
std::string gate_trace_key(const GateConfig& gate, int warmup);

class GateTrace {
 public:
  /// What one measured iteration reads, per recorded layer.
  struct Iteration {
    std::vector<Matrix> counts;             ///< [layer] rank x expert slots
    std::vector<std::vector<double>> load;  ///< [layer] normalized load
  };

  /// Builds the generator, records iteration 0 of every layer, then warms
  /// it up `warmup` iterations in closed form (advance_steps). Once
  /// `horizon` measured iterations are recorded the generator is freed;
  /// the caller plans the horizon (run_sweep: the largest `iterations`
  /// among the key's points). A negative horizon keeps it for the trace's
  /// lifetime.
  GateTrace(const GateConfig& gate, int warmup, int stage_layers,
            int horizon = -1);

  const std::string& key() const { return key_; }
  int stage_layers() const { return stage_layers_; }

  /// Iteration-0 dispatch counts of `layer` (any layer), before warm-up.
  const Matrix& initial_counts(int layer) const;

  /// Measured iteration `i` (0-based), recording it and any before it on
  /// first request. Thread-safe; the reference is valid for the trace's
  /// lifetime. Throws std::logic_error for `i` at or past a reached
  /// horizon (the generator is gone).
  const Iteration& iteration(int i);

  /// Whether the generator is alive (freed after `horizon` iterations).
  bool generating() const;

 private:
  int stage_layers_ = 1;
  int horizon_ = -1;
  std::string key_;
  std::vector<Matrix> initial_;
  mutable std::mutex mu_;
  std::unique_ptr<GateSimulator> gen_;  // guarded by mu_
  std::deque<Iteration> records_;      // grows under mu_; elements never move
};

}  // namespace mixnet::moe
