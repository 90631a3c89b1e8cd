// Failure injection and recovery (§5.4).
//
// Models the paper's three failure classes on a running fabric:
//   * NIC/link failures -- EPS NICs of a server go dark. With one of two
//     NICs lost, EPS bandwidth halves; with both lost, traffic detours
//     optically through a regional peer's healthy EPS interface (mutual
//     OCS/EPS fallback).
//   * Single-GPU failure -- the workload remaps to a backup GPU; when the
//     victim hosted a TP shard, that stage's TP all-reduce crosses the
//     scale-out fabric instead of NVSwitch (the +5.1% case of Fig. 14b).
//   * Full-server failure -- a replacement node joins via EPS only; the
//     regional controller excludes it from OCS allocation, so all its EP
//     traffic rides the two EPS NICs.
#pragma once

#include <string>
#include <vector>

#include "topo/fabric.h"

namespace mixnet::control {

struct FailureScenario {
  enum class Kind {
    kNone,
    kOneNic,      ///< one EPS NIC of `server` fails
    kTwoNic,      ///< both EPS NICs of `server` fail (OCS detour engages)
    kOneGpu,      ///< one GPU of `server` fails; backup GPU takes over
    kServerDown,  ///< whole server replaced by an EPS-only backup node
  };
  Kind kind = Kind::kNone;
  int server = 0;
};

const char* to_string(FailureScenario::Kind k);

/// A relay rule: packet-switched traffic touching `server` (peer == -1) or
/// between (`server`, `peer`) detours through `relay`.
struct RelayRule {
  int server = -1;
  int peer = -1;
  int relay = -1;
};

class FailureManager {
 public:
  explicit FailureManager(topo::Fabric& fabric);

  /// Apply a scenario; mutates fabric links and records relay rules.
  void apply(const FailureScenario& scenario);

  /// Servers the OCS controllers must exclude (global indices).
  const std::vector<bool>& excluded_servers() const { return excluded_; }

  /// Relay rules to install on every collective engine instance.
  const std::vector<RelayRule>& relays() const { return relays_; }

  /// True when a failed GPU forces one stage's TP all-reduce onto the
  /// scale-out fabric (extra per-layer cost charged by the training sim).
  bool tp_over_scale_out() const { return tp_over_scale_out_; }
  int affected_server() const { return affected_server_; }

 private:
  void fail_eps_nics(int server, int count);

  topo::Fabric& fabric_;
  std::vector<bool> excluded_;
  std::vector<RelayRule> relays_;
  bool tp_over_scale_out_ = false;
  int affected_server_ = -1;
};

}  // namespace mixnet::control
