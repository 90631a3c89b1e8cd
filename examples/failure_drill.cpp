// Failure drill (§5.4): inject each failure class into a MixNet cluster
// training Mixtral 8x22B and watch the system work around it --
// EPS/OCS mutual fallback, backup-GPU remapping, and EPS-only replacement
// nodes excluded from the regional OCS.
//
// Sweep-shaped example of the declarative experiment API: the five failure
// scenarios are one sweep axis, and the post-run circuit census uses a
// ScenarioSpec probe (custom metrics recorded off the live simulator).
#include <cstdio>

#include "exp/runner.h"
#include "exp/scenario.h"

using namespace mixnet;

int main() {
  using Kind = control::FailureScenario::Kind;
  const std::vector<std::pair<Kind, const char*>> drills = {
      {Kind::kNone, "baseline (no failure)"},
      {Kind::kOneNic, "one EPS NIC fails"},
      {Kind::kTwoNic, "both EPS NICs fail (optical detour via peer)"},
      {Kind::kOneGpu, "one GPU fails (backup GPU, TP over scale-out)"},
      {Kind::kServerDown, "whole server replaced (EPS-only backup node)"},
  };

  std::printf("Failure drill: Mixtral 8x22B on MixNet, 400 Gbps\n\n");
  std::printf("%-50s %-10s %-10s %-10s\n", "scenario", "iter (s)", "overhead",
              "circuits");

  std::vector<exp::AxisValue> axis;
  for (const auto& [kind, label] : drills)
    axis.push_back({label, [kind = kind](exp::ScenarioSpec& s) {
      s.failure({kind, 0});
    }});
  const exp::Sweep sweep =
      exp::SweepSpec(
          exp::ScenarioSpec()
              .model(moe::mixtral_8x22b())
              .fabric(topo::FabricKind::kMixNet)
              .link_gbps(400.0)
              // Count circuits still terminating at server 0's region after
              // recovery.
              .probe([](sim::TrainingSimulator& simulator,
                        exp::PointResult& res) {
                const auto counts = simulator.fabric().circuit_counts(
                    simulator.fabric().region_of(0));
                res.extra["region0_circuits"] = counts.sum() / 2;
              }))
          .axis("failure", std::move(axis))
          .expand();
  const auto results = exp::run_sweep(sweep, exp::RunContext{});

  const double baseline = results[0].iter_sec;  // kNone row
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double t = results[i].iter_sec;
    std::printf("%-50s %-10.2f +%-9.1f%% %-10.0f\n",
                sweep.points()[i].labels[0].c_str(), t,
                100.0 * (t - baseline) / baseline,
                results[i].extra.at("region0_circuits"));
  }
  std::printf("\nNote how the EPS-only replacement node (last row) still trains --\n"
              "its EP traffic rides the two EPS NICs while the regional\n"
              "controller excludes it from circuit allocation.\n");
  return 0;
}
