// Fidelity-ladder scenario (DESIGN.md §12): one fig12-class training
// workload swept across every network backend — the contention-free
// analytic bound, the max-min fluid FlowSim the paper's figures run on, and
// the packet engine — on both a fat-tree and a MixNet fabric. The
// registered check machine-gates the agreement bounds, turning
// "flowsim is right" from a spot check into a CI-enforced sweep:
//
//   * ordering: analytic <= flow on every metric (a flow's fair-share rate
//     can never exceed its path bottleneck, so the analytic model is a true
//     lower bound);
//   * agreement: packet vs flow within a stated tolerance. Windowed
//     store-and-forward differs from fluid fair sharing by at most a few
//     packet serialization times per flow plus queueing-discipline skew
//     (FIFO vs instantaneous fair share), which is why the pure-comm metric
//     gets a looser bound than the compute-diluted iteration time.
//
// The workload is the fig10 testbed truncation (small cluster, 100 Gbps)
// with dp = 1 — gradient all-reduce volumes are ~GB-scale and would
// dominate packet-mode cost without adding fidelity signal beyond what the
// EP phases already exercise.
#include <cmath>
#include <utility>
#include <vector>

#include "exp/registry.h"
#include "exp/runner.h"
#include "exp/scenario.h"
#include "net/transport.h"

namespace mixnet::exp {
namespace {

// Agreement bounds asserted by the registered check. Tolerance rationale in
// DESIGN.md §12: iteration time is diluted by backend-invariant compute, so
// it gets the tight bound; EP all-to-all is pure network time where window
// pacing and FIFO-vs-fair-share skew show up undamped.
constexpr double kIterTol = 0.05;
constexpr double kCommTol = 0.15;
// analytic <= flow holds mathematically; the slack only absorbs the
// ns-quantization of transmission_time().
constexpr double kOrderSlack = 1e-6;

const std::vector<topo::FabricKind>& fidelity_fabrics() {
  static const std::vector<topo::FabricKind> kinds = {
      topo::FabricKind::kFatTree, topo::FabricKind::kMixNet};
  return kinds;
}

const std::vector<net::NetBackend>& ladder() {
  static const std::vector<net::NetBackend> backends = {
      net::NetBackend::kAnalytic, net::NetBackend::kFlow,
      net::NetBackend::kPacket};
  return backends;
}

ScenarioResult run_fidelity_ladder(const RunContext& ctx) {
  std::vector<AxisValue> backend_axis;
  for (const net::NetBackend b : ladder()) {
    backend_axis.push_back(
        {net::to_string(b), [b](ScenarioSpec& s) { s.backend(b); }});
  }
  const Sweep sweep =
      SweepSpec(ScenarioSpec()
                    .iterations(2)
                    .warmup(8)
                    .configure([](sim::TrainingConfig& cfg) {
                      // fig10 testbed truncation: Mixtral on 4 servers of 8
                      // GPUs at 100 Gbps, shallow enough that the packet
                      // backend simulates every EP flow MTU-by-MTU in
                      // seconds.
                      cfg.model = moe::mixtral_8x7b();
                      cfg.model.n_blocks = 2;
                      cfg.par.ep = 8;
                      cfg.par.tp = 4;
                      cfg.par.pp = 1;
                      cfg.par.dp = 1;
                      cfg.par.micro_batch = 2;
                      cfg.par.n_microbatches = 2;
                      cfg.par_overridden = true;
                      cfg.nic_gbps = 100.0;
                      cfg.nics_per_server = 4;
                      cfg.eps_nics = 1;
                      cfg.optical_degree = 3;
                      cfg.nvlink_gbps_per_gpu = 2400.0;
                      // BDP-sized source window: 100 Gbps x ~20 us of
                      // path/queueing latency is ~256 KB in flight. The
                      // default 8-MTU window would cap per-flow throughput
                      // below the link rate and measure window starvation,
                      // not model disagreement (same rationale as the
                      // PacketVsFluid deep-path cases).
                      cfg.pkt.window_packets = 64;
                    }))
          .fabrics(fidelity_fabrics())
          .axis("backend", std::move(backend_axis))
          .expand();
  const auto results = run_sweep(sweep, ctx);

  ScenarioResult out;
  out.name = "fidelity-ladder";
  ResultTable table(
      "Fidelity ladder",
      "Backend agreement, fig10-class workload at 100 Gbps",
      {"Fabric", "Metric", "analytic", "flow", "packet", "packet/flow"}, 14);
  for (std::size_t f = 0; f < fidelity_fabrics().size(); ++f) {
    const std::string fabric = topo::to_string(fidelity_fabrics()[f]);
    double iter_ms[3] = {0, 0, 0};
    double comm_ms[3] = {0, 0, 0};
    for (std::size_t b = 0; b < ladder().size(); ++b) {
      const PointResult& r = results[sweep.flat({f, b})];
      iter_ms[b] = 1e3 * r.iter_sec;
      comm_ms[b] = ns_to_ms(r.last().ep_comm);
    }
    table.add_row({fabric, "iteration (ms)", Cell::num(iter_ms[0], 2),
                   Cell::num(iter_ms[1], 2), Cell::num(iter_ms[2], 2),
                   Cell::num(iter_ms[2] / iter_ms[1], 4)});
    table.add_row({fabric, "EP all-to-all (ms)", Cell::num(comm_ms[0], 2),
                   Cell::num(comm_ms[1], 2), Cell::num(comm_ms[2], 2),
                   Cell::num(comm_ms[2] / comm_ms[1], 4)});
  }
  out.tables.push_back(std::move(table));
  out.note = printf_str(
      "Gate: analytic <= flow on every metric; |packet/flow - 1| <= %.0f%%\n"
      "for iteration time and <= %.0f%% for the pure-comm EP all-to-all\n"
      "(tolerance rationale: DESIGN.md §12).",
      100.0 * kIterTol, 100.0 * kCommTol);
  return out;
}

std::vector<std::string> check_fidelity_ladder(const ScenarioResult& res) {
  std::vector<std::string> bad;
  if (res.tables.empty()) {
    bad.push_back("fidelity-ladder produced no tables");
    return bad;
  }
  const ResultTable& t = res.tables.front();
  if (t.rows().size() != 2 * fidelity_fabrics().size()) {
    bad.push_back(printf_str("%s: expected %zu rows, got %zu",
                             t.title().c_str(), 2 * fidelity_fabrics().size(),
                             t.rows().size()));
    return bad;
  }
  for (const auto& row : t.rows()) {
    if (row.size() < 6) {
      bad.push_back(
          printf_str("%s: row with fewer than 6 columns", t.title().c_str()));
      return bad;
    }
    const std::string label = row[0].text() + " " + row[1].text();
    const double analytic = row[2].value();
    const double flow = row[3].value();
    const double packet = row[4].value();
    if (!(analytic > 0.0) || !(flow > 0.0) || !(packet > 0.0)) {
      bad.push_back(
          printf_str("%s: non-positive backend time", label.c_str()));
      continue;
    }
    if (analytic > flow * (1.0 + kOrderSlack)) {
      bad.push_back(printf_str(
          "%s: analytic (%.3f) exceeds flow (%.3f) — the contention-free "
          "bound must be a lower bound",
          label.c_str(), analytic, flow));
    }
    const bool comm_row = row[1].text().find("all-to-all") != std::string::npos;
    const double tol = comm_row ? kCommTol : kIterTol;
    const double rel = std::fabs(packet / flow - 1.0);
    if (rel > tol) {
      bad.push_back(printf_str(
          "%s: packet (%.3f) vs flow (%.3f) disagree by %.1f%% (> %.0f%%)",
          label.c_str(), packet, flow, 100.0 * rel, 100.0 * tol));
    }
  }
  return bad;
}

}  // namespace

void register_fidelity_scenarios(ScenarioRegistry& r) {
  r.add({"fidelity-ladder", "Fidelity ladder",
         "Cross-backend agreement: analytic vs flow vs packet engine",
         run_fidelity_ladder, check_fidelity_ladder, "fidelity",
         /*pins_backend=*/true});
}

}  // namespace mixnet::exp
