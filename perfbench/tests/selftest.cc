// Self-tests of the benchmark's own machinery: order statistics, self-time
// subtraction, trace JSON, output digests, and the traced run's counts and
// digests on a few small points. Exit code 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"
#include "digest.h"
#include "exp/runner.h"
#include "layers.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_order_statistics() {
  using perfbench::median;
  using perfbench::quartiles;
  // Reference values from Python's statistics.quantiles(data, n=4).
  const struct {
    std::vector<double> data;
    double q1, q2, q3;
  } cases[] = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{3.0, 1.0, 2.0}, 1.0, 2.0, 3.0},
      {{1.0, 2.0}, 0.75, 1.5, 2.25},
      {{0.5, 0.25, 4.0, 1.5, 2.0, 8.0, 3.0}, 0.5, 2.0, 4.0},
  };
  for (const auto& c : cases) {
    const auto q = quartiles(c.data);
    check(near(q[0], c.q1) && near(q[1], c.q2) && near(q[2], c.q3),
          "quartiles match statistics.quantiles");
    check(near(median(c.data), c.q2), "median equals the second quartile");
  }
  check(near(median({4.0}), 4.0), "median of one sample");
}

perfbench::Span span(const char* name, std::int64_t b, std::int64_t e, int parent) {
  perfbench::Span s;
  s.name = name;
  s.start_ns = b;
  s.end_ns = e;
  s.parent = parent;
  s.point = 0;
  return s;
}

void test_self_time() {
  perfbench::SpanRecorder rec;
  rec.add(span("exp.point", 0, 100, -1));    // 0
  rec.add(span("sim.setup", 10, 30, 0));     // 1
  rec.add(span("sim.iteration", 20, 50, 0)); // 2: overlaps 1
  rec.add(span("moe.step", 25, 35, 2));      // 3: grandchild of 0
  rec.add(span("sim.iteration", 90, 120, 0));// 4: runs past its parent
  const auto self = perfbench::self_seconds(rec.spans());
  // Children of 0 cover [10,50) and [90,100): 50 of its 100 ns.
  check(near(self[0], 50e-9), "self time subtracts the union of children");
  check(near(self[1], 20e-9), "leaf self time is its duration");
  check(near(self[2], 20e-9), "self time subtracts a child");
  check(near(self[3], 10e-9), "grandchild self time");
  const auto totals = perfbench::totals_by_name(rec.spans());
  check(totals.at("sim.iteration").count == 2, "span count by name");
  check(near(totals.at("sim.iteration").total_s, 60e-9), "total by name");
  check(near(totals.at("sim.iteration").self_s, 50e-9), "self by name");
}

void test_trace_json() {
  perfbench::SpanRecorder rec;
  {
    perfbench::Scope outer(rec, "exp.point", 3);
    perfbench::Scope inner(rec, "net.\"quoted\"", 3);
  }
  const std::string text =
      perfbench::chrome_trace_json(rec.spans(), {{"workload", "w"}});
  const auto doc = mixnet::json::parse(text);
  check(doc.has_value(), "trace JSON parses");
  if (!doc) return;
  const auto* events = doc->get("traceEvents");
  check(events && events->items().size() == 2, "one event per span");
  if (!events || events->items().size() != 2) return;
  const auto& inner = events->items()[1];
  check(inner.get("name")->as_string() == "net.\"quoted\"", "names round-trip");
  check(inner.get("cat")->as_string() == "net", "category is the layer");
  check(inner.get("ph")->as_string() == "X", "complete events");
  check(inner.get("args")->get("parent")->as_i64() == 0, "parent id");
  check(inner.get("args")->get("point")->as_i64() == 3, "point id");
  check(doc->get("workload")->as_string() == "w", "metadata");
}

void test_digest() {
  mixnet::exp::SweepPoint p;
  p.iterations = 1;
  mixnet::exp::PointResult r;
  r.iterations = 1;
  r.iter_sec = 2.0;
  mixnet::sim::IterationResult it;
  it.total = 2'000'000'000;
  it.tokens = 1000.0;
  r.iters.push_back(it);
  check(perfbench::check_point(p, r).empty(), "a positive point passes");
  const auto d = perfbench::point_digest(r);
  r.iters[0].total += 1;
  check(perfbench::point_digest(r) != d, "a 1 ns change moves the digest");
  r.iters[0].total = 0;
  check(!perfbench::check_point(p, r).empty(), "zero iteration time fails");
  r.error = "boom";
  check(!perfbench::check_point(p, r).empty(), "a throwing point fails");
  check(perfbench::workload_digest({1, 2}) != perfbench::workload_digest({2, 1}),
        "workload digest is ordered");
}

/// A few cheap points covering the training, packet, serving and
/// re-placement paths.
std::vector<mixnet::exp::SweepPoint> small_points(std::uint64_t seed) {
  std::vector<mixnet::exp::SweepPoint> pts;
  auto take = [&](const char* workload, std::size_t i, int requests) {
    auto p = perfbench::find_workload(workload)->points(seed).at(i);
    if (p.serve) p.serve->n_requests = requests;
    p.index = pts.size();
    pts.push_back(std::move(p));
  };
  take("train-sweep", 5, 0);   // Mixtral 8x7B on fat-tree
  take("train-sweep", 21, 0);  // Mixtral 8x7B, MixNet + Copilot
  take("train-sweep", 25, 0);  // packet backend, MixNet
  take("serve-steady", 3, 6);
  take("serve-storm", 1, 6);
  take("scale-rail", 2, 0);    // 1024 GPUs, rail-optimized
  return pts;
}

void test_traced_run() {
  const auto points = small_points(7);
  const auto untraced = mixnet::exp::run_sweep(points, 1);
  perfbench::SpanRecorder rec1, rec2;
  const auto a = perfbench::run_traced(points, rec1, 1.0);
  const auto b = perfbench::run_traced(points, rec2, 1.0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    check(perfbench::check_point(points[i], a.results[i]).empty(),
          "traced point " + std::to_string(i) + " is correct");
    check(perfbench::point_digest(a.results[i]) ==
              perfbench::point_digest(untraced[i]),
          "traced and untraced digests agree for point " + std::to_string(i));
  }
  check(a.layers.size() == b.layers.size(), "same metric set");
  for (const auto& [name, m] : a.layers) {
    if (m.unit != "count") continue;
    check(b.layers.at(name).value == m.value, "count " + name + " repeats");
  }
  check(rec1.spans().size() == rec2.spans().size(), "span count repeats");
  for (const char* name : {"moe.gate_steps", "predict.observe_calls",
                           "net.route_calls", "net.phases", "pkt.phases",
                           "control.prepare_calls", "serve.engine_steps"})
    check(a.layers.at(name).value > 0, std::string(name) + " is exercised");
  check(a.layers.at("moe.gate_distinct_traces").value <
            a.layers.at("moe.gate_traces").value,
        "shared-seed points share gate traces");
}

}  // namespace

int main() {
  test_order_statistics();
  test_self_time();
  test_trace_json();
  test_digest();
  test_traced_run();
  std::printf("%s\n", failures ? "perfbench selftest: FAILED" : "perfbench selftest: ok");
  return failures ? 1 : 0;
}
